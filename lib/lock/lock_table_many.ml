(* Atomic multi-resource acquisition: used by the non-blocking-commit
   synchronization strategy, where one user operation must lock the
   record in its own table AND the corresponding records in the other
   schema version (paper, Sec. 4.3: "If a transaction cannot get a lock
   on all implicated records in all tables, it is not allowed to go
   forward with the operation"). *)

open Nbsc_value

type request = {
  table : string;
  key : Row.Key.t;
  lock : Compat.lock;
}

let same_resource (a : request) (b : request) =
  String.equal a.table b.table && Row.Key.equal a.key b.key

let acquire_all t ~owner requests =
  (* One lookup per resource, shared by the dry run and the grants. A
     resource named twice keeps its first lookup: a second detached
     entry for it would join the table twice. *)
  let looked =
    List.fold_left
      (fun acc r ->
         let e =
           match List.find_opt (fun (r', _) -> same_resource r r') acc with
           | Some (_, e) -> e
           | None -> Lock_table.entry t ~table:r.table ~key:r.key
         in
         (r, e) :: acc)
      [] requests
    |> List.rev
  in
  (* Dry-run: collect every conflict before granting anything. *)
  let blockers =
    List.concat_map
      (fun (r, e) -> Lock_table.entry_blockers e ~owner r.lock)
      looked
    |> List.sort_uniq Int.compare
  in
  if blockers <> [] then Lock_table.Blocked blockers
  else begin
    (* Grant loop with backout. The dry run found no conflicts and
       nothing interleaves between the check and the grant, so a
       [Blocked] here should be impossible — but "should" is not a
       crash warrant in a lock manager. If it happens anyway (a
       compatibility quirk the dry run mis-modelled), release only the
       locks this call newly granted — resources the owner already
       held before the call must survive the backout — and report the
       conflict instead of tearing the process down. *)
    let rec grant granted = function
      | [] -> Lock_table.Granted
      | ((r, e, _) as g) :: rest ->
        (match Lock_table.acquire_entry t e ~owner r.lock with
         | Lock_table.Granted -> grant (g :: granted) rest
         | Lock_table.Blocked owners ->
           List.iter
             (fun (_, e, was_held) ->
                if not was_held then Lock_table.release_entry t e ~owner)
             granted;
           Lock_table.Blocked owners)
    in
    grant []
      (List.map
         (fun (r, e) -> (r, e, Lock_table.entry_holds_any e ~owner))
         looked)
  end
