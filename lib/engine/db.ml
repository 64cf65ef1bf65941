open Nbsc_storage
open Nbsc_txn
module Obs = Nbsc_obs.Obs
module Json = Nbsc_obs.Json

type job_status = [ `Running | `Done | `Failed of string ]

type job_persist = {
  job_state : string;
  low_water : Nbsc_wal.Lsn.t;
  rebuilt : string list;
}

type job = {
  j_step : unit -> job_status;
  j_persist : (unit -> job_persist) option;
}

type t = {
  cat : Catalog.t;
  mgr : Manager.t;
  obs : Obs.Registry.t;
  mutable jobs : (string * job) list;
  mutable holders : int;
}

let create ?obs () =
  let obs = match obs with Some r -> r | None -> Obs.Registry.create () in
  let cat = Catalog.create () in
  { cat; mgr = Manager.create ~obs cat; obs; jobs = []; holders = 1_000_000_000 }

let of_parts ?obs cat ~log =
  let obs = match obs with Some r -> r | None -> Obs.Registry.create () in
  { cat;
    mgr = Manager.create ~log ~obs cat;
    obs;
    jobs = [];
    holders = 1_000_000_000 }

(* Identities for background jobs (latch-holder and interceptor ids,
   and the default job-name suffix). Per-database and counting from a fixed
   base: far above any transaction id, and deterministic — the same
   sequence of schema changes on a fresh database always produces the
   same job names, which fixed-seed trace tests rely on. *)
let fresh_holder t =
  t.holders <- t.holders + 1;
  t.holders

let catalog t = t.cat
let manager t = t.mgr
let obs t = t.obs
let log t = Manager.log t.mgr

module Observe = struct
  let snapshot t = Obs.Registry.snapshot t.obs

  let subscribe t f =
    let sink = Obs.callback_sink f in
    Obs.Registry.attach t.obs sink;
    fun () -> Obs.Registry.detach t.obs sink
end

let create_table t ?size ?indexes ~name schema =
  let table = Catalog.create_table t.cat ?size ?indexes ~name schema in
  Manager.track_table t.mgr table;
  table

let table t name = Catalog.find t.cat name

let with_txn ?isolation t f =
  let txn = Manager.begin_txn ?isolation t.mgr in
  let abort_noting_failure () =
    match Manager.abort t.mgr txn with
    | Ok () -> ()
    | Error e ->
      (* The rollback itself failed — never swallow that silently. *)
      Logs.err (fun m ->
          m "Db.with_txn: abort of txn %d failed: %a" txn Manager.pp_error e)
  in
  match f txn with
  | Ok v ->
    (match Manager.commit t.mgr txn with
     | Ok () -> Ok v
     | Error e ->
       abort_noting_failure ();
       Error e)
  | Error e ->
    abort_noting_failure ();
    Error e

let load t ~table rows =
  with_txn t (fun txn ->
      List.fold_left
        (fun acc row ->
           match acc with
           | Error _ as e -> e
           | Ok () -> Manager.insert t.mgr ~txn ~table row)
        (Ok ()) rows)

let snapshot t name =
  let tbl = table t name in
  Nbsc_relalg.Relalg.make (Table.schema tbl) (Table.to_rows tbl)

let row_count t name = Table.cardinality (table t name)

(* {2 Background jobs}

   The registry of in-flight schema changes (and any other incremental
   background work). Jobs are opaque quantum steppers: each call to the
   closure performs one bounded quantum. The db schedules them
   round-robin so several transformations interleave fairly. *)

let register_job t ?persist ~name ~step () =
  t.jobs <- t.jobs @ [ (name, { j_step = step; j_persist = persist }) ];
  if Obs.Registry.tracing t.obs then
    Obs.point t.obs "job.register" [ ("job", Json.String name) ]

let unregister_job t ~name =
  t.jobs <- List.filter (fun (n, _) -> not (String.equal n name)) t.jobs

let jobs t = List.map fst t.jobs

let job_persists t =
  List.filter_map
    (fun (name, j) ->
       match j.j_persist with
       | Some p -> Some (name, p)
       | None -> None)
    t.jobs

let step_jobs t =
  let snapshot = t.jobs in
  List.map
    (fun (name, job) ->
       let st = job.j_step () in
       (match st with
        | `Done | `Failed _ ->
          (* Most jobs deregister themselves on completion; make sure. *)
          unregister_job t ~name;
          if Obs.Registry.tracing t.obs then
            Obs.point t.obs "job.done"
              [ ("job", Json.String name);
                ("status",
                 Json.String
                   (match st with
                    | `Done -> "done"
                    | `Failed m -> "failed: " ^ m
                    | `Running -> assert false)) ]
        | `Running -> ());
       (name, st))
    snapshot

let run_jobs ?(between = fun () -> ()) ?(max_rounds = max_int) t =
  let rec go rounds =
    if t.jobs = [] then Ok ()
    else if rounds <= 0 then Error "background jobs did not finish"
    else begin
      let results = step_jobs t in
      let failure =
        List.find_map
          (function
            | name, `Failed m -> Some (name ^ ": " ^ m)
            | _, (`Running | `Done) -> None)
          results
      in
      match failure with
      | Some m -> Error m
      | None ->
        between ();
        go (rounds - 1)
    end
  in
  go max_rounds
