(* Tests for the lock manager: compatibility (incl. the paper's
   Figure 2 matrix), the record-lock table, atomic multi-acquisition,
   and table latches. *)

open Nbsc_value
open Nbsc_lock

let native m = { Compat.mode = m; provenance = Compat.Native }
let source i m = { Compat.mode = m; provenance = Compat.Source i }
let k i = Row.make [ Value.Int i ]

(* {1 Compatibility} *)

let test_standard_matrix () =
  Alcotest.(check bool) "S/S" true (Compat.standard Compat.S Compat.S);
  Alcotest.(check bool) "S/X" false (Compat.standard Compat.S Compat.X);
  Alcotest.(check bool) "X/S" false (Compat.standard Compat.X Compat.S);
  Alcotest.(check bool) "X/X" false (Compat.standard Compat.X Compat.X)

let test_figure2_exact () =
  (* Row-major matrix as printed in the paper. *)
  let expected =
    [ [ true; true; true; true; true; false ];
      [ true; true; true; true; true; false ];
      [ true; true; true; false; false; false ];
      [ true; true; false; true; true; false ];
      [ true; true; false; true; true; false ];
      [ false; false; false; false; false; false ] ]
  in
  Alcotest.(check bool) "all 36 cells" true (Compat.figure2_cells () = expected)

let test_figure2_symmetric () =
  let cells = Compat.figure2_cells () in
  List.iteri
    (fun i row ->
       List.iteri
         (fun j cell ->
            Alcotest.(check bool)
              (Printf.sprintf "cell %d,%d symmetric" i j)
              cell
              (List.nth (List.nth cells j) i))
         row)
    cells

let test_transferred_always_compatible () =
  (* Locks transferred from different sources never conflict, whatever
     their modes — their conflicts were resolved at the source. *)
  List.iter
    (fun (a, b) ->
       Alcotest.(check bool) "source vs source" true (Compat.compatible a b))
    [ (source 0 Compat.X, source 1 Compat.X);
      (source 0 Compat.X, source 0 Compat.X);
      (source 1 Compat.S, source 0 Compat.X);
      (source 5 Compat.X, source 9 Compat.X) ]

(* {1 Lock table} *)

let test_grant_conflict () =
  let t = Lock_table.create () in
  Alcotest.(check bool) "first X granted" true
    (Lock_table.acquire t ~owner:1 ~table:"a" ~key:(k 1) (native Compat.X)
     = Lock_table.Granted);
  (match Lock_table.acquire t ~owner:2 ~table:"a" ~key:(k 1) (native Compat.X) with
   | Lock_table.Blocked [ 1 ] -> ()
   | _ -> Alcotest.fail "expected Blocked [1]");
  (* Different key, no conflict. *)
  Alcotest.(check bool) "other key" true
    (Lock_table.acquire t ~owner:2 ~table:"a" ~key:(k 2) (native Compat.X)
     = Lock_table.Granted);
  (* Different table, same key, no conflict. *)
  Alcotest.(check bool) "other table" true
    (Lock_table.acquire t ~owner:2 ~table:"b" ~key:(k 1) (native Compat.X)
     = Lock_table.Granted)

let test_shared_then_upgrade () =
  let t = Lock_table.create () in
  ignore (Lock_table.acquire t ~owner:1 ~table:"a" ~key:(k 1) (native Compat.S));
  ignore (Lock_table.acquire t ~owner:2 ~table:"a" ~key:(k 1) (native Compat.S));
  (* Upgrade blocked by the other reader. *)
  (match Lock_table.acquire t ~owner:1 ~table:"a" ~key:(k 1) (native Compat.X) with
   | Lock_table.Blocked [ 2 ] -> ()
   | _ -> Alcotest.fail "upgrade should block on owner 2");
  Lock_table.release t ~owner:2 ~table:"a" ~key:(k 1);
  Alcotest.(check bool) "upgrade after release" true
    (Lock_table.acquire t ~owner:1 ~table:"a" ~key:(k 1) (native Compat.X)
     = Lock_table.Granted);
  Alcotest.(check bool) "holds X" true
    (Lock_table.holds t ~owner:1 ~table:"a" ~key:(k 1) (native Compat.X));
  Alcotest.(check bool) "X implies S" true
    (Lock_table.holds t ~owner:1 ~table:"a" ~key:(k 1) (native Compat.S))

let test_reentrant () =
  let t = Lock_table.create () in
  ignore (Lock_table.acquire t ~owner:1 ~table:"a" ~key:(k 1) (native Compat.X));
  Alcotest.(check bool) "re-acquire X" true
    (Lock_table.acquire t ~owner:1 ~table:"a" ~key:(k 1) (native Compat.X)
     = Lock_table.Granted);
  Alcotest.(check bool) "weaker S is no-op" true
    (Lock_table.acquire t ~owner:1 ~table:"a" ~key:(k 1) (native Compat.S)
     = Lock_table.Granted);
  Alcotest.(check int) "one lock" 1 (Lock_table.count t)

let test_release_owner () =
  let t = Lock_table.create () in
  ignore (Lock_table.acquire t ~owner:1 ~table:"a" ~key:(k 1) (native Compat.X));
  ignore (Lock_table.acquire t ~owner:1 ~table:"b" ~key:(k 2) (native Compat.S));
  ignore (Lock_table.acquire t ~owner:2 ~table:"a" ~key:(k 3) (native Compat.X));
  Lock_table.release_owner t ~owner:1;
  Alcotest.(check int) "only owner 2 left" 1 (Lock_table.count t);
  Alcotest.(check (list string)) "owner 1 has nothing" []
    (List.map (fun (t, _, _) -> t) (Lock_table.locks_of_owner t ~owner:1))

let test_release_owner_where () =
  let t = Lock_table.create () in
  ignore (Lock_table.acquire t ~owner:1 ~table:"T" ~key:(k 1) (source 0 Compat.X));
  ignore (Lock_table.acquire t ~owner:1 ~table:"R" ~key:(k 1) (native Compat.X));
  (* Release only the transferred lock on T (what the propagator does on
     a commit record). *)
  Lock_table.release_owner_where t ~owner:1 (fun ~table ~lock ->
      table = "T" && lock.Compat.provenance <> Compat.Native);
  Alcotest.(check int) "native lock survives" 1 (Lock_table.count t);
  Alcotest.(check bool) "still holds R lock" true
    (Lock_table.holds t ~owner:1 ~table:"R" ~key:(k 1) (native Compat.X));
  (* The bookkeeping still releases the remaining lock wholesale. *)
  Lock_table.release_owner t ~owner:1;
  Alcotest.(check int) "empty" 0 (Lock_table.count t)

let test_transfer_unconditional () =
  let t = Lock_table.create () in
  ignore (Lock_table.acquire t ~owner:1 ~table:"T" ~key:(k 1) (native Compat.X));
  (* A transfer succeeds even against a conflicting native lock. *)
  Alcotest.(check bool) "adds coverage" true
    (Lock_table.transfer t ~owner:2 ~table:"T" ~key:(k 1) (source 0 Compat.X));
  (* Re-transferring the same lock adds nothing. *)
  Alcotest.(check bool) "idempotent" false
    (Lock_table.transfer t ~owner:2 ~table:"T" ~key:(k 1) (source 0 Compat.X));
  Alcotest.(check int) "both present" 2
    (List.length (Lock_table.holders t ~table:"T" ~key:(k 1)))

let test_figure2_through_table () =
  (* End-to-end through the lock table: transferred locks from R and S
     coexist on the same T record; a native writer is shut out until
     they are released. *)
  let t = Lock_table.create () in
  ignore (Lock_table.acquire t ~owner:1 ~table:"T" ~key:(k 9) (source 0 Compat.X));
  Alcotest.(check bool) "S-transferred write joins" true
    (Lock_table.acquire t ~owner:2 ~table:"T" ~key:(k 9) (source 1 Compat.X)
     = Lock_table.Granted);
  (match Lock_table.acquire t ~owner:3 ~table:"T" ~key:(k 9) (native Compat.S) with
   | Lock_table.Blocked owners ->
     Alcotest.(check (list int)) "blocked by both" [ 1; 2 ]
       (List.sort compare owners)
   | Lock_table.Granted -> Alcotest.fail "native read must block");
  Lock_table.release_owner t ~owner:1;
  Lock_table.release_owner t ~owner:2;
  Alcotest.(check bool) "native read after releases" true
    (Lock_table.acquire t ~owner:3 ~table:"T" ~key:(k 9) (native Compat.S)
     = Lock_table.Granted)

let test_acquire_all_atomic () =
  let t = Lock_table.create () in
  ignore (Lock_table.acquire t ~owner:9 ~table:"b" ~key:(k 2) (native Compat.X));
  let requests =
    [ { Lock_table_many.table = "a"; key = k 1; lock = native Compat.X };
      { Lock_table_many.table = "b"; key = k 2; lock = native Compat.X } ]
  in
  (match Lock_table_many.acquire_all t ~owner:1 requests with
   | Lock_table.Blocked [ 9 ] -> ()
   | _ -> Alcotest.fail "expected Blocked [9]");
  (* Nothing was granted — atomicity. *)
  Alcotest.(check (list string)) "no partial grant" []
    (List.map (fun (t, _, _) -> t) (Lock_table.locks_of_owner t ~owner:1));
  Lock_table.release_owner t ~owner:9;
  Alcotest.(check bool) "now granted" true
    (Lock_table_many.acquire_all t ~owner:1 requests = Lock_table.Granted);
  Alcotest.(check int) "both held" 2
    (List.length (Lock_table.locks_of_owner t ~owner:1))

let test_locked_resources () =
  let t = Lock_table.create () in
  ignore (Lock_table.acquire t ~owner:1 ~table:"a" ~key:(k 1) (native Compat.X));
  ignore (Lock_table.acquire t ~owner:2 ~table:"a" ~key:(k 2) (native Compat.S));
  ignore (Lock_table.acquire t ~owner:3 ~table:"b" ~key:(k 3) (native Compat.X));
  Alcotest.(check int) "two on a" 2
    (List.length (Lock_table.locked_resources t ~table:"a"));
  Alcotest.(check int) "one on b" 1
    (List.length (Lock_table.locked_resources t ~table:"b"))

(* {1 Latches} *)

let test_latches () =
  let t = Latch.create () in
  Alcotest.(check bool) "acquire" true (Latch.try_latch t ~holder:1 ~table:"x");
  Alcotest.(check bool) "reentrant" true (Latch.try_latch t ~holder:1 ~table:"x");
  Alcotest.(check bool) "other holder fails" false
    (Latch.try_latch t ~holder:2 ~table:"x");
  Alcotest.(check bool) "latched" true (Latch.is_latched t ~table:"x");
  Alcotest.(check bool) "holder" true (Latch.latched_by t ~table:"x" = Some 1);
  Alcotest.(check (list string)) "tables of holder" [ "x" ]
    (Latch.latched_tables t ~holder:1);
  Latch.unlatch t ~holder:1 ~table:"x";
  Alcotest.(check bool) "free again" true (Latch.try_latch t ~holder:2 ~table:"x");
  Alcotest.check_raises "wrong holder unlatch" (Invalid_argument "")
    (fun () ->
       try Latch.unlatch t ~holder:1 ~table:"x"
       with Invalid_argument _ -> raise (Invalid_argument ""))

let test_latch_all_or_none () =
  let t = Latch.create () in
  Alcotest.(check bool) "y held by 2" true
    (Latch.try_latch t ~holder:2 ~table:"y");
  Alcotest.(check bool) "w already held by 1" true
    (Latch.try_latch t ~holder:1 ~table:"w");
  Alcotest.(check bool) "blocked set fails" false
    (Latch.try_latch_all t ~holder:1 [ "x"; "w"; "y"; "z" ]);
  Alcotest.(check bool) "x backed out" false (Latch.is_latched t ~table:"x");
  Alcotest.(check bool) "z never taken" false (Latch.is_latched t ~table:"z");
  Alcotest.(check bool) "prior latch survives the backout" true
    (Latch.latched_by t ~table:"w" = Some 1);
  Latch.unlatch t ~holder:2 ~table:"y";
  Alcotest.(check bool) "free set succeeds" true
    (Latch.try_latch_all t ~holder:1 [ "x"; "w"; "y"; "x" ]);
  Alcotest.(check (list string)) "all held" [ "w"; "x"; "y" ]
    (List.sort String.compare (Latch.latched_tables t ~holder:1))

let test_acquire_all_backout () =
  let t = Lock_table.create () in
  let req table i lock = { Lock_table_many.table; key = k i; lock } in
  (match
     Lock_table_many.acquire_all t ~owner:1
       [ req "T" 1 (native Compat.X); req "U" 2 (native Compat.S) ]
   with
   | Lock_table.Granted -> ()
   | Lock_table.Blocked _ -> Alcotest.fail "free resources should grant");
  Alcotest.(check bool) "holds T/1" true
    (Lock_table.holds_any t ~owner:1 ~table:"T" ~key:(k 1));
  (* conflicting set: blocked with the owner named, nothing granted *)
  (match
     Lock_table_many.acquire_all t ~owner:2
       [ req "U" 9 (native Compat.X); req "T" 1 (native Compat.X) ]
   with
   | Lock_table.Blocked [ 1 ] -> ()
   | Lock_table.Blocked _ -> Alcotest.fail "expected owner 1 as blocker"
   | Lock_table.Granted -> Alcotest.fail "conflicting set must block");
  Alcotest.(check bool) "nothing granted on a blocked set" false
    (Lock_table.holds_any t ~owner:2 ~table:"U" ~key:(k 9));
  (* locks held before a blocked call survive it *)
  (match Lock_table_many.acquire_all t ~owner:2 [ req "V" 5 (native Compat.X) ] with
   | Lock_table.Granted -> ()
   | Lock_table.Blocked _ -> Alcotest.fail "V/5 is free");
  (match
     Lock_table_many.acquire_all t ~owner:2
       [ req "V" 5 (native Compat.X); req "T" 1 (native Compat.S) ]
   with
   | Lock_table.Blocked _ -> ()
   | Lock_table.Granted -> Alcotest.fail "T/1 is exclusively held by 1");
  Alcotest.(check bool) "previously-held V/5 survives the backout" true
    (Lock_table.holds_any t ~owner:2 ~table:"V" ~key:(k 5))

(* {1 Properties} *)

let arb_lock =
  QCheck.make
    QCheck.Gen.(
      map2
        (fun m p ->
           { Compat.mode = (if m then Compat.S else Compat.X);
             provenance = (match p with 0 -> Compat.Native | i -> Compat.Source i) })
        bool (int_bound 3))

let prop_compat_symmetric =
  QCheck.Test.make ~name:"compatibility is symmetric" ~count:500
    (QCheck.pair arb_lock arb_lock)
    (fun (a, b) -> Compat.compatible a b = Compat.compatible b a)

let prop_acquire_release_invariant =
  (* After any sequence of acquires and releases, count equals the
     number of (owner, resource, provenance) triples still held. *)
  QCheck.Test.make ~name:"lock count is consistent" ~count:200
    QCheck.(list_of_size Gen.(int_bound 60)
              (triple (int_bound 4) (int_bound 6) bool))
    (fun ops ->
       let t = Lock_table.create () in
       let held = Hashtbl.create 16 in
       List.iter
         (fun (owner, key_i, is_release) ->
            let key = k key_i in
            if is_release then begin
              Lock_table.release t ~owner ~table:"t" ~key;
              Hashtbl.remove held (owner, key_i)
            end
            else
              match
                Lock_table.acquire t ~owner ~table:"t" ~key (native Compat.X)
              with
              | Lock_table.Granted -> Hashtbl.replace held (owner, key_i) ()
              | Lock_table.Blocked _ -> ())
         ops;
       Lock_table.count t = Hashtbl.length held)

(* {2 The lock table against a reference model}

   A plain list of grants with the table's documented semantics: a
   request is blocked by the distinct other owners whose grants
   conflict with it; a grant replaces the owner's grant of the same
   provenance on the resource unless that one is at least as strong;
   releases drop grants. Every step of a random sequence is checked
   against it through the public API only. *)

type step =
  | Acquire of int * string * int * Compat.lock
  | Transfer of int * string * int * Compat.lock
  | Release of int * string * int
  | Release_owner of int
  | Release_sources of int * string
      (** [release_owner_where]: the owner's Source locks on one table *)
  | Acquire_all of int * (string * int * Compat.lock) list

(* What a step returns: an acquire's outcome, or whether a transfer
   added coverage. *)
type result = Outcome of Lock_table.outcome | Grew of bool | Nothing

let model_owners = [ 1; 2; 3 ]
let model_tables = [ "a"; "b" ]
let model_keys = [ 0; 1; 2 ]

let model_locks =
  List.concat_map
    (fun m -> [ native m; source 0 m; source 1 m ])
    [ Compat.S; Compat.X ]

let pp_request (t, i, l) = Format.asprintf "%s/%d %a" t i Compat.pp_lock l

let pp_step = function
  | Acquire (o, t, i, l) ->
    Printf.sprintf "acquire %d %s" o (pp_request (t, i, l))
  | Transfer (o, t, i, l) ->
    Printf.sprintf "transfer %d %s" o (pp_request (t, i, l))
  | Release (o, t, i) -> Printf.sprintf "release %d %s/%d" o t i
  | Release_owner o -> Printf.sprintf "release_owner %d" o
  | Release_sources (o, t) ->
    Printf.sprintf "release_owner_where %d (sources on %s)" o t
  | Acquire_all (o, rs) ->
    Printf.sprintf "acquire_all %d [%s]" o
      (String.concat "; " (List.map pp_request rs))

let gen_steps =
  let open QCheck.Gen in
  let owner = oneofl model_owners and table = oneofl model_tables in
  let key = oneofl model_keys and lock = oneofl model_locks in
  let single =
    frequency
      [ (5, map4 (fun o t i l -> Acquire (o, t, i, l)) owner table key lock);
        (2, map4 (fun o t i l -> Transfer (o, t, i, l)) owner table key lock);
        (2, map3 (fun o t i -> Release (o, t, i)) owner table key);
        (1, map (fun o -> Release_owner o) owner);
        (1, map2 (fun o t -> Release_sources (o, t)) owner table);
        (2, map2 (fun o rs -> Acquire_all (o, rs)) owner
              (list_size (int_range 1 3) (triple table key lock))) ]
  in
  (* Scripted runs: release-then-reacquire of a held resource, and a
     second provenance on a resource the owner already holds. *)
  let reacquire =
    map4
      (fun o t i (l, l') ->
         [ Acquire (o, t, i, l); Release (o, t, i); Acquire (o, t, i, l') ])
      owner table key (pair lock lock)
  in
  let other_provenance (l : Compat.lock) =
    oneofl
      (List.filter
         (fun (l' : Compat.lock) -> l'.provenance <> l.provenance)
         model_locks)
  in
  let second_provenance =
    map4
      (fun o t i (l, l') -> [ Acquire (o, t, i, l); Acquire (o, t, i, l') ])
      owner table key
      (lock >>= fun l -> map (fun l' -> (l, l')) (other_provenance l))
  in
  map List.concat
    (list_size (int_range 1 25)
       (frequency
          [ (6, map (fun s -> [ s ]) single);
            (1, reacquire);
            (1, second_provenance) ]))

let arb_steps =
  QCheck.make ~shrink:QCheck.Shrink.list
    ~print:(fun steps -> String.concat "\n" (List.map pp_step steps))
    gen_steps

(* The model: grants as (owner, table, key, lock), newest first. *)
let model_on grants table key =
  List.filter_map
    (fun (o, t, i, l) -> if t = table && i = key then Some (o, l) else None)
    grants

let model_blocked grants owner (table, key, lock) =
  List.filter_map
    (fun (o, held) ->
       if o <> owner && not (Compat.compatible held lock) then Some o else None)
    (model_on grants table key)

let model_stronger (a : Compat.mode) (b : Compat.mode) =
  a = Compat.X || b = Compat.S

(* Grant [lock]; [Grew false] when a grant of its provenance at least
   as strong was already held. *)
let model_put grants owner (table, key, (lock : Compat.lock)) =
  let same (o, t, i, (l : Compat.lock)) =
    o = owner && t = table && i = key && l.provenance = lock.provenance
  in
  match List.find_opt same grants with
  | Some (_, _, _, held) when model_stronger held.mode lock.mode ->
    (grants, false)
  | Some _ ->
    ( List.map (fun g -> if same g then (owner, table, key, lock) else g) grants,
      true )
  | None -> ((owner, table, key, lock) :: grants, true)

(* An all-or-nothing acquire of [requests]. *)
let model_acquire grants owner requests =
  match List.concat_map (model_blocked grants owner) requests with
  | [] ->
    ( List.fold_left (fun g r -> fst (model_put g owner r)) grants requests,
      Outcome Lock_table.Granted )
  | owners ->
    (grants, Outcome (Lock_table.Blocked (List.sort_uniq Int.compare owners)))

let model_step grants = function
  | Acquire (o, t, i, l) -> model_acquire grants o [ (t, i, l) ]
  | Acquire_all (o, rs) -> model_acquire grants o rs
  | Transfer (o, t, i, l) ->
    let grants, grew = model_put grants o (t, i, l) in
    (grants, Grew grew)
  | Release (o, t, i) ->
    ( List.filter
        (fun (o', t', i', _) -> not (o' = o && t' = t && i' = i))
        grants,
      Nothing )
  | Release_owner o -> (List.filter (fun (o', _, _, _) -> o' <> o) grants, Nothing)
  | Release_sources (o, t) ->
    ( List.filter
        (fun (o', t', _, (l : Compat.lock)) ->
           not (o' = o && t' = t && l.provenance <> Compat.Native))
        grants,
      Nothing )

let real_step lt = function
  | Acquire (o, t, i, l) ->
    Outcome (Lock_table.acquire lt ~owner:o ~table:t ~key:(k i) l)
  | Acquire_all (o, rs) ->
    Outcome
      (Lock_table_many.acquire_all lt ~owner:o
         (List.map
            (fun (t, i, l) -> { Lock_table_many.table = t; key = k i; lock = l })
            rs))
  | Transfer (o, t, i, l) ->
    Grew (Lock_table.transfer lt ~owner:o ~table:t ~key:(k i) l)
  | Release (o, t, i) ->
    Lock_table.release lt ~owner:o ~table:t ~key:(k i);
    Nothing
  | Release_owner o ->
    Lock_table.release_owner lt ~owner:o;
    Nothing
  | Release_sources (o, t) ->
    Lock_table.release_owner_where lt ~owner:o (fun ~table ~lock ->
        String.equal table t && lock.Compat.provenance <> Compat.Native);
    Nothing

(* [holders], [holds_any] and [holds] of every resource, sorted
   [locks_of_owner] of every owner, and [count]. *)
let agrees lt grants =
  let on_resource (t, i) =
    let model = model_on grants t i in
    let holds o (l : Compat.lock) =
      List.exists
        (fun (o', (held : Compat.lock)) ->
           o' = o && held.provenance = l.provenance
           && model_stronger held.mode l.mode)
        model
    in
    List.sort compare (Lock_table.holders lt ~table:t ~key:(k i))
    = List.sort compare model
    && List.for_all
         (fun o ->
            Lock_table.holds_any lt ~owner:o ~table:t ~key:(k i)
            = List.exists (fun (o', _) -> o' = o) model
            && List.for_all
                 (fun l ->
                    Lock_table.holds lt ~owner:o ~table:t ~key:(k i) l
                    = holds o l)
                 model_locks)
         model_owners
  in
  let of_owner o =
    List.sort compare (Lock_table.locks_of_owner lt ~owner:o)
    = List.sort compare
        (List.filter_map
           (fun (o', t, i, l) -> if o' = o then Some (t, k i, l) else None)
           grants)
  in
  List.for_all on_resource
    (List.concat_map (fun t -> List.map (fun i -> (t, i)) model_keys) model_tables)
  && List.for_all of_owner model_owners
  && Lock_table.count lt = List.length grants

let prop_matches_model =
  QCheck.Test.make ~name:"lock table matches the reference model" ~count:300
    arb_steps (fun steps ->
        let lt = Lock_table.create () in
        let rec run grants i = function
          | [] -> true
          | step :: rest ->
            let grants, want = model_step grants step in
            if real_step lt step <> want then
              QCheck.Test.fail_reportf "step %d (%s): result differs" i
                (pp_step step)
            else if not (agrees lt grants) then
              QCheck.Test.fail_reportf "step %d (%s): table differs from model"
                i (pp_step step)
            else run grants (i + 1) rest
        in
        run [] 0 steps)

let () =
  Alcotest.run "lock"
    [ ( "compat",
        [ Alcotest.test_case "standard S/X" `Quick test_standard_matrix;
          Alcotest.test_case "figure 2 exact" `Quick test_figure2_exact;
          Alcotest.test_case "figure 2 symmetric" `Quick test_figure2_symmetric;
          Alcotest.test_case "transferred compatible" `Quick
            test_transferred_always_compatible ] );
      ( "table",
        [ Alcotest.test_case "grant and conflict" `Quick test_grant_conflict;
          Alcotest.test_case "shared + upgrade" `Quick test_shared_then_upgrade;
          Alcotest.test_case "reentrant" `Quick test_reentrant;
          Alcotest.test_case "release owner" `Quick test_release_owner;
          Alcotest.test_case "selective release" `Quick test_release_owner_where;
          Alcotest.test_case "unconditional transfer" `Quick
            test_transfer_unconditional;
          Alcotest.test_case "figure 2 end-to-end" `Quick
            test_figure2_through_table;
          Alcotest.test_case "atomic multi-acquire" `Quick
            test_acquire_all_atomic;
          Alcotest.test_case "locked resources" `Quick test_locked_resources ] );
      ( "latch",
        [ Alcotest.test_case "latches" `Quick test_latches;
          Alcotest.test_case "all or none" `Quick test_latch_all_or_none ] );
      ( "locks",
        [ Alcotest.test_case "acquire_all backout" `Quick
            test_acquire_all_backout ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_compat_symmetric; prop_acquire_release_invariant;
            prop_matches_model ] ) ]
