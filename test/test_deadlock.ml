(* Tests for engine-level contention handling: the waits-for graph and
   its youngest-in-cycle detection, wait-queue fairness, deadlock cycles
   threading through the extra-lock hook and through transferred locks,
   and a property that resolution leaves the graph acyclic. *)

open Nbsc_value
open Nbsc_storage
open Nbsc_lock
open Nbsc_txn
module H = Helpers

(* Three tables with the same shape: "t" and "u" for ordinary records,
   "tgt" standing in for a transformed table that receives transferred
   locks. *)
let fresh () =
  let cat = Catalog.create () in
  List.iter
    (fun name -> ignore (Catalog.create_table cat ~name H.r_schema))
    [ "t"; "u"; "tgt" ];
  Manager.create cat

let row a = Row.make [ Value.Int a; Value.Text "x"; Value.Int 0 ]
let key a = Row.make [ Value.Int a ]

let seed mgr table keys =
  let txn = Manager.begin_txn mgr in
  List.iter
    (fun k -> H.ok "seed" (Manager.insert mgr ~txn ~table (row k)))
    keys;
  H.ok "seed commit" (Manager.commit mgr txn)

let upd mgr txn table k =
  Manager.update mgr ~txn ~table ~key:(key k) [ (1, Value.Text "y") ]

let no_locks mgr owner =
  Alcotest.(check int) "victim holds nothing" 0
    (List.length (Lock_table.locks_of_owner (Manager.locks mgr) ~owner))

(* {1 Detection: the youngest on a cycle dies} *)

let test_two_txn_cycle () =
  let mgr = fresh () in
  seed mgr "t" [ 1; 2 ];
  let t1 = Manager.begin_txn mgr in
  let t2 = Manager.begin_txn mgr in
  H.ok "t1 k1" (upd mgr t1 "t" 1);
  H.ok "t2 k2" (upd mgr t2 "t" 2);
  (match upd mgr t1 "t" 2 with
   | Error (`Blocked [ o ]) -> Alcotest.(check int) "t1 waits on t2" t2 o
   | _ -> Alcotest.fail "expected Blocked");
  (match upd mgr t2 "t" 1 with
   | Error (`Deadlock cycle) ->
     Alcotest.(check (list int)) "cycle names both" [ t1; t2 ]
       (List.sort compare cycle)
   | Error e -> Alcotest.failf "expected Deadlock, got %a" Manager.pp_error e
   | Ok () -> Alcotest.fail "expected Deadlock");
  Alcotest.(check bool) "sentenced" true (Manager.is_victim mgr t2);
  Alcotest.(check bool) "abort-only" true (Manager.is_abort_only mgr t2);
  H.ok "victim rolls back" (Manager.abort mgr t2);
  Alcotest.(check bool) "graph acyclic" true
    (Wait_graph.acyclic (Manager.wait_graph mgr));
  no_locks mgr t2;
  (* Exactly one victim: the survivor's retry goes through. *)
  H.ok "t1 retries" (upd mgr t1 "t" 2);
  H.ok "t1 commit" (Manager.commit mgr t1);
  let s = Manager.Stats.get mgr in
  Alcotest.(check int) "one deadlock" 1 s.Manager.Stats.deadlocks;
  Alcotest.(check int) "no wounds" 0 s.Manager.Stats.victims

let test_three_txn_cycle () =
  let mgr = fresh () in
  seed mgr "t" [ 1; 2; 3 ];
  let t1 = Manager.begin_txn mgr in
  let t2 = Manager.begin_txn mgr in
  let t3 = Manager.begin_txn mgr in
  H.ok "t1 k1" (upd mgr t1 "t" 1);
  H.ok "t2 k2" (upd mgr t2 "t" 2);
  H.ok "t3 k3" (upd mgr t3 "t" 3);
  (match upd mgr t1 "t" 2 with
   | Error (`Blocked _) -> ()
   | _ -> Alcotest.fail "t1 should wait");
  (match upd mgr t2 "t" 3 with
   | Error (`Blocked _) -> ()
   | _ -> Alcotest.fail "t2 should wait");
  (* t3 -> t1 closes a three-node cycle; t3 is the youngest on it. *)
  (match upd mgr t3 "t" 1 with
   | Error (`Deadlock cycle) ->
     Alcotest.(check (list int)) "cycle names all three" [ t1; t2; t3 ]
       (List.sort compare cycle)
   | _ -> Alcotest.fail "expected Deadlock");
  H.ok "t3 aborts" (Manager.abort mgr t3);
  no_locks mgr t3;
  (* The chain unwinds in order. *)
  H.ok "t2 retry" (upd mgr t2 "t" 3);
  H.ok "t2 commit" (Manager.commit mgr t2);
  H.ok "t1 retry" (upd mgr t1 "t" 2);
  H.ok "t1 commit" (Manager.commit mgr t1);
  Alcotest.(check bool) "acyclic at rest" true
    (Wait_graph.acyclic (Manager.wait_graph mgr))

(* The cycle's youngest member is a holder, not the requester: the
   manager wounds it (rolls it back on the spot) and the requester's
   call goes through. *)
let test_youngest_holder_wounded () =
  let mgr = fresh () in
  seed mgr "t" [ 1; 2 ];
  let t1 = Manager.begin_txn mgr in
  let t2 = Manager.begin_txn mgr in
  H.ok "t1 k1" (upd mgr t1 "t" 1);
  H.ok "t2 k2" (upd mgr t2 "t" 2);
  (match upd mgr t2 "t" 1 with
   | Error (`Blocked [ o ]) -> Alcotest.(check int) "t2 waits on t1" t1 o
   | _ -> Alcotest.fail "expected Blocked");
  H.ok "t1 wounds t2 and takes k2" (upd mgr t1 "t" 2);
  Alcotest.(check bool) "t2 rolled back" true
    (Manager.status mgr t2 = Manager.Aborted);
  Alcotest.(check bool) "t2 flagged victim" true (Manager.is_victim mgr t2);
  no_locks mgr t2;
  Alcotest.(check bool) "graph acyclic" true
    (Wait_graph.acyclic (Manager.wait_graph mgr));
  H.ok "t1 commit" (Manager.commit mgr t1);
  let s = Manager.Stats.get mgr in
  Alcotest.(check int) "no Die verdict" 0 s.Manager.Stats.deadlocks;
  Alcotest.(check int) "one wound" 1 s.Manager.Stats.victims

(* {1 Cycles through the synchronization machinery} *)

(* The non-blocking-commit hook turns each lock request into an atomic
   multi-resource set; wait registration must cover the whole set, so a
   cycle threading through a hook-acquired lock is still found. *)
let test_cycle_through_lock_hook () =
  let mgr = fresh () in
  seed mgr "t" [ 1 ];
  seed mgr "u" [ 1; 2 ];
  Manager.intercept mgr ~id:1
    { Manager.empty_interceptor with
      extra_locks =
        Some
          (fun ~txn:_ ~table ~key ~mode ->
             if table = "t" then
               [ { Lock_table_many.table = "u"; key;
                   lock = { Compat.mode; provenance = Compat.Native } } ]
             else []) };
  let t1 = Manager.begin_txn mgr in
  let t2 = Manager.begin_txn mgr in
  (* t1's update of t.1 atomically also locks u.1 through the hook. *)
  H.ok "t1 t.1 (+u.1)" (upd mgr t1 "t" 1);
  Alcotest.(check bool) "hook lock granted" true
    (Lock_table.holds_any (Manager.locks mgr) ~owner:t1 ~table:"u"
       ~key:(key 1));
  H.ok "t2 u.2" (upd mgr t2 "u" 2);
  (match upd mgr t1 "u" 2 with
   | Error (`Blocked _) -> ()
   | _ -> Alcotest.fail "t1 waits on t2");
  (* t2 requests the record t1 holds only through the hook. *)
  (match upd mgr t2 "u" 1 with
   | Error (`Deadlock cycle) ->
     Alcotest.(check (list int)) "cycle through the hook lock" [ t1; t2 ]
       (List.sort compare cycle)
   | _ -> Alcotest.fail "expected Deadlock");
  H.ok "t2 aborts" (Manager.abort mgr t2);
  H.ok "t1 retry" (upd mgr t1 "u" 2);
  H.ok "t1 commit" (Manager.commit mgr t1)

(* During non-blocking commit, locks on a source record extend to the
   transformed table with [Source] provenance (Fig. 2). A native
   request hitting such a transferred lock must enter the waits-for
   graph like any other conflict, or two-schema cycles go undetected. *)
let test_cycle_through_transferred_lock () =
  let mgr = fresh () in
  seed mgr "t" [ 1 ];
  seed mgr "u" [ 5 ];
  seed mgr "tgt" [ 1 ];
  Manager.intercept mgr ~id:1
    { Manager.empty_interceptor with
      extra_locks =
        Some
          (fun ~txn:_ ~table ~key ~mode ->
             if table = "t" then
               [ { Lock_table_many.table = "tgt"; key;
                   lock = { Compat.mode; provenance = Compat.Source 0 } } ]
             else []) };
  let t1 = Manager.begin_txn mgr in
  let t2 = Manager.begin_txn mgr in
  H.ok "t1 t.1 (+transferred tgt.1)" (upd mgr t1 "t" 1);
  H.ok "t2 u.5" (upd mgr t2 "u" 5);
  (match upd mgr t1 "u" 5 with
   | Error (`Blocked _) -> ()
   | _ -> Alcotest.fail "t1 waits on t2");
  (* t2's native X on tgt.1 conflicts with t1's transferred X there —
     the Fig. 2 native-vs-transferred cell — closing the cycle. *)
  (match upd mgr t2 "tgt" 1 with
   | Error (`Deadlock cycle) ->
     Alcotest.(check (list int)) "cycle closed by the transferred lock"
       [ t1; t2 ] (List.sort compare cycle)
   | _ -> Alcotest.fail "expected Deadlock");
  H.ok "t2 aborts" (Manager.abort mgr t2);
  H.ok "t1 retry" (upd mgr t1 "u" 5);
  H.ok "t1 commit" (Manager.commit mgr t1)

(* {1 Wait-queue fairness} *)

let test_no_barging_past_the_queue () =
  let mgr = fresh () in
  seed mgr "t" [ 1 ];
  let t1 = Manager.begin_txn mgr in
  let t2 = Manager.begin_txn mgr in
  let t3 = Manager.begin_txn mgr in
  H.ok "t1 k1" (upd mgr t1 "t" 1);
  (match upd mgr t2 "t" 1 with
   | Error (`Blocked _) -> ()
   | _ -> Alcotest.fail "t2 queues");
  (match upd mgr t3 "t" 1 with
   | Error (`Blocked owners) ->
     Alcotest.(check bool) "t3 told to wait behind t2" true
       (List.mem t2 owners)
   | _ -> Alcotest.fail "t3 queues");
  H.ok "t1 commit" (Manager.commit mgr t1);
  (* The lock is free, but t2 queued first: t3 must still wait. *)
  (match upd mgr t3 "t" 1 with
   | Error (`Blocked owners) ->
     Alcotest.(check (list int)) "held back for t2" [ t2 ] owners
   | _ -> Alcotest.fail "no barging past t2");
  H.ok "t2 takes its turn" (upd mgr t2 "t" 1);
  H.ok "t2 commit" (Manager.commit mgr t2);
  H.ok "t3 last" (upd mgr t3 "t" 1);
  H.ok "t3 commit" (Manager.commit mgr t3)

(* {1 Properties} *)

(* Whatever the schedule: the waits-for graph is acyclic after every
   resolution, a sentenced transaction releases every lock on abort,
   and nothing is left waiting once all transactions end. *)
let arb_schedule =
  QCheck.(list_of_size Gen.(int_bound 120) (pair (int_bound 3) (int_bound 5)))

let prop_resolution_invariants =
  QCheck.Test.make ~name:"acyclic after resolution; victims disarmed"
    ~count:100 arb_schedule
    (fun schedule ->
       let mgr = fresh () in
       seed mgr "t" [ 0; 1; 2; 3; 4; 5 ];
       let g = Manager.wait_graph mgr in
       let locks = Manager.locks mgr in
       let txns = Array.make 4 None in
       let get_txn i =
         match txns.(i) with
         | Some t when Manager.is_active mgr t -> t
         | _ ->
           let t = Manager.begin_txn mgr in
           txns.(i) <- Some t;
           t
       in
       let holds = ref true in
       let check_acyclic () =
         if not (Wait_graph.acyclic g) then holds := false
       in
       List.iter
         (fun (i, k) ->
            let txn = get_txn i in
            (match upd mgr txn "t" k with
             | Ok () | Error (`Blocked _) -> ()
             | Error (`Deadlock _) | Error `Abort_only ->
               ignore (Manager.abort mgr txn);
               if Lock_table.locks_of_owner locks ~owner:txn <> [] then
                 holds := false
             | Error _ -> ignore (Manager.abort mgr txn));
            check_acyclic ())
         schedule;
       Array.iter
         (function
           | Some t when Manager.is_active mgr t ->
             ignore (Manager.commit mgr t)
           | _ -> ())
         txns;
       check_acyclic ();
       !holds && Wait_graph.waiters g = [])

let () =
  Alcotest.run "deadlock"
    [ ( "detection",
        [ Alcotest.test_case "two-txn cycle" `Quick test_two_txn_cycle;
          Alcotest.test_case "three-txn cycle" `Quick test_three_txn_cycle;
          Alcotest.test_case "youngest holder wounded" `Quick
            test_youngest_holder_wounded ] );
      ( "synchronization locks",
        [ Alcotest.test_case "cycle through the lock hook" `Quick
            test_cycle_through_lock_hook;
          Alcotest.test_case "cycle through a transferred lock" `Quick
            test_cycle_through_transferred_lock ] );
      ( "fairness",
        [ Alcotest.test_case "no barging past the queue" `Quick
            test_no_barging_past_the_queue ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_resolution_invariants ] ) ]
