(* Tests for the engine facade and ARIES-light recovery: the log must
   be complete enough to rebuild the database from scratch. *)

open Nbsc_value
open Nbsc_storage
open Nbsc_txn
open Nbsc_engine
module H = Helpers

let row a b c = Row.make [ Value.Int a; Value.Text b; Value.Int c ]
let key a = Row.make [ Value.Int a ]

let defs = [ Recovery.table_def "t" H.r_schema ]

let fresh () =
  let db = Db.create () in
  ignore (Db.create_table db ~name:"t" H.r_schema);
  db

let table_image t =
  Table.fold t ~init:[] ~f:(fun acc _ r -> r.Record.row :: acc)
  |> List.sort Row.compare

let check_recovered db =
  let recovered, _report = Recovery.recover ~table_defs:defs (Db.log db) in
  let live = table_image (Db.table db "t") in
  let rec_t = table_image (Catalog.find recovered "t") in
  Alcotest.(check int) "same cardinality" (List.length live) (List.length rec_t);
  List.iter2
    (fun a b ->
       Alcotest.(check bool) "same row" true (Row.equal a b))
    live rec_t

let test_committed_survive () =
  let db = fresh () in
  H.ok "load" (Db.load db ~table:"t" [ row 1 "a" 1; row 2 "b" 2 ]);
  check_recovered db

let test_losers_rolled_back () =
  let db = fresh () in
  let mgr = Db.manager db in
  H.ok "load" (Db.load db ~table:"t" [ row 1 "a" 1 ]);
  (* A transaction that never finishes — the crash victim. *)
  let loser = Manager.begin_txn mgr in
  H.ok "loser insert" (Manager.insert mgr ~txn:loser ~table:"t" (row 2 "ghost" 2));
  H.ok "loser update"
    (Manager.update mgr ~txn:loser ~table:"t" ~key:(key 1)
       [ (1, Value.Text "ghost") ]);
  let recovered, report = Recovery.recover ~table_defs:defs (Db.log db) in
  Alcotest.(check (list int)) "loser detected" [ loser ] report.Recovery.losers;
  let t = Catalog.find recovered "t" in
  Alcotest.(check int) "ghost insert gone" 1 (Table.cardinality t);
  let r = Option.get (Table.find t (key 1)) in
  Alcotest.(check bool) "ghost update undone" true
    (Value.equal (Row.get r.Record.row 1) (Value.Text "a"))

let test_aborted_txn_replays_clean () =
  let db = fresh () in
  let mgr = Db.manager db in
  H.ok "load" (Db.load db ~table:"t" [ row 1 "a" 1 ]);
  let txn = Manager.begin_txn mgr in
  H.ok "i" (Manager.insert mgr ~txn ~table:"t" (row 2 "x" 2));
  H.ok "u" (Manager.update mgr ~txn ~table:"t" ~key:(key 1) [ (1, Value.Text "y") ]);
  H.ok "a" (Manager.abort mgr txn);
  (* The abort is complete in the log (CLRs + Abort_done): recovery
     replays history and must reach the same state with no losers. *)
  let _, report = Recovery.recover ~table_defs:defs (Db.log db) in
  Alcotest.(check (list int)) "no losers" [] report.Recovery.losers;
  check_recovered db

let test_mid_abort_crash () =
  (* Simulate a crash in the middle of a rollback by replaying a
     truncated log: Begin, 2 ops, Abort_begin, 1 CLR — no Abort_done. *)
  let db = fresh () in
  let mgr = Db.manager db in
  H.ok "load" (Db.load db ~table:"t" [ row 1 "a" 1 ]);
  let txn = Manager.begin_txn mgr in
  H.ok "i" (Manager.insert mgr ~txn ~table:"t" (row 2 "x" 2));
  H.ok "u" (Manager.update mgr ~txn ~table:"t" ~key:(key 1) [ (1, Value.Text "y") ]);
  H.ok "a" (Manager.abort mgr txn);
  let records = Nbsc_wal.Log.to_records (Db.log db) in
  (* Drop the last two records (the second CLR and Abort_done). *)
  let truncated =
    List.filteri (fun i _ -> i < List.length records - 2) records
  in
  let partial = Nbsc_wal.Log.of_records truncated in
  let recovered, report = Recovery.recover ~table_defs:defs partial in
  Alcotest.(check (list int)) "still a loser" [ txn ] report.Recovery.losers;
  let t = Catalog.find recovered "t" in
  (* Undo must resume where the CLR chain left off: both changes gone. *)
  Alcotest.(check int) "insert undone" 1 (Table.cardinality t);
  let r = Option.get (Table.find t (key 1)) in
  Alcotest.(check bool) "update undone" true
    (Value.equal (Row.get r.Record.row 1) (Value.Text "a"))

let test_unknown_tables_skipped () =
  let db = fresh () in
  ignore (Db.create_table db ~name:"other" H.s_schema);
  H.ok "load t" (Db.load db ~table:"t" [ row 1 "a" 1 ]);
  H.ok "load other" (Db.load db ~table:"other" [ Row.make [ Value.Int 5; Value.Text "d" ] ]);
  let recovered, report = Recovery.recover ~table_defs:defs (Db.log db) in
  Alcotest.(check bool) "skipped some" true (report.Recovery.redo_skipped > 0);
  Alcotest.(check int) "t recovered" 1 (Table.cardinality (Catalog.find recovered "t"));
  Alcotest.(check bool) "other absent" false (Catalog.mem recovered "other")

let test_recovery_idempotent () =
  let db = fresh () in
  H.ok "load" (Db.load db ~table:"t" [ row 1 "a" 1; row 2 "b" 2 ]);
  let r1, _ = Recovery.recover ~table_defs:defs (Db.log db) in
  let r2, _ = Recovery.recover ~table_defs:defs (Db.log db) in
  Alcotest.(check bool) "identical" true
    (table_image (Catalog.find r1 "t") = table_image (Catalog.find r2 "t"))

let test_with_txn_helper () =
  let db = fresh () in
  (* Success path commits. *)
  (match
     Db.with_txn db (fun txn ->
         Manager.insert (Db.manager db) ~txn ~table:"t" (row 1 "a" 1))
   with
   | Ok () -> ()
   | Error e -> Alcotest.failf "with_txn: %a" Manager.pp_error e);
  Alcotest.(check int) "committed" 1 (Db.row_count db "t");
  (* Failure path rolls back. *)
  (match
     Db.with_txn db (fun txn ->
         H.ok "i"
           (Manager.insert (Db.manager db) ~txn ~table:"t" (row 2 "b" 2));
         Error `Not_found)
   with
   | Error `Not_found -> ()
   | _ -> Alcotest.fail "error should propagate");
  Alcotest.(check int) "rolled back" 1 (Db.row_count db "t")

(* Property: after an arbitrary history of committed and aborted
   transactions, recovery from the log reproduces the live state. *)
let prop_recovery_equals_live =
  QCheck.Test.make ~name:"recovery reproduces live state" ~count:100
    QCheck.(pair (int_bound 1000)
              (list_of_size Gen.(int_bound 25)
                 (triple (int_bound 10) (int_bound 3) bool)))
    (fun (seed, txn_specs) ->
       let db = fresh () in
       let mgr = Db.manager db in
       let rng = Random.State.make [| seed |] in
       List.iter
         (fun (a, action, commit) ->
            let txn = Manager.begin_txn mgr in
            let n_ops = 1 + Random.State.int rng 4 in
            for i = 0 to n_ops - 1 do
              let a = (a + i) mod 12 in
              ignore
                (match action with
                 | 0 -> Manager.insert mgr ~txn ~table:"t" (row a "v" a)
                 | 1 ->
                   Manager.update mgr ~txn ~table:"t" ~key:(key a)
                     [ (1, Value.Text (string_of_int i)) ]
                 | _ -> Manager.delete mgr ~txn ~table:"t" ~key:(key a))
            done;
            ignore (if commit then Manager.commit mgr txn else Manager.abort mgr txn))
         txn_specs;
       let recovered, _ = Recovery.recover ~table_defs:defs (Db.log db) in
       table_image (Db.table db "t") = table_image (Catalog.find recovered "t"))

let () =
  Alcotest.run "engine"
    [ ( "recovery",
        [ Alcotest.test_case "committed survive" `Quick test_committed_survive;
          Alcotest.test_case "losers rolled back" `Quick test_losers_rolled_back;
          Alcotest.test_case "aborted replays clean" `Quick
            test_aborted_txn_replays_clean;
          Alcotest.test_case "mid-abort crash" `Quick test_mid_abort_crash;
          Alcotest.test_case "unknown tables skipped" `Quick
            test_unknown_tables_skipped;
          Alcotest.test_case "idempotent" `Quick test_recovery_idempotent ] );
      ("facade", [ Alcotest.test_case "with_txn" `Quick test_with_txn_helper ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_recovery_equals_live ] ) ]
