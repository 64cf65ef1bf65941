(* Tests for the transaction manager: 2PL, logging, rollback with CLRs,
   and the hooks the synchronization strategies rely on. *)

open Nbsc_value
open Nbsc_wal
open Nbsc_storage
open Nbsc_txn
module H = Helpers

let fresh () =
  let cat = Catalog.create () in
  ignore (Catalog.create_table cat ~name:"t" H.r_schema);
  (cat, Manager.create cat)

let row a b c = Row.make [ Value.Int a; Value.Text b; Value.Int c ]
let key a = Row.make [ Value.Int a ]

let test_commit_visible () =
  let cat, mgr = fresh () in
  let txn = Manager.begin_txn mgr in
  H.ok "insert" (Manager.insert mgr ~txn ~table:"t" (row 1 "x" 7));
  H.ok "commit" (Manager.commit mgr txn);
  Alcotest.(check bool) "committed" true (Manager.status mgr txn = Manager.Committed);
  Alcotest.(check int) "row there" 1 (Table.cardinality (Catalog.find cat "t"))

let test_abort_rolls_back () =
  let cat, mgr = fresh () in
  (* Pre-existing committed row. *)
  let setup = Manager.begin_txn mgr in
  H.ok "insert" (Manager.insert mgr ~txn:setup ~table:"t" (row 1 "orig" 7));
  H.ok "commit" (Manager.commit mgr setup);
  (* A transaction that does one of each, then aborts. *)
  let txn = Manager.begin_txn mgr in
  H.ok "insert2" (Manager.insert mgr ~txn ~table:"t" (row 2 "temp" 8));
  H.ok "update" (Manager.update mgr ~txn ~table:"t" ~key:(key 1) [ (1, Value.Text "mod") ]);
  H.ok "delete" (Manager.delete mgr ~txn ~table:"t" ~key:(key 2));
  H.ok "reinsert" (Manager.insert mgr ~txn ~table:"t" (row 3 "temp2" 9));
  H.ok "abort" (Manager.abort mgr txn);
  let t = Catalog.find cat "t" in
  Alcotest.(check int) "only original row" 1 (Table.cardinality t);
  let r = Option.get (Table.find t (key 1)) in
  Alcotest.(check bool) "original restored" true
    (Value.equal (Row.get r.Record.row 1) (Value.Text "orig"));
  Alcotest.(check bool) "status" true (Manager.status mgr txn = Manager.Aborted)

let test_clr_chain () =
  let _, mgr = fresh () in
  let txn = Manager.begin_txn mgr in
  H.ok "i" (Manager.insert mgr ~txn ~table:"t" (row 1 "x" 7));
  H.ok "u" (Manager.update mgr ~txn ~table:"t" ~key:(key 1) [ (1, Value.Text "y") ]);
  H.ok "a" (Manager.abort mgr txn);
  (* Log shape: Begin, Op, Op, Abort_begin, CLR(update), CLR(insert),
     Abort_done.  CLR undo_next pointers walk backwards. *)
  let log = Manager.log mgr in
  let kinds =
    Log.fold log ?from:None ?upto:None ~init:[] ~f:(fun acc r ->
        (match r.Log_record.body with
         | Log_record.Begin -> "begin"
         | Log_record.Op (Log_record.Insert _) -> "ins"
         | Log_record.Op (Log_record.Update _) -> "upd"
         | Log_record.Op (Log_record.Delete _) -> "del"
         | Log_record.Clr { op = Log_record.Update _; _ } -> "clr-upd"
         | Log_record.Clr { op = Log_record.Delete _; _ } -> "clr-del"
         | Log_record.Clr { op = Log_record.Insert _; _ } -> "clr-ins"
         | Log_record.Abort_begin -> "abort"
         | Log_record.Abort_done -> "abort-done"
         | _ -> "?")
        :: acc)
    |> List.rev
  in
  Alcotest.(check (list string)) "log shape"
    [ "begin"; "ins"; "upd"; "abort"; "clr-upd"; "clr-del"; "abort-done" ]
    kinds

let test_2pl_conflict_and_block_info () =
  let _, mgr = fresh () in
  let t1 = Manager.begin_txn mgr in
  let t2 = Manager.begin_txn mgr in
  H.ok "t1 insert" (Manager.insert mgr ~txn:t1 ~table:"t" (row 1 "x" 7));
  (match Manager.update mgr ~txn:t2 ~table:"t" ~key:(key 1) [ (1, Value.Text "y") ] with
   | Error (`Blocked owners) -> Alcotest.(check (list int)) "blocked by t1" [ t1 ] owners
   | _ -> Alcotest.fail "expected Blocked");
  (* Reads conflict with writes too. *)
  (match Manager.read mgr ~txn:t2 ~table:"t" ~key:(key 1) with
   | Error (`Blocked _) -> ()
   | _ -> Alcotest.fail "read should block");
  H.ok "t1 commit" (Manager.commit mgr t1);
  (match Manager.read mgr ~txn:t2 ~table:"t" ~key:(key 1) with
   | Ok (Some r) ->
     Alcotest.(check bool) "sees committed" true (Row.equal r (row 1 "x" 7))
   | _ -> Alcotest.fail "read after commit");
  H.ok "t2 commit" (Manager.commit mgr t2)

let test_shared_reads () =
  let _, mgr = fresh () in
  let setup = Manager.begin_txn mgr in
  H.ok "i" (Manager.insert mgr ~txn:setup ~table:"t" (row 1 "x" 7));
  H.ok "c" (Manager.commit mgr setup);
  let t1 = Manager.begin_txn mgr and t2 = Manager.begin_txn mgr in
  (match Manager.read mgr ~txn:t1 ~table:"t" ~key:(key 1) with
   | Ok (Some _) -> ()
   | _ -> Alcotest.fail "t1 read");
  (match Manager.read mgr ~txn:t2 ~table:"t" ~key:(key 1) with
   | Ok (Some _) -> ()
   | _ -> Alcotest.fail "t2 read (shared)");
  (* Writer blocked by both readers. *)
  let t3 = Manager.begin_txn mgr in
  (match Manager.update mgr ~txn:t3 ~table:"t" ~key:(key 1) [ (1, Value.Text "y") ] with
   | Error (`Blocked owners) ->
     Alcotest.(check (list int)) "both readers" [ t1; t2 ] (List.sort compare owners)
   | _ -> Alcotest.fail "expected blocked");
  H.ok "c1" (Manager.commit mgr t1);
  H.ok "c2" (Manager.commit mgr t2);
  H.ok "c3" (Manager.abort mgr t3)

let test_latch_pauses () =
  let _, mgr = fresh () in
  Alcotest.(check bool) "latched" true
    (Nbsc_lock.Latch.try_latch (Manager.latches mgr) ~holder:999 ~table:"t");
  let txn = Manager.begin_txn mgr in
  (match Manager.insert mgr ~txn ~table:"t" (row 1 "x" 7) with
   | Error (`Latched "t") -> ()
   | _ -> Alcotest.fail "expected Latched");
  Nbsc_lock.Latch.unlatch (Manager.latches mgr) ~holder:999 ~table:"t";
  H.ok "after unlatch" (Manager.insert mgr ~txn ~table:"t" (row 1 "x" 7));
  H.ok "c" (Manager.commit mgr txn)

let test_freeze_spares_old_txns () =
  let _, mgr = fresh () in
  let old_txn = Manager.begin_txn mgr in
  Manager.intercept mgr ~id:1
    { Manager.empty_interceptor with frozen = [ "t" ] };
  let new_txn = Manager.begin_txn mgr in
  H.ok "old proceeds"
    (Manager.insert mgr ~txn:old_txn ~table:"t" (row 1 "x" 7));
  (match Manager.insert mgr ~txn:new_txn ~table:"t" (row 2 "y" 8) with
   | Error (`Frozen "t") -> ()
   | _ -> Alcotest.fail "expected Frozen");
  Manager.release mgr ~id:1;
  H.ok "after unfreeze" (Manager.insert mgr ~txn:new_txn ~table:"t" (row 2 "y" 8));
  H.ok "c1" (Manager.commit mgr old_txn);
  H.ok "c2" (Manager.commit mgr new_txn)

let test_abort_only () =
  let _, mgr = fresh () in
  let txn = Manager.begin_txn mgr in
  H.ok "i" (Manager.insert mgr ~txn ~table:"t" (row 1 "x" 7));
  Manager.mark_abort_only mgr txn;
  (match Manager.insert mgr ~txn ~table:"t" (row 2 "y" 8) with
   | Error `Abort_only -> ()
   | _ -> Alcotest.fail "expected Abort_only");
  (match Manager.commit mgr txn with
   | Error `Abort_only -> ()
   | _ -> Alcotest.fail "commit must be refused");
  H.ok "abort works" (Manager.abort mgr txn)

let test_key_update_refused () =
  let _, mgr = fresh () in
  let txn = Manager.begin_txn mgr in
  H.ok "i" (Manager.insert mgr ~txn ~table:"t" (row 1 "x" 7));
  (match Manager.update mgr ~txn ~table:"t" ~key:(key 1) [ (0, Value.Int 2) ] with
   | Error `Key_update -> ()
   | _ -> Alcotest.fail "expected Key_update");
  H.ok "c" (Manager.commit mgr txn)

let test_errors () =
  let _, mgr = fresh () in
  let txn = Manager.begin_txn mgr in
  (match Manager.insert mgr ~txn ~table:"nope" (row 1 "x" 7) with
   | Error (`No_table "nope") -> ()
   | _ -> Alcotest.fail "expected No_table");
  (match Manager.update mgr ~txn ~table:"t" ~key:(key 42) [ (1, Value.Text "y") ] with
   | Error `Not_found -> ()
   | _ -> Alcotest.fail "expected Not_found");
  H.ok "i" (Manager.insert mgr ~txn ~table:"t" (row 1 "x" 7));
  (match Manager.insert mgr ~txn ~table:"t" (row 1 "x" 7) with
   | Error `Duplicate_key -> ()
   | _ -> Alcotest.fail "expected Duplicate_key");
  H.ok "c" (Manager.commit mgr txn);
  (match Manager.commit mgr txn with
   | Error `Txn_not_active -> ()
   | _ -> Alcotest.fail "double commit refused");
  (match Manager.insert mgr ~txn ~table:"t" (row 2 "y" 8) with
   | Error `Txn_not_active -> ()
   | _ -> Alcotest.fail "op after commit refused")

let test_active_snapshot () =
  let _, mgr = fresh () in
  let t1 = Manager.begin_txn mgr in
  let t2 = Manager.begin_txn mgr in
  let snap = Manager.active_snapshot mgr in
  Alcotest.(check (list int)) "both active" [ t1; t2 ] (List.map fst snap);
  (* first_lsn values are their Begin records, in order. *)
  let lsns = List.map (fun (_, l) -> Lsn.to_int l) snap in
  Alcotest.(check bool) "ordered first lsns" true (lsns = List.sort compare lsns);
  H.ok "c" (Manager.commit mgr t1);
  Alcotest.(check (list int)) "one active" [ t2 ] (List.map fst (Manager.active_snapshot mgr));
  H.ok "c" (Manager.abort mgr t2);
  Alcotest.(check int) "none active" 0 (Manager.active_count mgr)

let test_post_op_hook () =
  let _, mgr = fresh () in
  let fired = ref [] in
  Manager.intercept mgr ~id:1
    { Manager.empty_interceptor with
      on_write =
        Some (fun ~txn:_ ~lsn:_ op -> fired := Log_record.op_table op :: !fired)
    };
  let txn = Manager.begin_txn mgr in
  H.ok "i" (Manager.insert mgr ~txn ~table:"t" (row 1 "x" 7));
  H.ok "u" (Manager.update mgr ~txn ~table:"t" ~key:(key 1) [ (1, Value.Text "y") ]);
  H.ok "d" (Manager.delete mgr ~txn ~table:"t" ~key:(key 1));
  H.ok "c" (Manager.commit mgr txn);
  Alcotest.(check int) "three ops" 3 (List.length !fired);
  Manager.release mgr ~id:1;
  let txn = Manager.begin_txn mgr in
  H.ok "i2" (Manager.insert mgr ~txn ~table:"t" (row 9 "z" 1));
  H.ok "c2" (Manager.commit mgr txn);
  Alcotest.(check int) "hook removed" 3 (List.length !fired)

let test_stats () =
  let _, mgr = fresh () in
  let txn = Manager.begin_txn mgr in
  H.ok "i" (Manager.insert mgr ~txn ~table:"t" (row 1 "x" 7));
  H.ok "c" (Manager.commit mgr txn);
  let txn = Manager.begin_txn mgr in
  H.ok "i" (Manager.insert mgr ~txn ~table:"t" (row 2 "y" 8));
  H.ok "a" (Manager.abort mgr txn);
  let s = Manager.Stats.get mgr in
  Alcotest.(check int) "ops" 2 s.Manager.Stats.ops;
  Alcotest.(check int) "commits" 1 s.Manager.Stats.commits;
  Alcotest.(check int) "aborts" 1 s.Manager.Stats.aborts

(* Property: a transaction that aborts leaves the table exactly as it
   found it, whatever it did. *)
let arb_ops =
  QCheck.(list_of_size Gen.(int_bound 40)
            (triple (int_bound 12) (int_bound 3) small_nat))

let table_image t =
  Table.fold t ~init:[] ~f:(fun acc _ r -> r.Record.row :: acc)
  |> List.sort Row.compare

let prop_abort_is_identity =
  QCheck.Test.make ~name:"abort restores the exact table image" ~count:200
    arb_ops
    (fun ops ->
       let cat, mgr = fresh () in
       let t = Catalog.find cat "t" in
       (* Seed some committed data. *)
       let setup = Manager.begin_txn mgr in
       for i = 0 to 5 do
         ignore (Manager.insert mgr ~txn:setup ~table:"t" (row i "seed" i))
       done;
       ignore (Manager.commit mgr setup);
       let before = table_image t in
       let txn = Manager.begin_txn mgr in
       List.iter
         (fun (a, action, v) ->
            ignore
              (match action with
               | 0 ->
                 Manager.insert mgr ~txn ~table:"t"
                   (row a (string_of_int v) (v mod 7))
               | 1 ->
                 Manager.update mgr ~txn ~table:"t" ~key:(key a)
                   [ (1, Value.Text (string_of_int v)) ]
               | _ -> Manager.delete mgr ~txn ~table:"t" ~key:(key a)))
         ops;
       ignore (Manager.abort mgr txn);
       let after = table_image t in
       List.length before = List.length after
       && List.for_all2 Row.equal before after)

let () =
  Alcotest.run "txn"
    [ ( "basics",
        [ Alcotest.test_case "commit visible" `Quick test_commit_visible;
          Alcotest.test_case "abort rolls back" `Quick test_abort_rolls_back;
          Alcotest.test_case "CLR chain" `Quick test_clr_chain;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "stats" `Quick test_stats ] );
      ( "locking",
        [ Alcotest.test_case "2PL conflict" `Quick test_2pl_conflict_and_block_info;
          Alcotest.test_case "shared reads" `Quick test_shared_reads;
          Alcotest.test_case "latch pauses" `Quick test_latch_pauses;
          Alcotest.test_case "freeze spares old txns" `Quick
            test_freeze_spares_old_txns;
          Alcotest.test_case "abort-only" `Quick test_abort_only;
          Alcotest.test_case "key update refused" `Quick test_key_update_refused ] );
      ( "introspection",
        [ Alcotest.test_case "active snapshot" `Quick test_active_snapshot;
          Alcotest.test_case "post-op hook" `Quick test_post_op_hook ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_abort_is_identity ] ) ]
