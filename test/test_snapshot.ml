(* Tests for snapshots: save/load fidelity, LSN continuity across a
   restart (the split rules' discipline must survive), refusal under
   active transactions, corruption detection, and crash-recovery =
   snapshot + log suffix. *)

open Nbsc_value
open Nbsc_wal
open Nbsc_storage
open Nbsc_txn
open Nbsc_engine
open Nbsc_core
module H = Helpers

let ok_snap name = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %a" name Snapshot.pp_error e

let table_image db name =
  let t = Db.table db name in
  Table.fold t ~init:[] ~f:(fun acc _ r ->
      (r.Record.row, Lsn.to_int r.Record.lsn, r.Record.counter, r.Record.flag)
      :: acc)
  |> List.sort compare

let test_roundtrip_fidelity () =
  let db = H.fresh_split_db ~t_rows:(H.seed_t_rows ~n:40) in
  (* Give T an index and some metadata variety via a real split. *)
  let tf =
    H.start db
      ~options:{ Options.default with Options.drop_sources = false }
      (Spec.Split (H.split_spec ~assume_consistent:true))
  in
  (match Transform.run tf with Ok () -> () | Error m -> Alcotest.fail m);
  let lines = ok_snap "save" (Snapshot.save db) in
  let db' = ok_snap "load" (Snapshot.load lines) in
  List.iter
    (fun name ->
       Alcotest.(check bool)
         (name ^ " identical") true
         (table_image db name = table_image db' name))
    [ "T"; "R"; "S" ];
  (* Index definitions survive. *)
  Alcotest.(check bool) "split index restored" true
    (List.mem_assoc Spec.ix_t_split (Table.index_definitions (Db.table db' "T")));
  (* And the index works. *)
  Alcotest.(check bool) "index answers" true
    (Table.index_lookup (Db.table db' "T") ~index:Spec.ix_t_split
       (Row.make [ Value.Int 0 ])
     <> [])

let test_lsn_continuity () =
  let db = H.fresh_split_db ~t_rows:(H.seed_t_rows ~n:10) in
  let head_before = Log.head (Db.log db) in
  let db' = ok_snap "load" (Snapshot.load (ok_snap "save" (Snapshot.save db))) in
  Alcotest.(check int) "log continues at snapshot head"
    (Lsn.to_int head_before)
    (Lsn.to_int (Log.head (Db.log db')));
  (* New writes get strictly larger LSNs than any restored record. *)
  let mgr = Db.manager db' in
  let txn = Manager.begin_txn mgr in
  H.ok "u" (Manager.update mgr ~txn ~table:"T" ~key:(Row.make [ Value.Int 1 ])
            [ (1, Value.Text "post-restart") ]);
  H.ok "c" (Manager.commit mgr txn);
  let r = Option.get (Table.find (Db.table db' "T") (Row.make [ Value.Int 1 ])) in
  Alcotest.(check bool) "record lsn beyond snapshot" true
    Lsn.(r.Record.lsn > head_before)

let test_transformation_after_restart () =
  (* The headline restart story: snapshot, reload, then run a split
     transformation on the restored database — the LSN discipline must
     hold. *)
  let db = H.fresh_split_db ~t_rows:(H.seed_t_rows ~n:50) in
  let db' = ok_snap "load" (Snapshot.load (ok_snap "save" (Snapshot.save db))) in
  let d = H.driver ~seed:3 db' in
  let tf =
    H.start db'
      ~options:{ Options.default with
                Options.drop_sources = false; scan_batch = 7; propagate_batch = 5 }
      (Spec.Split (H.split_spec ~assume_consistent:true))
  in
  let budget = ref 100 in
  (match
     Transform.run tf ~between:(fun () ->
         if !budget > 0 then begin
           decr budget;
           H.random_t_op ~consistent:true d
         end)
   with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  let want_r, want_s = H.split_oracle db' in
  H.check_relations_equal "R after restart" want_r (Db.snapshot db' "R");
  H.check_relations_equal "S after restart" want_s (Db.snapshot db' "S")

let test_refuses_active_transactions () =
  let db = H.fresh_split_db ~t_rows:(H.seed_t_rows ~n:5) in
  let mgr = Db.manager db in
  let txn = Manager.begin_txn mgr in
  H.ok "u" (Manager.update mgr ~txn ~table:"T" ~key:(Row.make [ Value.Int 1 ])
            [ (1, Value.Text "dirty") ]);
  (match Snapshot.save db with
   | Error (`Active_transactions [ t ]) ->
     Alcotest.(check int) "names the offender" txn t
   | _ -> Alcotest.fail "expected Active_transactions");
  H.ok "c" (Manager.commit mgr txn);
  (match Snapshot.save db with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "after commit: %a" Snapshot.pp_error e)

let test_corruption_detected () =
  let db = H.fresh_split_db ~t_rows:(H.seed_t_rows ~n:3) in
  let lines = ok_snap "save" (Snapshot.save db) in
  let corrupt lines = match Snapshot.load lines with
    | Error (`Corrupt _) -> true
    | _ -> false
  in
  Alcotest.(check bool) "garbage line" true (corrupt (lines @ [ "Z:???" ]));
  Alcotest.(check bool) "truncated payload" true
    (corrupt [ "R:" ^ Nbsc_value.Codec.encode_string_list [ "T" ] ]);
  let row = Buffer.create 32 in
  Nbsc_value.Codec.encode_row_into row (H.ti 1 "a" 1 "x");
  Alcotest.(check bool) "row for unknown table" true
    (corrupt
       [ "R:"
         ^ Nbsc_value.Codec.encode_string_list
             [ "NOPE"; "1"; "1"; "C"; "0"; Buffer.contents row ]
       ])

let test_snapshot_plus_log_suffix () =
  (* Crash recovery with checkpointing: state = snapshot + redo of the
     log suffix written after it. *)
  let db = H.fresh_split_db ~t_rows:(H.seed_t_rows ~n:20) in
  let snap = ok_snap "save" (Snapshot.save db) in
  let snap_head = Log.head (Db.log db) in
  (* More committed work after the snapshot... *)
  let mgr = Db.manager db in
  let txn = Manager.begin_txn mgr in
  H.ok "u" (Manager.update mgr ~txn ~table:"T" ~key:(Row.make [ Value.Int 2 ])
            [ (1, Value.Text "after-ckpt") ]);
  H.ok "i"
    (Manager.insert mgr ~txn ~table:"T" (H.ti 900 "late" 1 (H.city_of 1)));
  H.ok "c" (Manager.commit mgr txn);
  (* ...and a loser in flight at the crash. *)
  let loser = Manager.begin_txn mgr in
  H.ok "lu" (Manager.update mgr ~txn:loser ~table:"T"
             ~key:(Row.make [ Value.Int 3 ]) [ (1, Value.Text "ghost") ]);
  (* Recover: load snapshot, then redo/undo the suffix. *)
  let db' = ok_snap "load" (Snapshot.load snap) in
  let suffix =
    Log.fold (Db.log db) ~from:(Lsn.next snap_head) ?upto:None ~init:[]
      ~f:(fun acc r -> r :: acc)
    |> List.rev
  in
  (* Replay through the ordinary recovery machinery by rebuilding a
     sub-log; record-LSN idempotence makes double-application safe. *)
  let sublog = Log.create ~base:snap_head () in
  List.iter
    (fun r ->
       ignore
         (Log.append sublog ~txn:r.Log_record.txn ~prev_lsn:r.Log_record.prev_lsn
            r.Log_record.body))
    suffix;
  (* Redo committed suffix ops into db'. *)
  let losers =
    let active = Hashtbl.create 4 in
    Log.iter sublog (fun r ->
        match r.Log_record.body with
        | Log_record.Begin -> Hashtbl.replace active r.Log_record.txn ()
        | Log_record.Commit | Log_record.Abort_done ->
          Hashtbl.remove active r.Log_record.txn
        | _ -> ());
    active
  in
  Log.iter sublog (fun r ->
      match r.Log_record.body with
      | Log_record.Op op | Log_record.Clr { op; _ } ->
        if not (Hashtbl.mem losers r.Log_record.txn) then begin
          match Nbsc_txn.Apply.op (Db.catalog db') ~lsn:r.Log_record.lsn op with
          | Ok () -> ()
          | Error e ->
            Alcotest.failf "redo: %a" Nbsc_txn.Apply.pp_error e
        end
      | _ -> ());
  (* The recovered T equals the live T minus the loser's effect. *)
  let live = Db.snapshot db "T" in
  (* Undo the loser in the live db for comparison. *)
  ignore (Manager.abort mgr loser);
  let live_clean = Db.snapshot db "T" in
  ignore live;
  H.check_relations_equal "snapshot + suffix = state" live_clean
    (Db.snapshot db' "T")

let () =
  Alcotest.run "snapshot"
    [ ( "snapshot",
        [ Alcotest.test_case "roundtrip fidelity" `Quick test_roundtrip_fidelity;
          Alcotest.test_case "LSN continuity" `Quick test_lsn_continuity;
          Alcotest.test_case "transformation after restart" `Quick
            test_transformation_after_restart;
          Alcotest.test_case "refuses active transactions" `Quick
            test_refuses_active_transactions;
          Alcotest.test_case "corruption detected" `Quick
            test_corruption_detected;
          Alcotest.test_case "snapshot + log suffix" `Quick
            test_snapshot_plus_log_suffix ] ) ]
