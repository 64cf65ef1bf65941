(* MVCC tests: snapshot-isolation visibility against the version
   chains, snapshot reads staying non-blocking under every
   synchronization mechanism (freeze, latch, record lock), version
   GC respecting active snapshots, and the lazy / hybrid migration
   strategies of the strategy-aware schema-change API. *)

open Nbsc_value
open Nbsc_lock
open Nbsc_storage
open Nbsc_txn
open Nbsc_core
module H = Helpers
module Obs = Nbsc_obs.Obs

let key a = Row.make [ Value.Int a ]

let ok name = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %a" name Manager.pp_error e

(* Single-table fixture over the running example's R(a,b,c). *)
let fresh_table () =
  let db = Db.create () in
  ignore (Db.create_table db ~name:"t" H.r_schema);
  db

(* One auto-committed operation; any failure fails the test. *)
let commit_op db f =
  let mgr = Db.manager db in
  let txn = Manager.begin_txn mgr in
  match f mgr txn with
  | Ok () -> ok "commit" (Manager.commit mgr txn)
  | Error e ->
    ignore (Manager.abort mgr txn);
    Alcotest.failf "op: %a" Manager.pp_error e

let check_b name expected = function
  | Some row ->
    Alcotest.(check bool) name true
      (Value.equal (Row.get row 1) (Value.Text expected))
  | None -> Alcotest.failf "%s: row missing" name

(* {1 Visibility} *)

let test_snapshot_sees_begin_state () =
  let db = fresh_table () in
  let mgr = Db.manager db in
  commit_op db (fun m txn -> Manager.insert m ~txn ~table:"t" (H.ri 1 "v0" 7));
  let snap = Manager.begin_txn ~isolation:`Snapshot mgr in
  (* Committed after the snapshot began: invisible to it. *)
  commit_op db (fun m txn ->
      Manager.update m ~txn ~table:"t" ~key:(key 1) [ (1, Value.Text "v1") ]);
  commit_op db (fun m txn -> Manager.insert m ~txn ~table:"t" (H.ri 2 "new" 8));
  check_b "pre-begin value" "v0"
    (ok "snap read 1" (Manager.read mgr ~txn:snap ~table:"t" ~key:(key 1)));
  (match ok "snap read 2" (Manager.read mgr ~txn:snap ~table:"t" ~key:(key 2)) with
   | None -> ()
   | Some _ -> Alcotest.fail "row inserted after begin is visible");
  ok "snap commit" (Manager.commit mgr snap);
  (* A fresh locked reader sees the current state. *)
  let txn = Manager.begin_txn mgr in
  check_b "current value" "v1"
    (ok "read" (Manager.read mgr ~txn ~table:"t" ~key:(key 1)));
  ok "commit" (Manager.commit mgr txn)

let test_snapshot_sees_deleted_row () =
  let db = fresh_table () in
  let mgr = Db.manager db in
  commit_op db (fun m txn -> Manager.insert m ~txn ~table:"t" (H.ri 1 "keep" 7));
  let snap = Manager.begin_txn ~isolation:`Snapshot mgr in
  commit_op db (fun m txn -> Manager.delete m ~txn ~table:"t" ~key:(key 1));
  (* Gone from the heap, still reachable through the version chain. *)
  check_b "deleted row still visible" "keep"
    (ok "snap read" (Manager.read mgr ~txn:snap ~table:"t" ~key:(key 1)));
  ok "snap commit" (Manager.commit mgr snap);
  let txn = Manager.begin_txn mgr in
  (match ok "read" (Manager.read mgr ~txn ~table:"t" ~key:(key 1)) with
   | None -> ()
   | Some _ -> Alcotest.fail "delete not visible to a fresh reader");
  ok "commit" (Manager.commit mgr txn)

let test_snapshot_sees_own_writes () =
  let db = fresh_table () in
  let mgr = Db.manager db in
  commit_op db (fun m txn -> Manager.insert m ~txn ~table:"t" (H.ri 1 "v0" 7));
  let snap = Manager.begin_txn ~isolation:`Snapshot mgr in
  ok "own update"
    (Manager.update mgr ~txn:snap ~table:"t" ~key:(key 1)
       [ (1, Value.Text "mine") ]);
  ok "own insert" (Manager.insert mgr ~txn:snap ~table:"t" (H.ri 2 "also" 8));
  check_b "own update visible" "mine"
    (ok "read 1" (Manager.read mgr ~txn:snap ~table:"t" ~key:(key 1)));
  check_b "own insert visible" "also"
    (ok "read 2" (Manager.read mgr ~txn:snap ~table:"t" ~key:(key 2)));
  ok "commit" (Manager.commit mgr snap)

(* {1 Non-blocking reads}

   The three synchronization strategies block locked readers through
   three mechanisms — table freezes (blocking commit), table latches
   (the final latched iteration of all strategies) and record locks
   (non-blocking commit's dual locking). A snapshot reader must sail
   past each one. *)

let test_snapshot_read_ignores_freeze () =
  let db = fresh_table () in
  let mgr = Db.manager db in
  commit_op db (fun m txn -> Manager.insert m ~txn ~table:"t" (H.ri 1 "v0" 7));
  Manager.freeze_tables mgr [ "t" ];
  let eager = Manager.begin_txn mgr in
  (match Manager.read mgr ~txn:eager ~table:"t" ~key:(key 1) with
   | Error (`Frozen _) -> ()
   | Ok _ -> Alcotest.fail "locked read admitted on a frozen table"
   | Error e -> Alcotest.failf "unexpected error: %a" Manager.pp_error e);
  ignore (Manager.abort mgr eager);
  let snap = Manager.begin_txn ~isolation:`Snapshot mgr in
  check_b "snapshot read under freeze" "v0"
    (ok "snap read" (Manager.read mgr ~txn:snap ~table:"t" ~key:(key 1)));
  ok "snap commit" (Manager.commit mgr snap);
  Manager.unfreeze_tables mgr [ "t" ]

let test_snapshot_read_ignores_latch () =
  let db = fresh_table () in
  let mgr = Db.manager db in
  commit_op db (fun m txn -> Manager.insert m ~txn ~table:"t" (H.ri 1 "v0" 7));
  let holder = Db.fresh_holder db in
  Alcotest.(check bool) "latched" true
    (Latch.try_latch (Manager.latches mgr) ~holder ~table:"t");
  let eager = Manager.begin_txn mgr in
  (match Manager.read mgr ~txn:eager ~table:"t" ~key:(key 1) with
   | Error (`Latched _) -> ()
   | Ok _ -> Alcotest.fail "locked read admitted on a latched table"
   | Error e -> Alcotest.failf "unexpected error: %a" Manager.pp_error e);
  ignore (Manager.abort mgr eager);
  let snap = Manager.begin_txn ~isolation:`Snapshot mgr in
  check_b "snapshot read under latch" "v0"
    (ok "snap read" (Manager.read mgr ~txn:snap ~table:"t" ~key:(key 1)));
  ok "snap commit" (Manager.commit mgr snap);
  Latch.unlatch (Manager.latches mgr) ~holder ~table:"t"

let test_snapshot_read_ignores_write_lock () =
  let db = fresh_table () in
  let mgr = Db.manager db in
  commit_op db (fun m txn -> Manager.insert m ~txn ~table:"t" (H.ri 1 "v0" 7));
  (* A writer holds the X lock, uncommitted. *)
  let writer = Manager.begin_txn mgr in
  ok "write"
    (Manager.update mgr ~txn:writer ~table:"t" ~key:(key 1)
       [ (1, Value.Text "dirty") ]);
  let eager = Manager.begin_txn mgr in
  (match Manager.read mgr ~txn:eager ~table:"t" ~key:(key 1) with
   | Error (`Blocked _) -> ()
   | Ok _ -> Alcotest.fail "locked read did not block on the X lock"
   | Error e -> Alcotest.failf "unexpected error: %a" Manager.pp_error e);
  ignore (Manager.abort mgr eager);
  let snap = Manager.begin_txn ~isolation:`Snapshot mgr in
  check_b "reads around the lock" "v0"
    (ok "snap read" (Manager.read mgr ~txn:snap ~table:"t" ~key:(key 1)));
  ok "writer commit" (Manager.commit mgr writer);
  (* The writer committed after the snapshot began: still invisible. *)
  check_b "commit after begin invisible" "v0"
    (ok "snap reread" (Manager.read mgr ~txn:snap ~table:"t" ~key:(key 1)));
  ok "snap commit" (Manager.commit mgr snap)

(* End to end: drive a blocking-commit change into its quiesce window
   (the harshest synchronization — newcomers are refused outright) and
   show a snapshot reader begun mid-sync reads on while a locked
   reader is turned away. *)
let test_sync_phase_nonblocking_for_snapshots () =
  let r_rows, s_rows = H.seed_rows ~r:30 ~s:10 in
  let db = H.fresh_foj_db ~r_rows ~s_rows in
  let mgr = Db.manager db in
  (* A pre-sync transaction active on R keeps the change quiescing. *)
  let old_txn = Manager.begin_txn mgr in
  ok "old insert" (Manager.insert mgr ~txn:old_txn ~table:"R" (H.ri 999 "old" 3));
  let options =
    Options.{ default with sync = Blocking_commit; scan_batch = 7;
              propagate_batch = 5; drop_sources = false }
  in
  let tf = Transform.foj db ~options H.foj_spec in
  let steps = ref 0 in
  while Transform.phase tf <> Transform.Quiescing && !steps < 10_000 do
    (match Transform.step tf with
     | `Running -> ()
     | `Done -> Alcotest.fail "change finished without quiescing"
     | `Failed m -> Alcotest.failf "change failed: %s" m);
    incr steps
  done;
  Alcotest.(check bool) "reached quiescing" true
    (Transform.phase tf = Transform.Quiescing);
  let eager = Manager.begin_txn mgr in
  (match Manager.read mgr ~txn:eager ~table:"R" ~key:(key 1) with
   | Error (`Frozen _) -> ()
   | Ok _ -> Alcotest.fail "locked reader admitted during quiesce"
   | Error e -> Alcotest.failf "unexpected error: %a" Manager.pp_error e);
  ignore (Manager.abort mgr eager);
  let snap = Manager.begin_txn ~isolation:`Snapshot mgr in
  (match ok "snap read" (Manager.read mgr ~txn:snap ~table:"R" ~key:(key 1)) with
   | Some _ -> ()
   | None -> Alcotest.fail "snapshot read lost the row during sync");
  ok "snap commit" (Manager.commit mgr snap);
  ok "old commit" (Manager.commit mgr old_txn);
  (match Transform.run ~between:(fun () -> ()) tf with
   | Ok () -> ()
   | Error m -> Alcotest.failf "change failed: %s" m);
  H.check_relations_equal "T = FOJ(R, S)" (H.foj_oracle db) (Db.snapshot db "T")

(* {1 Version GC} *)

let test_gc_respects_snapshots () =
  let db = fresh_table () in
  let mgr = Db.manager db in
  let tbl = Catalog.find (Db.catalog db) "t" in
  commit_op db (fun m txn -> Manager.insert m ~txn ~table:"t" (H.ri 1 "v0" 7));
  let snap = Manager.begin_txn ~isolation:`Snapshot mgr in
  for i = 1 to 5 do
    commit_op db (fun m txn ->
        Manager.update m ~txn ~table:"t" ~key:(key 1)
          [ (1, Value.Text ("v" ^ string_of_int i)) ])
  done;
  Alcotest.(check bool) "chain grew" true (Table.versions_count tbl >= 5);
  ignore (Manager.gc_versions mgr);
  (* Nothing the snapshot needs may go: its read is still exact. *)
  check_b "snapshot survives GC" "v0"
    (ok "snap read" (Manager.read mgr ~txn:snap ~table:"t" ~key:(key 1)));
  (match Obs.Registry.find (Db.obs db) "storage.versions_live" with
   | Some (Obs.Gauge_v v) ->
     Alcotest.(check int) "versions_live probe" (Table.versions_count tbl)
       (int_of_float v)
   | _ -> Alcotest.fail "storage.versions_live probe missing");
  ok "snap commit" (Manager.commit mgr snap);
  Alcotest.(check bool) "no active snapshot" true
    (Manager.oldest_snapshot mgr = None);
  let reclaimed = Manager.gc_versions mgr in
  Alcotest.(check bool) "reclaimed after release" true (reclaimed >= 5);
  Alcotest.(check int) "chain emptied" 0 (Table.versions_count tbl);
  (match Obs.Registry.find (Db.obs db) "storage.versions_reclaimed" with
   | Some (Obs.Counter_v n) ->
     Alcotest.(check bool) "versions_reclaimed counter" true (n >= reclaimed)
   | _ -> Alcotest.fail "storage.versions_reclaimed counter missing")

(* Row 1 of a fresh table holds "v0", with the WAL pinned at the log
   head the way a propagator pins it at the start of a change. [set]
   commits one update of row 1's b. *)
let pinned_row () =
  let db = fresh_table () in
  let mgr = Db.manager db in
  commit_op db (fun m txn -> Manager.insert m ~txn ~table:"t" (H.ri 1 "v0" 7));
  let head = Nbsc_wal.Log.head (Manager.log mgr) in
  let pin = Manager.pin_wal mgr (fun () -> head) in
  let set b =
    commit_op db (fun m txn ->
        Manager.update m ~txn ~table:"t" ~key:(key 1) [ (1, Value.Text b) ])
  in
  (db, Catalog.find (Db.catalog db) "t", pin, set)

(* A WAL pin keeps log records, not versions: with no snapshot active,
   GC empties the chain under the pin. *)
let test_gc_ignores_wal_pin () =
  let db, tbl, pin, set = pinned_row () in
  let mgr = Db.manager db in
  List.iter set [ "v1"; "v2"; "v3"; "v4"; "v5" ];
  Alcotest.(check int) "chain grew" 5 (Table.versions_count tbl);
  ignore (Manager.gc_versions mgr);
  Alcotest.(check int) "chain emptied under the pin" 0
    (Table.versions_count tbl);
  Manager.unpin_wal mgr pin

(* The horizon is the oldest snapshot, whatever the WAL pin: GC keeps
   the snapshot's own version and everything newer, and drops the
   rest. *)
let test_gc_horizon_is_oldest_snapshot () =
  let db, tbl, pin, set = pinned_row () in
  let mgr = Db.manager db in
  set "v1";
  set "v2";
  let snap = Manager.begin_txn ~isolation:`Snapshot mgr in
  set "v3";
  set "v4";
  ignore (Manager.gc_versions mgr);
  Alcotest.(check int) "snapshot's version and newer" 2
    (Table.versions_count tbl);
  check_b "snapshot survives GC" "v2"
    (ok "snap read" (Manager.read mgr ~txn:snap ~table:"t" ~key:(key 1)));
  ok "snap commit" (Manager.commit mgr snap);
  Manager.unpin_wal mgr pin

(* System (txn = 0) overwrites materialize version entries only while
   a snapshot transaction is live — the retention hint the manager
   wires into every table, which keeps bulk population/propagation
   writes free of version churn. Deletes of keys that already carry a
   chain push regardless: with the heap record gone, the tombstone
   must shadow the stale entries. *)
let test_retention_hint_gates_system_writes () =
  let db = fresh_table () in
  let mgr = Db.manager db in
  let tbl = Catalog.find (Db.catalog db) "t" in
  let module Log = Nbsc_wal.Log in
  let module Log_record = Nbsc_wal.Log_record in
  (* Claim a real LSN for each system write, like population does, so
     commit ordering against snapshot Begin records stays faithful. *)
  let sys_lsn () =
    Log.append (Manager.log mgr) ~txn:Log_record.system_txn
      ~prev_lsn:Nbsc_wal.Lsn.zero (Log_record.Fuzzy_mark { active = [] })
  in
  let sys_update b =
    match Table.update tbl ~lsn:(sys_lsn ()) ~key:(key 1)
            [ (1, Value.Text b) ] with
    | Ok _ -> ()
    | Error `Not_found -> Alcotest.fail "system update"
  in
  commit_op db (fun m txn -> Manager.insert m ~txn ~table:"t" (H.ri 1 "v0" 7));
  (* No snapshot live: the overwritten state is unreachable forever —
     nothing is pushed. *)
  sys_update "s0";
  Alcotest.(check int) "no snapshot, no version" 0 (Table.versions_count tbl);
  (* A snapshot begun after the skipped push still reads exactly: the
     new state committed below its LSN, straight off the heap. *)
  let snap = Manager.begin_txn ~isolation:`Snapshot mgr in
  check_b "heap state visible" "s0"
    (ok "snap read" (Manager.read mgr ~txn:snap ~table:"t" ~key:(key 1)));
  (* Snapshot live: the overwritten state is retained and resolved. *)
  sys_update "s1";
  Alcotest.(check int) "snapshot live, version kept" 1
    (Table.versions_count tbl);
  check_b "overwritten state resolved" "s0"
    (ok "snap reread" (Manager.read mgr ~txn:snap ~table:"t" ~key:(key 1)));
  ok "snap commit" (Manager.commit mgr snap);
  (* Snapshot gone: system overwrites stop pushing again... *)
  sys_update "s2";
  Alcotest.(check int) "hint off again" 1 (Table.versions_count tbl);
  (* ...except a delete over the existing chain: pre-image + tombstone
     are pushed so no later walk can resurrect a stale entry. *)
  (match Table.delete tbl ~lsn:(sys_lsn ()) (key 1) with
   | Ok _ -> ()
   | Error `Not_found -> Alcotest.fail "system delete");
  Alcotest.(check int) "delete over a chain pushes" 3
    (Table.versions_count tbl);
  let snap2 = Manager.begin_txn ~isolation:`Snapshot mgr in
  (match ok "snap2 read" (Manager.read mgr ~txn:snap2 ~table:"t" ~key:(key 1))
   with
   | None -> ()
   | Some _ -> Alcotest.fail "deleted row resurrected from a stale chain");
  ok "snap2 commit" (Manager.commit mgr snap2)

(* {1 Lazy and hybrid migration} *)

let migrate_opts strategy =
  Options.{ default with strategy; scan_batch = 7; propagate_batch = 5;
            drop_sources = false }

let run_tf tf ~between =
  match Transform.run ~between tf with
  | Ok () -> ()
  | Error m -> Alcotest.failf "change failed: %s" m

let test_lazy_demand_migration () =
  let r_rows, s_rows = H.seed_rows ~r:40 ~s:15 in
  let db = H.fresh_foj_db ~r_rows ~s_rows in
  let mgr = Db.manager db in
  let tf = Transform.foj db ~options:(migrate_opts Options.Lazy) H.foj_spec in
  Alcotest.(check bool) "populating" true
    (Transform.phase tf = Transform.Populating);
  (* Touch one source record before any background work: it must be in
     the target immediately, paid for by the touching transaction. *)
  let txn = Manager.begin_txn mgr in
  ignore (ok "read" (Manager.read mgr ~txn ~table:"R" ~key:(key 5)));
  ok "commit" (Manager.commit mgr txn);
  let t_tbl = Catalog.find (Db.catalog db) "T" in
  let a_pos = Schema.position (Table.schema t_tbl) "a" in
  let in_target a =
    Table.fold t_tbl ~init:false ~f:(fun hit _ r ->
        hit || Value.equal (Row.get r.Record.row a_pos) (Value.Int a))
  in
  Alcotest.(check bool) "migrated on first access" true (in_target 5);
  Alcotest.(check bool) "cold record not yet migrated" false (in_target 23);
  Alcotest.(check bool) "demand migration counted" true
    (Transform.demand_migrations tf >= 1);
  Alcotest.(check bool) "strategy recorded" true
    (Transform.migration tf = Options.Lazy);
  (* The sweep finishes the cold records; concurrent writes ride the
     log as under eager migration. *)
  let d = H.driver db in
  run_tf tf ~between:(fun () -> if d.H.ops_done < 40 then H.random_r_op d);
  H.check_relations_equal "T = FOJ(R, S)" (H.foj_oracle db) (Db.snapshot db "T")

let test_hybrid_sweep_completes () =
  let r_rows, s_rows = H.seed_rows ~r:40 ~s:15 in
  let db = H.fresh_foj_db ~r_rows ~s_rows in
  let tf =
    Transform.foj db
      ~options:(migrate_opts (Options.Hybrid { sweep_quantum = 9 }))
      H.foj_spec
  in
  (* No user ever touches a record: the background sweep alone must
     complete the change on an idle system. *)
  run_tf tf ~between:(fun () -> ());
  Alcotest.(check int) "no demand migrations" 0 (Transform.demand_migrations tf);
  H.check_relations_equal "T = FOJ(R, S)" (H.foj_oracle db) (Db.snapshot db "T")

(* {1 Properties} *)

(* Committed single-operation transactions against R of the FOJ
   fixture, keyed small so updates and deletes hit. *)
let apply_op db (code, k, v) =
  let mgr = Db.manager db in
  let txn = Manager.begin_txn mgr in
  let res =
    match code mod 3 with
    | 0 ->
      Manager.insert mgr ~txn ~table:"R"
        (H.ri k ("b" ^ string_of_int v) (k mod 8))
    | 1 ->
      Manager.update mgr ~txn ~table:"R" ~key:(key k)
        [ (1, Value.Text ("u" ^ string_of_int v)) ]
    | _ -> Manager.delete mgr ~txn ~table:"R" ~key:(key k)
  in
  match res with
  | Ok () ->
    (match Manager.commit mgr txn with
     | Ok () -> ()
     | Error _ -> ignore (Manager.abort mgr txn))
  | Error _ -> ignore (Manager.abort mgr txn)

let ops_gen =
  QCheck.(list_of_size Gen.(int_bound 25)
            (triple (int_bound 5) (int_bound 15) (int_bound 99)))

(* A snapshot transaction begun between two batches of committed
   operations — with a lazy migration sweeping and demand-migrating
   underneath, and version GC running after every quantum while the
   change pins the WAL — reads exactly the state at its begin point. *)
let prop_snapshot_visibility =
  QCheck.Test.make ~name:"snapshot reads are exactly the begin state"
    ~count:30
    QCheck.(pair ops_gen ops_gen)
    (fun (before, after) ->
       let _, s_rows = H.seed_rows ~r:0 ~s:8 in
       let db = H.fresh_foj_db ~r_rows:[] ~s_rows in
       let mgr = Db.manager db in
       List.iter (apply_op db) before;
       let tf = Transform.foj db ~options:(migrate_opts Options.Lazy) H.foj_spec in
       let snap = Manager.begin_txn ~isolation:`Snapshot mgr in
       (* Everything so far is committed, so the dirty read is the
          committed state the snapshot must keep seeing. *)
       let expected =
         List.init 16 (fun k -> Manager.read_dirty mgr ~table:"R" ~key:(key k))
       in
       List.iter
         (fun op ->
            apply_op db op;
            ignore (Transform.step tf);
            ignore (Manager.gc_versions mgr))
         after;
       let exact = ref true in
       List.iteri
         (fun k exp ->
            match Manager.read mgr ~txn:snap ~table:"R" ~key:(key k) with
            | Ok got ->
              let same =
                match (exp, got) with
                | None, None -> true
                | Some a, Some b -> Row.equal a b
                | _ -> false
              in
              if not same then exact := false
            | Error _ -> exact := false)
         expected;
       ignore (Manager.commit mgr snap);
       Transform.abort tf;
       !exact)

let () =
  Alcotest.run "mvcc"
    [ ( "visibility",
        [ Alcotest.test_case "snapshot sees begin state" `Quick
            test_snapshot_sees_begin_state;
          Alcotest.test_case "snapshot sees deleted row" `Quick
            test_snapshot_sees_deleted_row;
          Alcotest.test_case "snapshot sees own writes" `Quick
            test_snapshot_sees_own_writes ] );
      ( "non-blocking",
        [ Alcotest.test_case "freeze" `Quick test_snapshot_read_ignores_freeze;
          Alcotest.test_case "latch" `Quick test_snapshot_read_ignores_latch;
          Alcotest.test_case "write lock" `Quick
            test_snapshot_read_ignores_write_lock;
          Alcotest.test_case "sync phase end to end" `Quick
            test_sync_phase_nonblocking_for_snapshots ] );
      ( "gc",
        [ Alcotest.test_case "respects snapshots" `Quick
            test_gc_respects_snapshots;
          Alcotest.test_case "retention hint gates system writes" `Quick
            test_retention_hint_gates_system_writes;
          Alcotest.test_case "wal pin does not hold versions" `Quick
            test_gc_ignores_wal_pin;
          Alcotest.test_case "horizon is oldest snapshot" `Quick
            test_gc_horizon_is_oldest_snapshot ] );
      ( "lazy migration",
        [ Alcotest.test_case "demand migration" `Quick
            test_lazy_demand_migration;
          Alcotest.test_case "hybrid sweep completes" `Quick
            test_hybrid_sweep_completes ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_snapshot_visibility ] ) ]
