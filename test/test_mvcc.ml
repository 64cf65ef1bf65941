(* MVCC tests: snapshot-isolation visibility against the version
   chains, snapshot reads staying non-blocking under every
   synchronization mechanism (freeze, latch, record lock), version
   GC respecting active snapshots, reclamation at writer finish with
   bounded work per commit and a transaction table that forgets, the
   lazy / hybrid migration strategies of the strategy-aware
   schema-change API, a change's targets hidden from snapshots until
   it is done, and a reference model of snapshot reads under locked
   writers and a schema change. *)

open Nbsc_value
open Nbsc_lock
open Nbsc_storage
open Nbsc_txn
open Nbsc_core
module H = Helpers
module Obs = Nbsc_obs.Obs

let key a = Row.make [ Value.Int a ]

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
  | Ok () -> H.ok "commit" (Manager.commit mgr txn)
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
    (H.ok "snap read 1" (Manager.read mgr ~txn:snap ~table:"t" ~key:(key 1)));
  (match H.ok "snap read 2" (Manager.read mgr ~txn:snap ~table:"t" ~key:(key 2)) with
   | None -> ()
   | Some _ -> Alcotest.fail "row inserted after begin is visible");
  H.ok "snap commit" (Manager.commit mgr snap);
  (* A fresh locked reader sees the current state. *)
  let txn = Manager.begin_txn mgr in
  check_b "current value" "v1"
    (H.ok "read" (Manager.read mgr ~txn ~table:"t" ~key:(key 1)));
  H.ok "commit" (Manager.commit mgr txn)

let test_snapshot_sees_deleted_row () =
  let db = fresh_table () in
  let mgr = Db.manager db in
  commit_op db (fun m txn -> Manager.insert m ~txn ~table:"t" (H.ri 1 "keep" 7));
  let snap = Manager.begin_txn ~isolation:`Snapshot mgr in
  commit_op db (fun m txn -> Manager.delete m ~txn ~table:"t" ~key:(key 1));
  (* Gone from the heap, still reachable through the version chain. *)
  check_b "deleted row still visible" "keep"
    (H.ok "snap read" (Manager.read mgr ~txn:snap ~table:"t" ~key:(key 1)));
  H.ok "snap commit" (Manager.commit mgr snap);
  let txn = Manager.begin_txn mgr in
  (match H.ok "read" (Manager.read mgr ~txn ~table:"t" ~key:(key 1)) with
   | None -> ()
   | Some _ -> Alcotest.fail "delete not visible to a fresh reader");
  H.ok "commit" (Manager.commit mgr txn)

let test_snapshot_sees_own_writes () =
  let db = fresh_table () in
  let mgr = Db.manager db in
  commit_op db (fun m txn -> Manager.insert m ~txn ~table:"t" (H.ri 1 "v0" 7));
  let snap = Manager.begin_txn ~isolation:`Snapshot mgr in
  H.ok "own update"
    (Manager.update mgr ~txn:snap ~table:"t" ~key:(key 1)
       [ (1, Value.Text "mine") ]);
  H.ok "own insert" (Manager.insert mgr ~txn:snap ~table:"t" (H.ri 2 "also" 8));
  check_b "own update visible" "mine"
    (H.ok "read 1" (Manager.read mgr ~txn:snap ~table:"t" ~key:(key 1)));
  check_b "own insert visible" "also"
    (H.ok "read 2" (Manager.read mgr ~txn:snap ~table:"t" ~key:(key 2)));
  H.ok "commit" (Manager.commit mgr snap)

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
  Manager.intercept mgr ~id:1
    { Manager.empty_interceptor with frozen = [ "t" ] };
  let eager = Manager.begin_txn mgr in
  (match Manager.read mgr ~txn:eager ~table:"t" ~key:(key 1) with
   | Error (`Frozen _) -> ()
   | Ok _ -> Alcotest.fail "locked read admitted on a frozen table"
   | Error e -> Alcotest.failf "unexpected error: %a" Manager.pp_error e);
  ignore (Manager.abort mgr eager);
  let snap = Manager.begin_txn ~isolation:`Snapshot mgr in
  check_b "snapshot read under freeze" "v0"
    (H.ok "snap read" (Manager.read mgr ~txn:snap ~table:"t" ~key:(key 1)));
  H.ok "snap commit" (Manager.commit mgr snap);
  Manager.release mgr ~id:1

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
    (H.ok "snap read" (Manager.read mgr ~txn:snap ~table:"t" ~key:(key 1)));
  H.ok "snap commit" (Manager.commit mgr snap);
  Latch.unlatch (Manager.latches mgr) ~holder ~table:"t"

let test_snapshot_read_ignores_write_lock () =
  let db = fresh_table () in
  let mgr = Db.manager db in
  commit_op db (fun m txn -> Manager.insert m ~txn ~table:"t" (H.ri 1 "v0" 7));
  (* A writer holds the X lock, uncommitted. *)
  let writer = Manager.begin_txn mgr in
  H.ok "write"
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
    (H.ok "snap read" (Manager.read mgr ~txn:snap ~table:"t" ~key:(key 1)));
  H.ok "writer commit" (Manager.commit mgr writer);
  (* The writer committed after the snapshot began: still invisible. *)
  check_b "commit after begin invisible" "v0"
    (H.ok "snap reread" (Manager.read mgr ~txn:snap ~table:"t" ~key:(key 1)));
  H.ok "snap commit" (Manager.commit mgr snap)

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
  H.ok "old insert" (Manager.insert mgr ~txn:old_txn ~table:"R" (H.ri 999 "old" 3));
  let options =
    Options.{ default with sync = Blocking_commit; scan_batch = 7;
              propagate_batch = 5; drop_sources = false }
  in
  let tf = H.start db ~options (Spec.Foj H.foj_spec) in
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
  (match H.ok "snap read" (Manager.read mgr ~txn:snap ~table:"R" ~key:(key 1)) with
   | Some _ -> ()
   | None -> Alcotest.fail "snapshot read lost the row during sync");
  H.ok "snap commit" (Manager.commit mgr snap);
  H.ok "old commit" (Manager.commit mgr old_txn);
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
    (H.ok "snap read" (Manager.read mgr ~txn:snap ~table:"t" ~key:(key 1)));
  (match Obs.Registry.find (Db.obs db) "storage.versions_live" with
   | Some (Obs.Gauge_v v) ->
     Alcotest.(check int) "versions_live probe" (Table.versions_count tbl)
       (int_of_float v)
   | _ -> Alcotest.fail "storage.versions_live probe missing");
  H.ok "snap commit" (Manager.commit mgr snap);
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
   each commit reclaims the version it pushed, under the pin. *)
let test_gc_ignores_wal_pin () =
  let db, tbl, pin, set = pinned_row () in
  let mgr = Db.manager db in
  List.iter
    (fun b ->
       set b;
       Alcotest.(check int) ("chain empty after " ^ b) 0
         (Table.versions_count tbl))
    [ "v1"; "v2"; "v3"; "v4"; "v5" ];
  ignore (Manager.gc_versions mgr);
  Alcotest.(check int) "chain emptied under the pin" 0
    (Table.versions_count tbl);
  Manager.unpin_wal mgr pin

(* The same five commits under a snapshot keep their versions; once the
   snapshot goes, GC empties the chain under the pin. *)
let test_gc_ignores_wal_pin_after_snapshot () =
  let db, tbl, pin, set = pinned_row () in
  let mgr = Db.manager db in
  let snap = Manager.begin_txn ~isolation:`Snapshot mgr in
  List.iter set [ "v1"; "v2"; "v3"; "v4"; "v5" ];
  Alcotest.(check int) "chain grew" 5 (Table.versions_count tbl);
  H.ok "snap commit" (Manager.commit mgr snap);
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
    (H.ok "snap read" (Manager.read mgr ~txn:snap ~table:"t" ~key:(key 1)));
  H.ok "snap commit" (Manager.commit mgr snap);
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
    (H.ok "snap read" (Manager.read mgr ~txn:snap ~table:"t" ~key:(key 1)));
  (* Snapshot live: the overwritten state is retained and resolved. *)
  sys_update "s1";
  Alcotest.(check int) "snapshot live, version kept" 1
    (Table.versions_count tbl);
  check_b "overwritten state resolved" "s0"
    (H.ok "snap reread" (Manager.read mgr ~txn:snap ~table:"t" ~key:(key 1)));
  H.ok "snap commit" (Manager.commit mgr snap);
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
  (match H.ok "snap2 read" (Manager.read mgr ~txn:snap2 ~table:"t" ~key:(key 1))
   with
   | None -> ()
   | Some _ -> Alcotest.fail "deleted row resurrected from a stale chain");
  H.ok "snap2 commit" (Manager.commit mgr snap2)

(* {1 Reclamation at finish}

   Versions go when their writer finishes, or from a queue later writer
   commits drain a few entries at a time: no call walks every chain,
   and the transaction table keeps only what a live snapshot can still
   ask about. *)

let probe db name =
  match Obs.Registry.find (Db.obs db) name with
  | Some (Obs.Gauge_v v) -> int_of_float v
  | Some (Obs.Counter_v n) -> n
  | _ -> Alcotest.failf "no metric %s" name

let update_b db k b =
  commit_op db (fun m txn ->
      Manager.update m ~txn ~table:"t" ~key:(key k) [ (1, Value.Text b) ])

(* A snapshot held across 5 000 single-update commits on distinct keys
   queues each key. After its release, each writer commit reclaims its
   own version and drains at most [reclaim_budget] queued keys. *)
let test_reclaim_bounded () =
  let db = fresh_table () in
  let mgr = Db.manager db in
  let tbl = Catalog.find (Db.catalog db) "t" in
  let n = 5_000 in
  H.ok "load" (Db.load db ~table:"t" (List.init (n + 1) (fun k -> H.ri k "v0" 1)));
  let snap = Manager.begin_txn ~isolation:`Snapshot mgr in
  for k = 1 to n do
    update_b db k "v1"
  done;
  Alcotest.(check int) "every version kept" n (Table.versions_count tbl);
  Alcotest.(check int) "every key queued" n
    (probe db "storage.versions_pending");
  H.ok "snap commit" (Manager.commit mgr snap);
  Alcotest.(check int) "a read-only commit reclaims nothing" n
    (Table.versions_count tbl);
  let budget = Manager.reclaim_budget in
  let commits = ref 0 in
  while Table.versions_count tbl > 0 && !commits <= n do
    let before = probe db "storage.versions_reclaimed" in
    update_b db 0 (string_of_int !commits);
    let got = probe db "storage.versions_reclaimed" - before in
    if got > 1 + budget then
      Alcotest.failf "commit %d reclaimed %d versions, budget %d + its own"
        !commits got budget;
    incr commits
  done;
  Alcotest.(check int) "chains empty within the budget's commits"
    ((n + budget - 1) / budget) !commits;
  Alcotest.(check int) "queue drained" 0 (probe db "storage.versions_pending")

(* System overwrites queue their key once while it is queued. *)
let test_reclaim_hot_keys () =
  let db = fresh_table () in
  let mgr = Db.manager db in
  let tbl = Catalog.find (Db.catalog db) "t" in
  H.ok "load" (Db.load db ~table:"t" (List.init 20 (fun k -> H.ri k "v0" 1)));
  let snap = Manager.begin_txn ~isolation:`Snapshot mgr in
  for i = 1 to 10_000 do
    let k = key (i mod 20) in
    let lsn =
      Nbsc_wal.Log.append (Manager.log mgr) ~txn:Nbsc_wal.Log_record.system_txn
        ~prev_lsn:Nbsc_wal.Lsn.zero (Nbsc_wal.Log_record.Fuzzy_mark { active = [] })
    in
    let r = Option.get (Table.find tbl k) in
    let row = Row.update r.Record.row [ (1, Value.Text (string_of_int i)) ] in
    match Table.set_record tbl ~key:k (Record.with_lsn (Record.with_row r row) lsn) with
    | Ok () -> ()
    | Error `Not_found -> Alcotest.fail "set_record"
  done;
  Alcotest.(check bool) "at most one queue entry per key" true
    (probe db "storage.versions_pending" <= 20);
  check_b "snapshot reads its begin state" "v0"
    (H.ok "snap read" (Manager.read mgr ~txn:snap ~table:"t" ~key:(key 7)));
  H.ok "snap commit" (Manager.commit mgr snap);
  ignore (Manager.gc_versions mgr);
  Alcotest.(check int) "chains emptied" 0 (Table.versions_count tbl);
  Alcotest.(check int) "queue drained" 0 (probe db "storage.versions_pending")

(* With no snapshot open, a committed transaction leaves the table at
   its commit, and [status] stays exact. *)
let test_txns_forget_history () =
  let db = fresh_table () in
  let mgr = Db.manager db in
  H.ok "load" (Db.load db ~table:"t" [ H.ri 1 "a" 1; H.ri 2 "b" 2 ]);
  let first = Manager.begin_txn mgr in
  H.ok "first commit" (Manager.commit mgr first);
  let aborted = Manager.begin_txn mgr in
  H.ok "abort" (Manager.abort mgr aborted);
  (* A deadlock: the younger of two writers dies. *)
  let w1 = Manager.begin_txn mgr and w2 = Manager.begin_txn mgr in
  let upd txn k = Manager.update mgr ~txn ~table:"t" ~key:(key k) [ (1, Value.Text "x") ] in
  H.ok "w1 1" (upd w1 1);
  H.ok "w2 2" (upd w2 2);
  (match upd w1 2 with
   | Error (`Blocked _) -> ()
   | _ -> Alcotest.fail "w1 should block");
  (match upd w2 1 with
   | Error (`Deadlock _) -> ()
   | _ -> Alcotest.fail "w2 should die");
  H.ok "victim abort" (Manager.abort mgr w2);
  H.ok "w1 retry" (upd w1 2);
  H.ok "w1 commit" (Manager.commit mgr w1);
  for _ = 1 to 100_000 do
    let txn = Manager.begin_txn mgr in
    H.ok "commit" (Manager.commit mgr txn);
    let tracked = probe db "txn.tracked" in
    if tracked > 1 then Alcotest.failf "txn.tracked %d after a commit" tracked
  done;
  Alcotest.(check bool) "first id committed" true
    (Manager.status mgr first = Manager.Committed);
  Alcotest.(check bool) "aborted id aborted" true
    (Manager.status mgr aborted = Manager.Aborted);
  Alcotest.(check bool) "victim is a victim" true (Manager.is_victim mgr w2);
  Alcotest.(check bool) "victim aborted" true
    (Manager.status mgr w2 = Manager.Aborted);
  Alcotest.(check bool) "its survivor committed" true
    (Manager.status mgr w1 = Manager.Committed)

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
  let tf = H.start db ~options:(migrate_opts Options.Lazy) (Spec.Foj H.foj_spec) in
  Alcotest.(check bool) "populating" true
    (Transform.phase tf = Transform.Populating);
  (* Touch one source record before any background work: it must be in
     the target immediately, paid for by the touching transaction. *)
  let txn = Manager.begin_txn mgr in
  ignore (H.ok "read" (Manager.read mgr ~txn ~table:"R" ~key:(key 5)));
  H.ok "commit" (Manager.commit mgr txn);
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
    H.start db
      ~options:(migrate_opts (Options.Hybrid { sweep_quantum = 9 }))
      (Spec.Foj H.foj_spec)
  in
  (* No user ever touches a record: the background sweep alone must
     complete the change on an idle system. *)
  run_tf tf ~between:(fun () -> ());
  Alcotest.(check int) "no demand migrations" 0 (Transform.demand_migrations tf);
  H.check_relations_equal "T = FOJ(R, S)" (H.foj_oracle db) (Db.snapshot db "T")

(* {1 Targets hidden until the flip}

   No snapshot reads a change's target before the change is done, so
   the target's system writes (population, propagation, split's counter
   bumps) push no version before the flip, even under a snapshot open
   the whole time. Once the change is done it is an ordinary table
   again. *)

let sync_name = function
  | Options.Blocking_commit -> "blocking commit"
  | Options.Nonblocking_abort -> "non-blocking abort"
  | Options.Nonblocking_commit -> "non-blocking commit"

let syncs =
  [ Options.Blocking_commit; Options.Nonblocking_abort;
    Options.Nonblocking_commit ]

(* A system overwrite of one of [tbl]'s rows at a fresh LSN, as split's
   counter bump makes one. *)
let system_overwrite mgr tbl =
  let lsn =
    Nbsc_wal.Log.append (Manager.log mgr) ~txn:Nbsc_wal.Log_record.system_txn
      ~prev_lsn:Nbsc_wal.Lsn.zero (Nbsc_wal.Log_record.Fuzzy_mark { active = [] })
  in
  let first acc k r = match acc with Some _ -> acc | None -> Some (k, r) in
  match Table.fold tbl ~init:None ~f:first with
  | None -> Alcotest.failf "%s is empty" (Table.name tbl)
  | Some (k, r) ->
    (match Table.set_record tbl ~key:k (Record.with_lsn r lsn) with
     | Ok () -> ()
     | Error `Not_found -> Alcotest.fail "set_record")

let test_hidden_until_flip ~db ~spec ~traffic sync () =
  let mgr = Db.manager db in
  let snap = Manager.begin_txn ~isolation:`Snapshot mgr in
  let options =
    Options.{ default with sync; scan_batch = 16; propagate_batch = 8 }
  in
  let tf = H.start db ~options spec in
  let targets = List.map (Db.table db) (Transform.targets tf) in
  let flipped = ref false in
  while not !flipped do
    traffic ();
    (match Transform.step tf with
     | `Running | `Done -> ()
     | `Failed m -> Alcotest.failf "change failed: %s" m);
    List.iter
      (fun tbl ->
         let n = Table.versions_count tbl in
         if n <> 0 then
           Alcotest.failf "%s holds %d versions before the flip"
             (Table.name tbl) n)
      targets;
    flipped := Transform.routing tf = `Targets
  done;
  run_tf tf ~between:traffic;
  List.iter
    (fun tbl ->
       (match Manager.read mgr ~txn:snap ~table:(Table.name tbl) ~key:(key 1) with
        | Error (`No_table _) -> ()
        | Ok _ | Error _ ->
          Alcotest.failf "a snapshot older than the flip read %s"
            (Table.name tbl));
       let before = Table.versions_count tbl in
       system_overwrite mgr tbl;
       Alcotest.(check int)
         (Table.name tbl ^ ": a system overwrite once done pushes")
         (before + 1) (Table.versions_count tbl))
    targets;
  H.ok "snap commit" (Manager.commit mgr snap)

let hidden_cases =
  List.concat_map
    (fun sync ->
       [ Alcotest.test_case ("200-row split, " ^ sync_name sync) `Quick
           (fun () ->
              let db = H.fresh_split_db ~t_rows:(H.seed_t_rows ~n:200) in
              let d = H.driver db in
              test_hidden_until_flip ~db
                ~spec:(Spec.Split (H.split_spec ~assume_consistent:true))
                ~traffic:(fun () -> H.random_t_op d)
                sync ());
         Alcotest.test_case ("200-row foj, " ^ sync_name sync) `Quick
           (fun () ->
              let r_rows, s_rows = H.seed_rows ~r:200 ~s:17 in
              let db = H.fresh_foj_db ~r_rows ~s_rows in
              let d = H.driver db in
              test_hidden_until_flip ~db ~spec:(Spec.Foj H.foj_spec)
                ~traffic:(fun () -> H.random_r_op d; H.random_s_op d)
                sync ()) ])
    syncs

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
       let tf = H.start db ~options:(migrate_opts Options.Lazy) (Spec.Foj H.foj_spec) in
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


(* {2 Reference model}

   Up to three locked writers and two snapshot readers over six keys of
   a flat table T(a, b, c, d), and one schema change: the split of T
   into R(a, b, c) and S(c, d), started at a drawn step under a drawn
   sync strategy, with T kept. The model is the committed value of
   each key's [b] column, plus each writer's own writes; a reader
   copies the committed state when it begins, dirty records or not.
   Writers stop writing at the flip; those still open finish as drawn.
   After every step each live reader must read T exactly as its copy,
   and one begun before the change is done, while it drains included,
   must find neither target: propagation stamps a target row as
   committed at its source record's LSN, so a draining change's
   targets can hold the state of a writer still open at such a
   reader's begin. Once the schedule ends, every writer commits, the
   change runs to Done and one more reader begins: it must read the
   targets as the split of its copy. Then every transaction finishes
   and GC runs: no version and no tracked transaction may remain. *)

type step =
  | W_begin of int
  | W_write of int * int * int * int  (* writer, 0 update / 1 insert / 2 delete, key, value *)
  | W_finish of int * bool  (* writer, commit *)
  | R_begin of int
  | R_end of int
  | C_start  (* start the change, once *)
  | C_step  (* one quantum of the change *)

let n_keys = 6

(* Key k's split column, with d derived from it: T keeps the
   dependency c -> d, as the split requires. *)
let c_of k = k mod 3
let t_row k b = H.ti k b (c_of k) (H.city_of (c_of k))

let show_step = function
  | W_begin w -> Printf.sprintf "W%d begin" w
  | W_write (w, op, k, v) ->
    Printf.sprintf "W%d %s %d=%d" w [| "update"; "insert"; "delete" |].(op) k v
  | W_finish (w, c) -> Printf.sprintf "W%d %s" w (if c then "commit" else "abort")
  | R_begin r -> Printf.sprintf "R%d begin" r
  | R_end r -> Printf.sprintf "R%d end" r
  | C_start -> "change start"
  | C_step -> "change step"

let schedule_arb =
  let open QCheck.Gen in
  let step =
    frequency
      [ (2, map (fun w -> W_begin w) (int_bound 2));
        ( 6,
          map
            (fun (w, op, k, v) -> W_write (w, op, k, v))
            (quad (int_bound 2) (int_bound 2) (int_bound (n_keys - 1))
               (int_bound 99)) );
        (2, map2 (fun w c -> W_finish (w, c)) (int_bound 2) bool);
        (1, map (fun r -> R_begin r) (int_bound 1));
        (1, map (fun r -> R_end r) (int_bound 1));
        (1, return C_start);
        (3, return C_step) ]
  in
  QCheck.make
    ~print:(fun (sync, l) ->
        sync_name sync ^ ": " ^ String.concat "; " (List.map show_step l))
    ~shrink:(QCheck.Shrink.pair QCheck.Shrink.nil QCheck.Shrink.list)
    (pair (oneofl syncs) (list_size (int_bound 60) step))

let show_value = function Some b -> b | None -> "absent"
let show_row = function Some row -> Row.to_string row | None -> "absent"

(* When a reader began: before the flip, between the flip and the
   change's end, or after it. *)
type era = Before_flip | Draining | After_done

let prop_reference_model =
  QCheck.Test.make ~name:"snapshot reads match the reference model" ~count:300
    schedule_arb
    (fun (sync, steps) ->
       let db = H.fresh_split_db ~t_rows:[] in
       let mgr = Db.manager db in
       let committed = Array.init n_keys (fun k -> if k < 3 then Some "init" else None) in
       H.ok "load"
         (Db.load db ~table:"T"
            (List.filter_map
               (fun k -> Option.map (t_row k) committed.(k))
               (List.init n_keys Fun.id)));
       let change = ref None in
       let era () =
         match !change with
         | None -> Before_flip
         | Some tf ->
           if Transform.phase tf = Transform.Done then After_done
           else if Transform.routing tf = `Targets then Draining
           else Before_flip
       in
       (* A writer's id and its own writes, [Some v] per key it wrote. *)
       let writers = Array.make 3 None in
       (* A reader's id, the committed state at its begin and its era;
          the last slot is the reader begun once the change is done. *)
       let readers = Array.make 3 None in
       let finish_writer w commit =
         match writers.(w) with
         | None -> ()
         | Some (id, own) ->
           writers.(w) <- None;
           let committed_ok =
             commit
             && (match Manager.commit mgr id with
                 | Ok () -> true
                 | Error _ -> false)
           in
           if committed_ok then
             Array.iteri
               (fun k v -> Option.iter (fun v -> committed.(k) <- v) v)
               own
           else H.ok "abort" (Manager.abort mgr id)
       in
       let begin_reader r =
         readers.(r) <-
           Some
             (Manager.begin_txn ~isolation:`Snapshot mgr, Array.copy committed,
              era ())
       in
       let run = function
         | W_begin w ->
           if writers.(w) = None && era () = Before_flip then
             writers.(w) <- Some (Manager.begin_txn mgr, Array.make n_keys None)
         | W_write (w, op, k, v) ->
           (match writers.(w) with
            | Some (id, own) when era () = Before_flip ->
              let b = Printf.sprintf "w%d.%d" w v in
              let res =
                match op with
                | 0 ->
                  Manager.update mgr ~txn:id ~table:"T" ~key:(key k)
                    [ (1, Value.Text b) ]
                | 1 -> Manager.insert mgr ~txn:id ~table:"T" (t_row k b)
                | _ -> Manager.delete mgr ~txn:id ~table:"T" ~key:(key k)
              in
              (match res with
               | Ok () -> own.(k) <- Some (if op = 2 then None else Some b)
               | Error (`Deadlock _ | `Abort_only) -> finish_writer w false
               | Error _ -> ())
            | Some _ | None -> ())
         | W_finish (w, commit) -> finish_writer w commit
         | R_begin r -> if readers.(r) = None then begin_reader r
         | R_end r ->
           Option.iter
             (fun (id, _, _) ->
                readers.(r) <- None;
                H.ok "reader commit" (Manager.commit mgr id))
             readers.(r)
         | C_start ->
           if Option.is_none !change then
             change :=
               Some
                 (H.start db
                    ~options:
                      Options.{ default with sync; scan_batch = 2;
                                propagate_batch = 2; drop_sources = false }
                    (Spec.Split (H.split_spec ~assume_consistent:true)))
         | C_step ->
           Option.iter
             (fun tf ->
                if Transform.phase tf <> Transform.Done then
                  match Transform.step tf with
                  | `Running | `Done -> ()
                  | `Failed m -> QCheck.Test.fail_reportf "change failed: %s" m)
             !change
       in
       let snap_read id table k =
         match Manager.read mgr ~txn:id ~table ~key:(key k) with
         | Ok row -> row
         | Error e -> Alcotest.failf "snapshot read of %s: %a" table Manager.pp_error e
       in
       let check what =
         Array.iteri
           (fun r reader ->
              Option.iter
                (fun (id, seen, began) ->
                   for k = 0 to n_keys - 1 do
                     let got =
                       Option.map
                         (fun row ->
                            match Row.get row 1 with
                            | Value.Text b -> b
                            | _ -> "?")
                         (snap_read id "T" k)
                     in
                     if got <> seen.(k) then
                       QCheck.Test.fail_reportf "%s R%d read T key %d as %s, model %s"
                         what r k (show_value got) (show_value seen.(k))
                   done;
                   match began with
                   | Before_flip | Draining ->
                     List.iter
                       (fun table ->
                          match Manager.read mgr ~txn:id ~table ~key:(key 0) with
                          | Error (`No_table _) -> ()
                          | Ok _ | Error _ ->
                            QCheck.Test.fail_reportf
                              "%s R%d, begun before the change was done, \
                               found target %s"
                              what r table)
                       [ "R"; "S" ]
                   | After_done ->
                     let r_rel, s_rel =
                       Nbsc_relalg.Relalg.split H.split_relalg
                         (Nbsc_relalg.Relalg.make H.t_flat_schema
                            (List.filter_map
                               (fun k -> Option.map (t_row k) seen.(k))
                               (List.init n_keys Fun.id)))
                     in
                     let expect (rel : Nbsc_relalg.Relalg.t) k =
                       List.find_opt
                         (fun row -> Value.equal (Row.get row 0) (Value.Int k))
                         rel.rows
                     in
                     List.iter
                       (fun (table, rel) ->
                          for k = 0 to n_keys - 1 do
                            let got = snap_read id table k in
                            let want = expect rel k in
                            if not (Option.equal Row.equal got want) then
                              QCheck.Test.fail_reportf
                                "%s R%d read %s key %d as %s, oracle %s" what r
                                table k (show_row got) (show_row want)
                          done)
                       [ ("R", r_rel); ("S", s_rel) ])
                reader)
           readers
       in
       List.iteri
         (fun i step ->
            run step;
            (* A writer wounded by another's lock request, or aborted by
               the change at its flip, is rolled back. *)
            Array.iteri
              (fun w writer ->
                 Option.iter
                   (fun (id, _) ->
                      if not (Manager.is_active mgr id) then writers.(w) <- None)
                   writer)
              writers;
            check (Printf.sprintf "after step %d (%s)" i (show_step step)))
         steps;
       Array.iteri (fun w _ -> finish_writer w true) writers;
       run C_start;
       (match Transform.run (Option.get !change) with
        | Ok () -> ()
        | Error m -> QCheck.Test.fail_reportf "change failed: %s" m);
       begin_reader 2;
       check "once the change is done";
       Array.iteri (fun r _ -> run (R_end r)) readers;
       ignore (Manager.gc_versions mgr);
       for k = 0 to n_keys - 1 do
         let got =
           Option.map
             (fun row -> match Row.get row 1 with Value.Text b -> b | _ -> "?")
             (Manager.read_dirty mgr ~table:"T" ~key:(key k))
         in
         if got <> committed.(k) then
           QCheck.Test.fail_reportf "final key %d is %s, model %s" k
             (show_value got) (show_value committed.(k))
       done;
       let tracked =
         match Obs.Registry.find (Db.obs db) "txn.tracked" with
         | Some (Obs.Gauge_v v) -> int_of_float v
         | _ -> -1
       in
       let versions =
         List.fold_left
           (fun n t -> n + Table.versions_count (Db.table db t))
           0 [ "T"; "R"; "S" ]
       in
       if versions <> 0 || tracked <> 0 then
         QCheck.Test.fail_reportf "after GC: %d versions, txn.tracked %d"
           versions tracked;
       true)

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
          Alcotest.test_case "wal pin does not hold versions past a snapshot"
            `Quick test_gc_ignores_wal_pin_after_snapshot;
          Alcotest.test_case "horizon is oldest snapshot" `Quick
            test_gc_horizon_is_oldest_snapshot ] );
      ( "reclamation",
        [ Alcotest.test_case "bounded work per commit" `Quick
            test_reclaim_bounded;
          Alcotest.test_case "hot keys queue once" `Quick test_reclaim_hot_keys;
          Alcotest.test_case "txns forget history" `Quick
            test_txns_forget_history ] );
      ( "lazy migration",
        [ Alcotest.test_case "demand migration" `Quick
            test_lazy_demand_migration;
          Alcotest.test_case "hybrid sweep completes" `Quick
            test_hybrid_sweep_completes ] );
      ("hidden targets", hidden_cases);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_snapshot_visibility; prop_reference_model ] ) ]
