(* Storage integrity and I/O-fault tolerance: checksummed format
   verification (bit flips, truncation, version headers), the
   disk-error model (transient-EIO retry, ENOSPC degraded mode), the
   offline scrub, and the fuzz property that corruption detection is
   total — damage is either repaired to an oracle-justified committed
   state or reported as [`Corrupt], never silently absorbed. *)

open Nbsc_value
open Nbsc_storage
open Nbsc_txn
open Nbsc_engine
open Nbsc_core
module H = Helpers
module Obs = Nbsc_obs.Obs

let fresh_dir () = H.fresh_dir "integrity"

let setup_orders p =
  let db = Persist.db p in
  ignore (Db.create_table db ~name:"t" H.r_schema);
  H.ok_p "checkpoint" (Persist.checkpoint p)

let insert p a b c =
  let db = Persist.db p in
  let txn = Manager.begin_txn (Db.manager db) in
  H.ok "insert" (Manager.insert (Db.manager db) ~txn ~table:"t" (H.ri a b c));
  H.ok "commit" (Manager.commit (Db.manager db) txn)

let rows p =
  Table.fold (Db.table (Persist.db p) "t") ~init:[] ~f:(fun acc _ r ->
      r.Record.row :: acc)
  |> List.sort Row.compare

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let counter_value c = Obs.Counter.value c

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

let scrub dir =
  match Db.Scrub.verify_dir ~dir with
  | Ok r -> r
  | Error e -> Alcotest.failf "scrub: %s" (Nbsc_error.to_string e)

(* A small valid store: table [t] with [n] committed single-row
   transactions after the DDL checkpoint. *)
let build_store ?(n = 5) dir =
  let p = H.ok_p "create" (Persist.create_dir ~dir) in
  setup_orders p;
  for i = 1 to n do
    insert p i "v" i
  done;
  p

(* A store whose FOJ change is populating, so a checkpoint retains the
   WAL from the change's start. *)
let build_foj_store dir =
  let p = H.ok_p "create" (Persist.create_dir ~dir) in
  let db = Persist.db p in
  ignore (Db.create_table db ~name:"R" H.r_schema);
  ignore (Db.create_table db ~name:"S" H.s_schema);
  let r_rows, s_rows = H.seed_rows ~r:12 ~s:6 in
  H.ok "load R" (Db.load db ~table:"R" r_rows);
  H.ok "load S" (Db.load db ~table:"S" s_rows);
  H.ok_p "ddl checkpoint" (Persist.checkpoint p);
  let sc =
    match
      Db.Schema_change.start db
        ~options:
          { Options.default with
            Options.scan_batch = 4; propagate_batch = 3; drop_sources = false }
        (Spec.Foj H.foj_spec)
    with
    | Ok sc -> sc
    | Error e -> Alcotest.fail (Nbsc_error.to_string e)
  in
  ignore (Db.Schema_change.step sc);
  (p, sc)

(* R's [b] column, keyed by [a]. *)
let r_names db =
  Table.fold (Db.table db "R") ~init:[] ~f:(fun acc _ r ->
      match r.Record.row with
      | [| Value.Int a; Value.Text b; _ |] -> (a, b) :: acc
      | _ -> acc)
  |> List.sort compare

let rename db a b =
  H.ok "rename"
    (Db.with_txn db (fun txn ->
         Manager.update (Db.manager db) ~txn ~table:"R"
           ~key:(Row.make [ Value.Int a ]) [ (1, Value.Text b) ]))

(* Close [p]; [dir] must reopen with R's names as [acked]. *)
let reopens_with acked p dir =
  Persist.close p;
  let p2 = H.ok_p "reopen" (Persist.open_dir ~dir) in
  Alcotest.(check (list (pair int string))) "every acknowledged row" acked
    (r_names (Persist.db p2));
  Persist.close p2;
  H.wipe dir

(* {1 Bit flips: silent at write time, detected at read time} *)

let expect_corrupt name = function
  | Error (`Corrupt c) -> c
  | Ok _ -> Alcotest.failf "%s: expected Corrupt, opened fine" name
  | Error e -> Alcotest.failf "%s: expected Corrupt, got %a" name
                 Persist.pp_error e

let test_bit_flip_wal () =
  Fault.reset ();
  let dir = fresh_dir () in
  let p = build_store ~n:2 dir in
  let before = counter_value (Disk_format.crc_failures ()) in
  (* The flip damages the framed bytes after the CRC was computed:
     nothing raises, the write "succeeds" — silent media rot. *)
  Fault.arm ~mode:Fault.Bit_flip "wal_append";
  insert p 3 "flipped" 3;
  Fault.reset ();
  Persist.close p;
  let c = expect_corrupt "bit-flipped wal" (Persist.open_dir ~dir) in
  Alcotest.(check bool) "context names the wal" true
    (match c.Nbsc_error.c_path with
     | Some path -> Filename.basename path = "wal.nbsc"
     | None -> false);
  Alcotest.(check bool) "context carries a line" true
    (c.Nbsc_error.c_line <> None);
  Alcotest.(check bool) "crc failure counted" true
    (counter_value (Disk_format.crc_failures ()) > before);
  (* The scrub sees the same damage without opening the store. *)
  Alcotest.(check bool) "scrub flags it" false (Db.Scrub.ok (scrub dir));
  H.wipe dir

let test_bit_flip_snapshot () =
  Fault.reset ();
  let dir = fresh_dir () in
  let p = build_store ~n:3 dir in
  Fault.arm ~mode:Fault.Bit_flip "snapshot_write";
  H.ok_p "checkpoint with flip" (Persist.checkpoint p);
  Fault.reset ();
  Persist.close p;
  let c = expect_corrupt "bit-flipped snapshot" (Persist.open_dir ~dir) in
  Alcotest.(check bool) "context names the snapshot" true
    (match c.Nbsc_error.c_path with
     | Some path -> Filename.basename path = "snapshot.nbsc"
     | None -> false);
  (* Rendered context is self-describing. *)
  let s = Nbsc_error.corruption_to_string c in
  Alcotest.(check bool) "message carries the file" true
    (contains_sub s "snapshot.nbsc");
  H.wipe dir

(* A checkpoint copies the retained WAL from the file, checking each
   line: a record damaged on its way to disk is written again from
   memory, so the store reopens clean. *)
let test_checkpoint_heals_flipped_record () =
  Fault.reset ();
  let dir = fresh_dir () in
  let p, _ = build_foj_store dir in
  let db = Persist.db p in
  Fault.arm ~mode:Fault.Bit_flip "wal_append";
  rename db 1 "flipped";
  Fault.reset ();
  let acked = r_names db in
  H.ok_p "checkpoint" (Persist.checkpoint p);
  reopens_with acked p dir

(* Damage that gains or loses a newline shifts every later line of the
   file off its record. The checkpoint's copy notices at the first sound
   line with the wrong LSN and writes the rest from memory, so the
   store still reopens clean. *)
let test_checkpoint_heals_shifted_lines () =
  Fault.reset ();
  let dir = fresh_dir () in
  let p, _ = build_foj_store dir in
  let db = Persist.db p in
  for a = 1 to 4 do
    rename db a "renamed"
  done;
  let acked = r_names db in
  let wpath = Disk_format.wal_path dir in
  let lines = String.split_on_char '\n' (H.read_file wpath) in
  let n = List.length lines in
  (* Split the fourth line from the end in two; join the last two. *)
  write_file wpath
    (String.concat ""
       (List.mapi
          (fun i l ->
             if i = n - 5 then
               let h = String.length l / 2 in
               String.sub l 0 h ^ "\n" ^ String.sub l h (String.length l - h) ^ "\n"
             else if i = n - 3 then l ^ " "
             else if i = n - 1 then l
             else l ^ "\n")
          lines));
  H.ok_p "checkpoint" (Persist.checkpoint p);
  reopens_with acked p dir

(* A flip armed at [wal_rewrite] damages the middle line of the
   retained suffix the checkpoint copies, and reopen reports that line. *)
let test_bit_flip_wal_rewrite () =
  Fault.reset ();
  let dir = fresh_dir () in
  let p, _ = build_foj_store dir in
  for a = 1 to 3 do
    rename (Persist.db p) a "renamed"
  done;
  Fault.arm ~mode:Fault.Bit_flip "wal_rewrite";
  H.ok_p "checkpoint with flip" (Persist.checkpoint p);
  Fault.reset ();
  Persist.close p;
  let wpath = Disk_format.wal_path dir in
  (* Header, then the retained lines: the flipped one is line 2 + n/2. *)
  let retained = List.length (String.split_on_char '\n' (H.read_file wpath)) - 2 in
  Alcotest.(check bool) "a suffix is retained" true (retained > 1);
  let c = expect_corrupt "bit-flipped wal copy" (Persist.open_dir ~dir) in
  Alcotest.(check (option string)) "the wal" (Some wpath) c.Nbsc_error.c_path;
  Alcotest.(check (option int)) "its middle line" (Some (2 + (retained / 2)))
    c.Nbsc_error.c_line;
  H.wipe dir

(* {1 Version header} *)

let test_header_rejection () =
  let dir = fresh_dir () in
  let p = build_store ~n:1 dir in
  Persist.close p;
  let spath = Disk_format.snapshot_path dir in
  let original = H.read_file spath in
  (* Headerless (pre-v2) file: strip line 1. *)
  (match String.index_opt original '\n' with
   | Some i ->
     write_file spath
       (String.sub original (i + 1) (String.length original - i - 1))
   | None -> Alcotest.fail "snapshot has no lines");
  let c = expect_corrupt "pre-v2 dir" (Persist.open_dir ~dir) in
  Alcotest.(check bool) "pre-v2 message is specific" true
    (contains_sub c.Nbsc_error.c_reason "pre-v");
  (* Some other version's magic: supported-format message instead. *)
  (match String.index_opt original '\n' with
   | Some i ->
     write_file spath
       ("nbsc:snapshot:v99"
        ^ String.sub original i (String.length original - i))
   | None -> ());
  let c = expect_corrupt "future version" (Persist.open_dir ~dir) in
  Alcotest.(check bool) "version message is specific" true
    (contains_sub c.Nbsc_error.c_reason "not supported");
  H.wipe dir

(* {1 Snapshot trailer: truncation at a line boundary} *)

let test_trailer_detects_line_truncation () =
  let dir = fresh_dir () in
  let p = build_store ~n:4 dir in
  H.ok_p "checkpoint" (Persist.checkpoint p);
  Persist.close p;
  let spath = Disk_format.snapshot_path dir in
  let original = H.read_file spath in
  let lines = String.split_on_char '\n' original in
  (* Drop the second-to-last line (the last is "" from the trailing
     newline; before it sits the trailer): a payload line vanishes but
     every surviving line still checksums. *)
  let n = List.length lines in
  let cut = List.filteri (fun i _ -> i <> n - 3) lines in
  write_file spath (String.concat "\n" cut);
  let c = expect_corrupt "spliced snapshot" (Persist.open_dir ~dir) in
  Alcotest.(check bool) "trailer count mismatch reported" true
    (contains_sub c.Nbsc_error.c_reason "trailer");
  H.wipe dir

(* {1 Transient EIO: bounded retry} *)

let test_transient_eio_retried () =
  Fault.reset ();
  let dir = fresh_dir () in
  let p = build_store ~n:1 dir in
  let before = counter_value (Disk_format.io_retries ()) in
  Fault.arm
    ~mode:(Fault.Io_error { errno = Fault.EIO; transient = true })
    "wal_append";
  (* One blip: the arming fires once, the retry succeeds, the commit
     never sees it. *)
  insert p 2 "retried" 2;
  Fault.reset ();
  Alcotest.(check int) "one retry for one blip" (before + 1)
    (counter_value (Disk_format.io_retries ()));
  Persist.close p;
  let p2 = H.ok_p "reopen" (Persist.open_dir ~dir) in
  Alcotest.(check int) "row durable despite the blip" 2
    (List.length (rows p2));
  Persist.close p2;
  H.wipe dir

(* {1 Persistent EIO: no retry, a typed error} *)

let persistent_eio = Fault.Io_error { errno = Fault.EIO; transient = false }

(* A dead disk is not retried. At the WAL flush the commit that needed
   it raises [`Io] instead of being acknowledged; a checkpoint returns
   [`Io] and leaves the published snapshot and WAL as they were. Either
   way the store reopens after a crash with every acknowledged row. *)
let test_persistent_eio () =
  Fault.reset ();
  let retries () = counter_value (Disk_format.io_retries ()) in
  let dir = fresh_dir () in
  let p = build_store ~n:2 dir in
  let acked = rows p in
  let before = retries () in
  Fault.arm ~mode:persistent_eio "wal_append";
  let mgr = Db.manager (Persist.db p) in
  let txn = Manager.begin_txn mgr in
  H.ok "insert" (Manager.insert mgr ~txn ~table:"t" (H.ri 3 "unacked" 3));
  (match Manager.commit mgr txn with
   | exception Nbsc_error.Error (`Io _) -> ()
   | Ok () -> Alcotest.fail "commit acknowledged on a dead disk"
   | Error e -> Alcotest.failf "commit: %a" Manager.pp_error e);
  Fault.reset ();
  Alcotest.(check int) "wal_append: no retry" before (retries ());
  Persist.crash p;
  let p =
    H.ok_p "reopen after the wal_append failure" (Persist.open_dir ~dir)
  in
  Alcotest.(check bool) "every acknowledged row after wal_append" true
    (List.for_all (fun r -> List.mem r (rows p)) acked);
  insert p 4 "after" 4;
  let acked = rows p in
  Fault.arm ~mode:persistent_eio "snapshot_write";
  (match Persist.checkpoint p with
   | Error (`Io _) -> ()
   | Ok () -> Alcotest.fail "checkpoint published on a dead disk"
   | Error e -> Alcotest.failf "checkpoint: %a" Persist.pp_error e);
  Fault.reset ();
  Alcotest.(check int) "snapshot_write: no retry" before (retries ());
  Persist.crash p;
  let p = H.ok_p "reopen after the snapshot_write failure" (Persist.open_dir ~dir) in
  Alcotest.(check bool) "every acknowledged row after snapshot_write" true
    (List.for_all (fun r -> List.mem r (rows p)) acked);
  Persist.close p;
  H.wipe dir

(* A commit whose durability barrier raises is rolled back before the
   exception reaches its caller: its row is gone at once, and the
   rollback's records follow its Commit record in the buffered suffix,
   so the next acknowledged commit makes the rollback durable too. *)
let test_failed_commit_rolled_back () =
  Fault.reset ();
  let dir = fresh_dir () in
  let p = build_store ~n:2 dir in
  let mgr = Db.manager (Persist.db p) in
  Fault.arm ~mode:persistent_eio "wal_append";
  let txn = Manager.begin_txn mgr in
  H.ok "insert" (Manager.insert mgr ~txn ~table:"t" (H.ri 3 "unacked" 3));
  (match Manager.commit mgr txn with
   | exception Nbsc_error.Error (`Io _) -> ()
   | Ok () -> Alcotest.fail "commit acknowledged on a dead disk"
   | Error e -> Alcotest.failf "commit: %a" Manager.pp_error e);
  Alcotest.(check bool) "the raising commit is aborted" true
    (Manager.status mgr txn = Manager.Aborted);
  Alcotest.(check bool) "its row is not readable" true
    (Manager.read_dirty mgr ~table:"t" ~key:(Row.make [ Value.Int 3 ]) = None);
  Fault.reset ();
  insert p 4 "after" 4;
  let acked = rows p in
  Alcotest.(check int) "acknowledged rows" 3 (List.length acked);
  Persist.crash p;
  let p = H.ok_p "reopen" (Persist.open_dir ~dir) in
  Alcotest.(check (list string)) "exactly the acknowledged rows"
    (List.map Row.to_string acked) (List.map Row.to_string (rows p));
  Persist.close p;
  H.wipe dir

(* {1 ENOSPC: degraded mode, reads stay up, change resumes} *)

let hpred = Pred.Cmp ("c", Pred.Gt, Value.Int 6)

let hspec =
  { Spec.h_source = "T";
    h_true_table = "archive";
    h_false_table = "live";
    h_pred = hpred }

let cfg =
  { Options.default with
    Options.scan_batch = 4;
    propagate_batch = 3;
    drop_sources = false }

let test_enospc_degrades_and_recovers () =
  Fault.reset ();
  let dir = fresh_dir () in
  let p = H.ok_p "create" (Persist.create_dir ~dir) in
  let db = Persist.db p in
  let mgr = Db.manager db in
  ignore (Db.create_table db ~name:"T" H.t_flat_schema);
  (match Db.load db ~table:"T" (H.seed_t_rows ~n:40) with
   | Ok () -> ()
   | Error e -> Alcotest.failf "load T: %a" Manager.pp_error e);
  H.ok_p "setup checkpoint" (Persist.checkpoint p);
  let tf = H.start db ~options:cfg (Spec.Hsplit hspec) in
  (* A few quanta in, the disk fills. *)
  for _ = 1 to 3 do
    ignore (Db.step_jobs db)
  done;
  let stalls_before = counter_value (Disk_format.disk_full_stalls ()) in
  Fault.arm
    ~mode:(Fault.Io_error { errno = Fault.ENOSPC; transient = false })
    "wal_append";
  (* The write that hits the full disk is acked into the buffer (group
     commit semantics) and flips the manager into degraded mode... *)
  let txn = Manager.begin_txn mgr in
  ignore (Manager.insert mgr ~txn ~table:"T" (H.ti 900_001 "w" 9 "z"));
  ignore (Manager.commit mgr txn);
  ignore (Db.step_jobs db);
  Alcotest.(check bool) "manager degraded" true (Manager.disk_full mgr);
  Alcotest.(check bool) "stall counted" true
    (counter_value (Disk_format.disk_full_stalls ()) > stalls_before);
  (* ...after which writers get the typed refusal... *)
  let txn = Manager.begin_txn mgr in
  (match Manager.insert mgr ~txn ~table:"T" (H.ti 900_002 "w" 9 "z") with
   | Error `Disk_full -> ()
   | Ok () -> Alcotest.fail "insert should be refused while disk is full"
   | Error e -> Alcotest.failf "insert: %a" Manager.pp_error e);
  H.ok "abort proceeds while degraded" (Manager.abort mgr txn);
  (* ...checkpoints refuse rather than publish an uncovered snapshot... *)
  (match Persist.checkpoint p with
   | Error (`Disk_full _) -> ()
   | Ok () -> Alcotest.fail "checkpoint should refuse while disk is full"
   | Error e -> Alcotest.failf "checkpoint: %a" Persist.pp_error e);
  (* ...reads stay serviceable... *)
  Alcotest.(check bool) "reads stay up" true (Db.row_count db "T" > 0);
  (* ...and the schema change pauses instead of failing: its progress
     freezes while the quanta probe for space. *)
  let frozen = (Transform.progress tf).Transform.scanned in
  for _ = 1 to 5 do
    ignore (Db.step_jobs db)
  done;
  Alcotest.(check int) "transformation paused" frozen
    (Transform.progress tf).Transform.scanned;
  Alcotest.(check bool) "still registered" true (Db.jobs db <> []);
  (* Space returns: the next probe flushes, degraded mode clears
     automatically, and the change runs to completion. *)
  Fault.disarm "wal_append";
  (match Db.run_jobs db with
   | Ok () -> ()
   | Error m -> Alcotest.failf "run_jobs after disarm: %s" m);
  Alcotest.(check bool) "degraded mode cleared" false (Manager.disk_full mgr);
  let t = Db.snapshot db "T" in
  let pc = Pred.compile H.t_flat_schema hpred in
  H.check_relations_equal "archive" (Nbsc_relalg.Relalg.select t pc)
    (Db.snapshot db "archive");
  H.check_relations_equal "live"
    (Nbsc_relalg.Relalg.select t (fun row -> not (pc row)))
    (Db.snapshot db "live");
  H.ok_p "checkpoint after recovery" (Persist.checkpoint p);
  Persist.close p;
  (* The acked-while-degraded commit was buffered, then flushed: it
     must be durable now. *)
  let p2 = H.ok_p "reopen" (Persist.open_dir ~dir) in
  Alcotest.(check int) "buffered commit durable" 41
    (Db.row_count (Persist.db p2) "T");
  Persist.close p2;
  H.wipe dir

(* A checkpoint closes the WAL's append channel before it rewrites
   wal.nbsc. When the rewrite fails with a typed error, the old file is
   intact (the rename never happened) and the channel must be back open:
   the store keeps committing, checkpointing and reopening. *)
let test_enospc_wal_rewrite_keeps_store_writable () =
  Fault.reset ();
  let dir = fresh_dir () in
  let p = build_store ~n:2 dir in
  Fault.arm
    ~mode:(Fault.Io_error { errno = Fault.ENOSPC; transient = false })
    "wal_rewrite";
  (match Persist.checkpoint p with
   | Error (`Disk_full _) -> ()
   | Ok () -> Alcotest.fail "checkpoint should fail while the disk is full"
   | Error e -> Alcotest.failf "checkpoint: %a" Persist.pp_error e);
  Fault.disarm "wal_rewrite";
  insert p 3 "after" 3;
  H.ok_p "checkpoint once space returns" (Persist.checkpoint p);
  Persist.close p;
  let p2 = H.ok_p "reopen" (Persist.open_dir ~dir) in
  Alcotest.(check (list int)) "every row durable" [ 1; 2; 3 ]
    (List.map
       (fun r -> match r.(0) with Value.Int a -> a | _ -> -1)
       (rows p2));
  Persist.close p2;
  H.wipe dir

(* The same full disk under the [Job_state] records a checkpoint
   appends after its snapshot: their flush finds no space, so they stay
   in the sink's buffer, and the WAL rewrite fails too. The old file
   never got them; they must stay buffered and reach it with the next
   flush, or the records after them leave a gap no reopen accepts. *)
let test_enospc_job_state_and_rewrite_keep_wal_contiguous () =
  Fault.reset ();
  let dir = fresh_dir () in
  let p, sc = build_foj_store dir in
  let db = Persist.db p in
  let enospc = Fault.Io_error { errno = Fault.ENOSPC; transient = false } in
  Fault.arm ~mode:enospc "wal_append";
  Fault.arm ~mode:enospc "wal_rewrite";
  (match Persist.checkpoint p with
   | Error (`Disk_full _) -> ()
   | Ok () -> Alcotest.fail "checkpoint should fail while the disk is full"
   | Error e -> Alcotest.failf "checkpoint: %a" Persist.pp_error e);
  Alcotest.(check int) "the rewrite was tried" 1 (Fault.hits "wal_rewrite");
  Fault.reset ();
  (* The step's probe flushes the buffer and lifts degraded mode. *)
  ignore (Db.Schema_change.step sc);
  Alcotest.(check bool) "degraded mode cleared" false
    (Manager.disk_full (Db.manager db));
  rename db 2 "after";
  rename db 3 "after";
  let acked = r_names db in
  reopens_with acked p dir

(* {1 Scrub} *)

let test_scrub_clean_then_corrupt () =
  let dir = fresh_dir () in
  let p = build_store ~n:3 dir in
  H.ok_p "checkpoint" (Persist.checkpoint p);
  insert p 9 "after" 9;
  Persist.close p;
  let r = scrub dir in
  Alcotest.(check bool) "fresh store is clean" true (Db.Scrub.ok r);
  Alcotest.(check int) "no errors" 0 (List.length (Db.Scrub.errors r));
  (* Flip one payload byte in the WAL: scrub must localise it. *)
  let wpath = Disk_format.wal_path dir in
  let s = Bytes.of_string (H.read_file wpath) in
  let pos = Bytes.length s - 5 in
  Bytes.set s pos (Char.chr (Char.code (Bytes.get s pos) lxor 0x01));
  write_file wpath (Bytes.to_string s);
  let r = scrub dir in
  Alcotest.(check bool) "damage found" false (Db.Scrub.ok r);
  let errs = Db.Scrub.errors r in
  Alcotest.(check bool) "error localised to the wal" true
    (List.exists
       (fun c ->
          match c.Nbsc_error.c_path with
          | Some path -> Filename.basename path = "wal.nbsc"
          | None -> false)
       errs);
  (* Missing directory is a directory-level error, not a report. *)
  (match Db.Scrub.verify_dir ~dir:(dir ^ "_nonexistent") with
   | Error (`Io _) -> ()
   | Ok _ -> Alcotest.fail "scrub of a missing dir should error"
   | Error e -> Alcotest.failf "scrub: %s" (Nbsc_error.to_string e));
  H.wipe dir

let test_scrub_tolerates_torn_tail () =
  let dir = fresh_dir () in
  let p = build_store ~n:2 dir in
  Persist.close p;
  let wpath = Disk_format.wal_path dir in
  let oc = open_out_gen [ Open_append ] 0o644 wpath in
  output_string oc "abcd1234:half-a-reco";
  close_out oc;
  let r = scrub dir in
  (* The torn tail is the legitimate crash signature: noted, clean. *)
  Alcotest.(check bool) "torn tail tolerated" true (Db.Scrub.ok r);
  Alcotest.(check bool) "and noted" true
    (List.exists
       (fun f ->
          Filename.basename f.Db.Scrub.f_path = "wal.nbsc"
          && f.Db.Scrub.f_torn_tail)
       r.Db.Scrub.files);
  H.wipe dir

(* {1 Store files: missing is damage, and both readers agree} *)

(* A store that lost its WAL lost acknowledged commits; reopening it
   from the snapshot alone would drop them without a word. *)
let test_missing_wal_refused () =
  let dir = fresh_dir () in
  let p = build_store ~n:5 dir in
  Persist.close p;
  Sys.remove (Disk_format.wal_path dir);
  let c = expect_corrupt "store without its wal" (Persist.open_dir ~dir) in
  Alcotest.(check (option string)) "names the wal"
    (Some (Disk_format.wal_path dir)) c.Nbsc_error.c_path;
  H.wipe dir

(* [create_dir] writes the WAL before the snapshot's rename publishes
   the store. A crash before that rename leaves an unpublished
   directory, which [create_dir] takes again. *)
let test_create_dir_crash_before_rename () =
  Fault.reset ();
  let dir = fresh_dir () in
  Fault.arm "snapshot_rename";
  (match Persist.create_dir ~dir with
   | exception Fault.Injected _ -> ()
   | _ -> Alcotest.fail "create_dir should have crashed at snapshot_rename");
  Fault.reset ();
  Alcotest.(check (pair bool bool)) "wal written, snapshot unpublished"
    (true, false)
    (Sys.file_exists (Disk_format.wal_path dir),
     Sys.file_exists (Disk_format.snapshot_path dir));
  let p = H.ok_p "create again" (Persist.create_dir ~dir) in
  setup_orders p;
  insert p 1 "v" 1;
  Persist.close p;
  let r = scrub dir in
  Alcotest.(check (list string)) "scrubs clean" []
    (List.map Nbsc_error.corruption_to_string (Db.Scrub.errors r));
  let p = H.ok_p "reopen" (Persist.open_dir ~dir) in
  Alcotest.(check int) "the row" 1 (List.length (rows p));
  Persist.close p;
  H.wipe dir

(* Rewrite a store file's payload lines with [f] and frame them again
   with sound checksums (and, for a snapshot, a trailer counting them):
   damage that every checksum passes. *)
let rewrite_payloads kind dir f =
  let path, magic, payloads, trailer =
    match kind with
    | `Snapshot ->
      let path = Disk_format.snapshot_path dir in
      ( path, Disk_format.snapshot_magic,
        (H.ok_p "read" (Disk_format.read Disk_format.Snapshot path))
          .Disk_format.payloads,
        fun n -> [ Disk_format.trailer n ] )
    | `Wal ->
      let path = Disk_format.wal_path dir in
      ( path, Disk_format.wal_magic,
        List.map Nbsc_wal.Log_record.encode
          (H.ok_p "read" (Disk_format.read Disk_format.Wal path))
            .Disk_format.payloads,
        fun _ -> [] )
  in
  let payloads = f payloads in
  write_file path
    (String.concat "\n"
       (magic
        :: List.map Disk_format.frame
             (payloads @ trailer (List.length payloads)))
     ^ "\n")

let snapshot_line tag fields = tag ^ Codec.encode_string_list fields

let add_snapshot_line line dir =
  rewrite_payloads `Snapshot dir (fun ls -> ls @ [ line ])

(* Append one operation record to the WAL, next in its LSN chain,
   under a transaction id of its own with no [Begin], so recovery
   redoes it and never rolls it back. *)
let append_wal_op op dir =
  rewrite_payloads `Wal dir (fun ls ->
      let last = Nbsc_wal.Log_record.decode (List.nth ls (List.length ls - 1)) in
      ls
      @ [ Nbsc_wal.(
            Log_record.encode
              { Log_record.lsn = Lsn.next last.Log_record.lsn;
                txn = last.Log_record.txn + 1;
                prev_lsn = Lsn.zero;
                body = Log_record.Op op }) ])

(* Damaged stores, one fault each, so the scrub reports one error and
   reopening refuses the store the scrub calls corrupt. Where the
   damage passes every checksum, both name the table and what did not
   fit it. *)
let test_scrub_and_reopen_agree () =
  let cut_last_byte path =
    let s = H.read_file path in
    write_file path (String.sub s 0 (String.length s - 1))
  in
  List.iter
    (fun (name, expect, damage) ->
       let dir = fresh_dir () in
       Persist.close (build_store ~n:5 dir);
       damage dir;
       let r = scrub dir in
       let errors = Db.Scrub.errors r in
       Alcotest.(check int) (name ^ ": one error") 1 (List.length errors);
       let c = expect_corrupt name (Persist.open_dir ~dir) in
       List.iter
         (fun c ->
            let m = Nbsc_error.corruption_to_string c in
            List.iter
              (fun sub ->
                 if not (contains_sub m sub) then
                   Alcotest.failf "%s: %S does not say %S" name m sub)
              expect)
         (c :: errors);
       H.wipe dir)
    [ ("wal deleted", [], fun dir -> Sys.remove (Disk_format.wal_path dir));
      ("wal emptied", [], fun dir -> write_file (Disk_format.wal_path dir) "");
      ( "snapshot's final newline cut", [],
        fun dir -> cut_last_byte (Disk_format.snapshot_path dir) );
      ( "junk appended to the snapshot", [],
        fun dir ->
          let path = Disk_format.snapshot_path dir in
          write_file path (H.read_file path ^ "junk\n") );
      ( "an older wal copied back over a newer snapshot", [],
        fun dir ->
          let path = Disk_format.wal_path dir in
          let old = H.read_file path in
          let p = H.ok_p "reopen" (Persist.open_dir ~dir) in
          insert p 6 "v" 6;
          insert p 7 "v" 7;
          H.ok_p "checkpoint" (Persist.checkpoint p);
          Persist.close p;
          write_file path old );
      ( "a row with one value for a three-column table",
        [ "table t"; "1 values"; "snapshot.nbsc"; "line 4)" ],
        add_snapshot_line
          (snapshot_line "R:"
             [ "t"; "1"; "0"; "C"; "0";
               Codec.encode_string_list [ Value.encode (Value.Int 99) ] ]) );
      ( "a second T: line for a table",
        [ "table t defined twice"; "snapshot.nbsc"; "line 4)" ],
        fun dir ->
          rewrite_payloads `Snapshot dir (fun ls ->
              ls @ List.filter (fun l -> String.sub l 0 2 = "T:") ls) );
      (* A [T:] line's schema field: the arity, then each column's
         name, type and nullability, then the key's column names. *)
      ( "a T: line whose key names no column",
        [ "table u"; "\"zz\""; "snapshot.nbsc"; "line 4)" ],
        add_snapshot_line
          (snapshot_line "T:"
             [ "u"; Codec.encode_string_list [ "1"; "a"; "int"; "0"; "zz" ] ])
      );
      ( "a T: line with a duplicate column",
        [ "table u"; "duplicate column \"a\""; "snapshot.nbsc"; "line 4)" ],
        add_snapshot_line
          (snapshot_line "T:"
             [ "u";
               Codec.encode_string_list
                 [ "2"; "a"; "int"; "0"; "a"; "text"; "1"; "a" ] ])
      );
      ( "an I: line naming an unknown column",
        [ "index ix of table t"; "unknown column zz"; "snapshot.nbsc";
          "line 4)" ],
        add_snapshot_line (snapshot_line "I:" [ "t"; "ix"; "zz" ]) );
      ( "an O: line naming an unknown column",
        [ "ordered index ix of table t"; "unknown column zz";
          "snapshot.nbsc"; "line 4)" ],
        add_snapshot_line (snapshot_line "O:" [ "t"; "ix"; "zz" ]) );
      ( "a wal insert with one value for a three-column table",
        [ "table t"; "1 values" ],
        append_wal_op
          (Nbsc_wal.Log_record.Insert { table = "t"; row = [| Value.Int 99 |] })
      );
      ( "a wal update that sets the key column", [ "key column 0 of table t" ],
        append_wal_op
          (Nbsc_wal.Log_record.Update
             { table = "t"; key = [| Value.Int 1 |];
               changes = [ (0, Value.Int 99) ]; before = [ (0, Value.Int 1) ] })
      ) ]

(* {1 The fuzz property: corruption detection is total}

   Build a valid store recording the state after every commit, then
   damage one of the files — flip one random byte, or truncate at a
   random offset. Reopening must either report [`Corrupt] or recover
   to one of the recorded committed states (truncating the WAL loses a
   suffix of commits, which is exactly a crash); anything else is
   silent divergence. The offline scrub, run first, must pass exactly
   the stores reopening opens. *)

let prop_damage_never_silent =
  QCheck.Test.make ~name:"one-byte flip / truncation never silent" ~count:60
    QCheck.(quad (int_range 1 8) bool bool (int_bound 10_000))
    (fun (nrows, damage_wal, flip, raw_pos) ->
       let dir = fresh_dir () in
       let p = match Persist.create_dir ~dir with
         | Ok p -> p
         | Error _ -> QCheck.Test.fail_report "create_dir failed"
       in
       setup_orders p;
       (* Committed states: rows after 0, 1, .. nrows commits. *)
       let states = ref [ [] ] in
       for i = 1 to nrows do
         insert p i "v" i;
         states := rows p :: !states
       done;
       (* Also checkpoint sometimes, so snapshot damage matters. *)
       if nrows mod 2 = 0 then ignore (Persist.checkpoint p);
       for i = nrows + 1 to nrows + 2 do
         insert p i "v" i;
         states := rows p :: !states
       done;
       Persist.close p;
       let path =
         if damage_wal then Disk_format.wal_path dir
         else Disk_format.snapshot_path dir
       in
       let original = H.read_file path in
       let len = String.length original in
       if len = 0 then QCheck.Test.fail_report "empty file";
       let pos = raw_pos mod len in
       (if flip then begin
          let b = Bytes.of_string original in
          Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x20));
          write_file path (Bytes.to_string b)
        end
        else write_file path (String.sub original 0 pos));
       let scrub_ok = Db.Scrub.ok (scrub dir) in
       let outcome = Persist.open_dir ~dir in
       let agree = scrub_ok = Result.is_ok outcome in
       let result =
         match outcome with
         | Error (`Corrupt _) -> true
         | Error _ -> false
         | Ok p2 ->
           let got = rows p2 in
           Persist.close p2;
           List.exists
             (fun want ->
                List.length want = List.length got
                && List.for_all2 Row.equal want got)
             !states
       in
       H.wipe dir;
       let what =
         Printf.sprintf "%s %s at %d (nrows=%d)"
           (if damage_wal then "wal" else "snapshot")
           (if flip then "flip" else "truncate")
           pos nrows
       in
       if not result then QCheck.Test.fail_reportf "silent divergence: %s" what;
       if not agree then
         QCheck.Test.fail_reportf "scrub %s the store, reopen %s it: %s"
           (if scrub_ok then "passes" else "fails")
           (if Result.is_ok outcome then "opens" else "refuses")
           what;
       true)

let () =
  Alcotest.run "integrity"
    [ ( "checksums",
        [ Alcotest.test_case "bit flip in wal detected" `Quick
            test_bit_flip_wal;
          Alcotest.test_case "bit flip in snapshot detected" `Quick
            test_bit_flip_snapshot;
          Alcotest.test_case "header versions rejected" `Quick
            test_header_rejection;
          Alcotest.test_case "trailer detects line truncation" `Quick
            test_trailer_detects_line_truncation;
          Alcotest.test_case "a checkpoint heals a flipped retained record"
            `Quick test_checkpoint_heals_flipped_record;
          Alcotest.test_case "a checkpoint heals lines a newline shifted"
            `Quick test_checkpoint_heals_shifted_lines;
          Alcotest.test_case "bit flip in a checkpoint's wal copy detected"
            `Quick test_bit_flip_wal_rewrite ] );
      ( "disk errors",
        [ Alcotest.test_case "persistent EIO not retried" `Quick
            test_persistent_eio;
          Alcotest.test_case "a commit whose flush fails is rolled back"
            `Quick test_failed_commit_rolled_back;
          Alcotest.test_case "transient EIO retried" `Quick
            test_transient_eio_retried;
          Alcotest.test_case "ENOSPC degrades and recovers" `Quick
            test_enospc_degrades_and_recovers;
          Alcotest.test_case "ENOSPC during WAL rewrite keeps the store writable"
            `Quick test_enospc_wal_rewrite_keeps_store_writable;
          Alcotest.test_case
            "ENOSPC at the job-state flush and the WAL rewrite keeps the WAL \
             contiguous"
            `Quick test_enospc_job_state_and_rewrite_keep_wal_contiguous ] );
      ( "scrub",
        [ Alcotest.test_case "clean then corrupt" `Quick
            test_scrub_clean_then_corrupt;
          Alcotest.test_case "torn tail tolerated" `Quick
            test_scrub_tolerates_torn_tail;
          Alcotest.test_case "scrub and reopen agree on damaged stores"
            `Quick test_scrub_and_reopen_agree ] );
      ( "store files",
        [ Alcotest.test_case "a store without wal.nbsc is refused" `Quick
            test_missing_wal_refused;
          Alcotest.test_case "create_dir crashed before its rename runs again"
            `Quick test_create_dir_crash_before_rename ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_damage_never_silent ] ) ]
