(* The crash matrix: every fault-injection site × every transformation
   operator. Each arm dry-runs the scenario to learn how often a site
   is consulted, then re-runs it with a crash armed mid-range: the
   in-memory database is abandoned ([Persist.crash]), the directory is
   reopened, in-flight schema changes are resumed ([Transform.resume]),
   and the store must still converge to the relational oracle of the
   final source tables.

   Also here: the replay_into idempotence properties (satellite of the
   durability work) and the restart-from-scratch scenario folded in
   from test_restart.ml, now exercised through the Persist path. *)

open Nbsc_value
open Nbsc_storage
open Nbsc_txn
open Nbsc_engine
open Nbsc_core
module H = Helpers

let base_seed =
  match Sys.getenv_opt "NBSC_CRASH_SEED" with
  | Some s -> (try int_of_string s with Failure _ -> 42)
  | None -> 42

let counter = ref 0

(* No unix dependency: uniqueness from a counter + random suffix. *)
let fresh_dir () =
  incr counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "nbsc_crashmx_%d_%d" !counter (Random.int 1_000_000))

let cfg =
  { Options.default with
    Options.scan_batch = 7;
    propagate_batch = 5;
    drop_sources = false }

(* The same knobs as an [Options.t] with a non-eager migration
   strategy, for the lazy/hybrid arms of the matrix. *)
let opts_of migration =
  Options.{ cfg with strategy = migration }

(* Start an operator's change with [cfg], unless the arm passes its
   own options. *)
let start_op ?options db spec =
  ignore (H.start db ~options:(Option.value options ~default:cfg) spec)

(* One operator scenario of the matrix. *)
type op_case = {
  op_name : string;
  op_sources : string list;
  op_targets : string list;
  setup : Persist.t -> unit;  (* create + load sources, checkpoint *)
  start : ?options:Options.t -> Db.t -> unit;
      (* kick off the transformation *)
  traffic : H.driver -> unit; (* one round of committed user work *)
  oracle : Db.t -> (string * Nbsc_relalg.Relalg.t) list;
      (* target -> expected relation, from the final sources *)
}

(* {1 The four operators} *)

let checkpoint_ddl p = H.ok_p "setup checkpoint" (Persist.checkpoint p)

let foj_case =
  { op_name = "foj";
    op_sources = [ "R"; "S" ];
    op_targets = [ "T" ];
    setup =
      (fun p ->
         let db = Persist.db p in
         ignore (Db.create_table db ~name:"R" H.r_schema);
         ignore (Db.create_table db ~name:"S" H.s_schema);
         let r_rows, s_rows = H.seed_rows ~r:40 ~s:20 in
         (match Db.load db ~table:"R" r_rows with
          | Ok () -> ()
          | Error e -> Alcotest.failf "load R: %a" Manager.pp_error e);
         (match Db.load db ~table:"S" s_rows with
          | Ok () -> ()
          | Error e -> Alcotest.failf "load S: %a" Manager.pp_error e);
         checkpoint_ddl p);
    start =
      (fun ?options db -> start_op ?options db (Spec.Foj H.foj_spec));
    traffic =
      (fun d ->
         H.random_r_op d;
         H.random_s_op d);
    oracle = (fun db -> [ ("T", H.foj_oracle db) ]) }

let setup_flat_t p =
  let db = Persist.db p in
  ignore (Db.create_table db ~name:"T" H.t_flat_schema);
  (match Db.load db ~table:"T" (H.seed_t_rows ~n:60) with
   | Ok () -> ()
   | Error e -> Alcotest.failf "load T: %a" Manager.pp_error e);
  checkpoint_ddl p

let split_case =
  { op_name = "split";
    op_sources = [ "T" ];
    op_targets = [ "R"; "S" ];
    setup = setup_flat_t;
    start =
      (fun ?options db ->
         start_op ?options db
           (Spec.Split (H.split_spec ~assume_consistent:true)));
    traffic = (fun d -> H.random_t_op ~consistent:true d);
    oracle =
      (fun db ->
         let want_r, want_s =
           Nbsc_relalg.Relalg.split
             { Nbsc_relalg.Relalg.r_cols' = [ "a"; "b"; "c" ];
               s_cols' = [ "c"; "d" ];
               r_key = [ "a" ];
               s_key = [ "c" ] }
             (Db.snapshot db "T")
         in
         [ ("R", want_r); ("S", want_s) ]) }

let hpred = Pred.Cmp ("c", Pred.Gt, Value.Int 6)

let hspec =
  { Spec.h_source = "T";
    h_true_table = "archive";
    h_false_table = "live";
    h_pred = hpred }

let hsplit_case =
  { op_name = "hsplit";
    op_sources = [ "T" ];
    op_targets = [ "archive"; "live" ];
    setup = setup_flat_t;
    start =
      (fun ?options db -> start_op ?options db (Spec.Hsplit hspec));
    traffic = (fun d -> H.random_t_op ~consistent:true d);
    oracle =
      (fun db ->
         let t = Db.snapshot db "T" in
         let p = Pred.compile H.t_flat_schema hpred in
         [ ("archive", Nbsc_relalg.Relalg.select t p);
           ("live", Nbsc_relalg.Relalg.select t (fun row -> not (p row))) ]) }

(* Merge traffic: the shared fresh-key counter keeps A and B keys
   disjoint, so the oracle stays a plain union. *)
let merge_traffic d =
  let mgr = Db.manager d.H.db in
  ignore
    (H.run_txn d (fun txn ->
         let table = if Random.State.bool d.H.rng then "A" else "B" in
         match Random.State.int d.H.rng 3 with
         | 0 ->
           d.H.next_r_key <- d.H.next_r_key + 1;
           Manager.insert mgr ~txn ~table
             (H.ti d.H.next_r_key "new" (Random.State.int d.H.rng 10) "z")
         | 1 ->
           (match H.existing_key d table with
            | Some key ->
              Manager.update mgr ~txn ~table ~key
                [ (1, Value.Text ("w" ^ string_of_int (Random.State.int d.H.rng 100))) ]
            | None -> Ok ())
         | _ ->
           (match H.existing_key d table with
            | Some key -> Manager.delete mgr ~txn ~table ~key
            | None -> Ok ())))

let merge_case =
  { op_name = "merge";
    op_sources = [ "A"; "B" ];
    op_targets = [ "AB" ];
    setup =
      (fun p ->
         let db = Persist.db p in
         ignore (Db.create_table db ~name:"A" H.t_flat_schema);
         ignore (Db.create_table db ~name:"B" H.t_flat_schema);
         (match
            Db.load db ~table:"A"
              (List.init 30 (fun i -> H.ti i "a" (i mod 5) "x"))
          with
          | Ok () -> ()
          | Error e -> Alcotest.failf "load A: %a" Manager.pp_error e);
         (match
            Db.load db ~table:"B"
              (List.init 20 (fun i -> H.ti (100 + i) "b" (i mod 5) "y"))
          with
          | Ok () -> ()
          | Error e -> Alcotest.failf "load B: %a" Manager.pp_error e);
         checkpoint_ddl p);
    start =
      (fun ?options db ->
         start_op ?options db
           (Spec.Merge { Spec.m_sources = [ "A"; "B" ]; m_target = "AB" }));
    traffic = merge_traffic;
    oracle =
      (fun db ->
         let a = Db.snapshot db "A" and b = Db.snapshot db "B" in
         [ ( "AB",
             Nbsc_relalg.Relalg.make H.t_flat_schema
               (a.Nbsc_relalg.Relalg.rows @ b.Nbsc_relalg.Relalg.rows) ) ]) }

let all_cases = [ foj_case; split_case; hsplit_case; merge_case ]

(* The FOJ scenario over a WAL that also holds watermark pairs, the
   inert records an earlier populator wrote and a WAL of the current
   format may still carry. Each traffic round appends a low/high pair
   after its committed writes, so checkpoints keep pairs in the
   retained suffix, and recovery, resume and propagation must skip
   them at every crash site. *)
let foj_watermarks_case =
  { foj_case with
    traffic =
      (fun d ->
         foj_case.traffic d;
         List.iter
           (fun high ->
              ignore
                (Nbsc_wal.Log.append (Db.log d.H.db)
                   ~txn:Nbsc_wal.Log_record.system_txn
                   ~prev_lsn:Nbsc_wal.Lsn.zero
                   (Nbsc_wal.Log_record.Watermark { job = "foj"; high })))
           [ false; true ]) }

(* {1 The harness}

   [run_attempt] plays the scenario from whatever state the directory
   is in: create-or-open, (re)do setup if the sources are missing,
   resume pending jobs or start the transformation, then drive it to
   completion with committed traffic and periodic checkpoints. A
   [Fault.Injected] escaping at any point is the simulated crash; the
   caller abandons the database and calls [run_attempt] again. *)

let run_attempt ?options op dir ~window ~attempt ~current_p =
  let p =
    if Sys.file_exists (Filename.concat dir "snapshot.nbsc") then
      H.ok_p "open" (Persist.open_dir ~dir)
    else H.ok_p "create" (Persist.create_dir ~dir)
  in
  current_p := Some p;
  let db = Persist.db p in
  (* Group commit re-arms after every (re)open: the window is a session
     setting, not durable state. A window of 1 is the classic
     write-through WAL; larger windows leave acked commits in the sink
     buffer, which is exactly the state the checkpoint-side flush and
     the recovery invariant protect. *)
  Manager.set_group_commit (Db.manager db) window;
  let catalog = Db.catalog db in
  if not (List.for_all (Catalog.mem catalog) op.op_sources) then op.setup p;
  (match Transform.resume ~options:(Option.value options ~default:cfg) p with
   | Error e -> Alcotest.failf "%s: resume: %s" op.op_name (Nbsc_error.to_string e)
   | Ok [] ->
     (* Nothing pending: either the transformation never made it into
        the durable state (restart it) or it completed and was
        checkpointed (targets restored from the snapshot). *)
     if not (List.for_all (Catalog.mem catalog) op.op_targets) then
       op.start ?options db
   | Ok tfs ->
     List.iter
       (fun tf ->
          match Transform.phase tf with
          | Transform.Propagating | Transform.Draining ->
            (* The acceptance bar: resuming after population must not
               re-scan the sources. *)
            Alcotest.(check int)
              (op.op_name ^ ": resume re-scans nothing")
              0 (Transform.progress tf).Transform.scanned
          | _ -> ())
       tfs);
  let d = H.driver ~seed:(base_seed + attempt) db in
  (* Fresh keys must not collide with a previous attempt's. *)
  d.H.next_r_key <- 1_000_000 + (attempt * 10_000);
  d.H.next_s_key <- 1_000_000 + (attempt * 10_000);
  let rounds = ref 0 in
  while Db.jobs db <> [] do
    incr rounds;
    if !rounds > 2_000 then
      Alcotest.failf "%s: transformation did not converge" op.op_name;
    ignore (Db.step_jobs db);
    (* Traffic only while the job is in flight: once the quantum above
       finalized the transformation the sources are live again, and a
       write there would be app misuse, not a lost update. *)
    if Db.jobs db <> [] && !rounds <= 120 then op.traffic d;
    if !rounds mod 25 = 0 then H.ok_p "mid checkpoint" (Persist.checkpoint p)
  done;
  H.ok_p "final checkpoint" (Persist.checkpoint p);
  p

(* Run a scenario to the end, crashing and reopening on every injected
   fault. Returns the number of crashes survived. *)
let run_scenario ?options op ~window dir =
  let current_p = ref None in
  let crashes = ref 0 in
  let rec go attempt =
    match run_attempt ?options op dir ~window ~attempt ~current_p with
    | p -> p
    | exception Fault.Injected _ ->
      incr crashes;
      if !crashes > 5 then Alcotest.failf "%s: too many crashes" op.op_name;
      Fault.reset ();
      (match !current_p with Some p -> Persist.crash p | None -> ());
      current_p := None;
      go (attempt + 1)
  in
  let p = go 0 in
  let db = Persist.db p in
  List.iter
    (fun (tname, want) ->
       H.check_relations_equal (op.op_name ^ "/" ^ tname) want
         (Db.snapshot db tname))
    (op.oracle db);
  Persist.close p;
  !crashes

(* The sites consulted only inside [Persist.open_dir] — never during a
   crash-free run, so they get their own double-crash matrix below
   instead of the single-crash sweep. *)
let recovery_sites = [ "snapshot_load"; "recovery_replay"; "recovery_truncate" ]

let runtime_sites =
  List.filter (fun s -> not (List.mem s recovery_sites)) Fault.all_sites

(* Dry run: play the scenario uncrashed with hit tracking on, recording
   how often each site is consulted. *)
let dry_run ?options op ~window =
  Fault.reset ();
  Fault.set_tracking true;
  let dir = fresh_dir () in
  let crashes = run_scenario ?options op ~window dir in
  Alcotest.(check int) (op.op_name ^ ": dry run crash-free") 0 crashes;
  let counts = List.map (fun s -> (s, Fault.hits s)) runtime_sites in
  Fault.reset ();
  H.wipe dir;
  counts

let run_armed ?options op ~window ~site ~mode ~after =
  Fault.reset ();
  let dir = fresh_dir () in
  Fault.arm ~mode ~after site;
  let crashes = run_scenario ?options op ~window dir in
  Fault.reset ();
  H.wipe dir;
  crashes

let test_matrix ?options op ~window () =
  let counts = dry_run ?options op ~window in
  List.iter
    (fun (site, n) ->
       Alcotest.(check bool)
         (Printf.sprintf "%s: site %s exercised" op.op_name site)
         true (n > 0);
       (* Crash mid-range: after half the consultations seen uncrashed. *)
       let crashes =
         run_armed ?options op ~window ~site ~mode:Fault.Crash ~after:(n / 2)
       in
       Alcotest.(check int)
         (Printf.sprintf "%s: crash at %s survived (window %d)" op.op_name
            site window)
         1 crashes)
    counts;
  (* The torn-write variant of the WAL append: half a line reaches the
     file before the crash; reopen must drop the unterminated tail. *)
  let n = List.assoc "wal_append" counts in
  let crashes =
    run_armed ?options op ~window ~site:"wal_append" ~mode:Fault.Torn
      ~after:(n / 2)
  in
  Alcotest.(check int)
    (op.op_name ^ ": torn wal_append survived")
    1 crashes

(* {1 Competitor strategies: shadow-table and trigger-method arms}

   Neither baseline persists a resumable job state — their target
   writes are unlogged, so a crash means restart-from-scratch: drop
   whatever partial targets the snapshot restored and rebuild. The
   harness mirrors [run_attempt]/[run_scenario], but arms only the
   sites a dry run shows the scenario actually consults (a trigger
   run, e.g., never reaches [sync_commit]). *)

module Sh = Nbsc_baseline.Shadow_table
module Tm = Nbsc_baseline.Trigger_method

let shadow_attempt dir ~attempt ~current_p =
  let p =
    if Sys.file_exists (Filename.concat dir "snapshot.nbsc") then
      H.ok_p "open" (Persist.open_dir ~dir)
    else H.ok_p "create" (Persist.create_dir ~dir)
  in
  current_p := Some p;
  let db = Persist.db p in
  Manager.set_group_commit (Db.manager db) 1;
  let catalog = Db.catalog db in
  if not (Catalog.mem catalog "T") then setup_flat_t p;
  (* Restart from scratch: partial targets from a previous attempt are
     unlogged state and must go. *)
  List.iter
    (fun tgt -> if Catalog.mem catalog tgt then Catalog.drop catalog tgt)
    [ "R"; "S" ];
  let packed = Transformation.split db (H.split_spec ~assume_consistent:true) in
  let sh = Sh.create db ~drop_sources:false ~chunk:8 packed in
  let d = H.driver ~seed:(base_seed + attempt) db in
  d.H.next_r_key <- 1_000_000 + (attempt * 10_000);
  let rounds = ref 0 in
  while not (Sh.step sh ~limit:8) do
    incr rounds;
    if !rounds > 2_000 then Alcotest.fail "shadow did not converge";
    if !rounds <= 120 then H.random_t_op ~consistent:true d;
    if !rounds mod 25 = 0 then H.ok_p "mid checkpoint" (Persist.checkpoint p)
  done;
  H.ok_p "final checkpoint" (Persist.checkpoint p);
  p

let trigger_attempt dir ~attempt ~current_p =
  let p =
    if Sys.file_exists (Filename.concat dir "snapshot.nbsc") then
      H.ok_p "open" (Persist.open_dir ~dir)
    else H.ok_p "create" (Persist.create_dir ~dir)
  in
  current_p := Some p;
  let db = Persist.db p in
  Manager.set_group_commit (Db.manager db) 1;
  let catalog = Db.catalog db in
  if not (Catalog.mem catalog "R" && Catalog.mem catalog "S") then
    foj_case.setup p;
  if Catalog.mem catalog "T" then Catalog.drop catalog "T";
  (* install_foj's populate loop consults quantum_end between chunks —
     the armed crash fires inside it. *)
  let tr = Tm.install_foj db H.foj_spec in
  let d = H.driver ~seed:(base_seed + attempt) db in
  d.H.next_r_key <- 1_000_000 + (attempt * 10_000);
  d.H.next_s_key <- 1_000_000 + (attempt * 10_000);
  for i = 1 to 40 do
    H.random_r_op d;
    H.random_s_op d;
    if i mod 15 = 0 then H.ok_p "mid checkpoint" (Persist.checkpoint p)
  done;
  Tm.uninstall tr;
  H.ok_p "final checkpoint" (Persist.checkpoint p);
  p

let run_baseline_scenario attempt_fn ~oracle_check dir =
  let current_p = ref None in
  let crashes = ref 0 in
  let rec go attempt =
    match attempt_fn dir ~attempt ~current_p with
    | p -> p
    | exception Fault.Injected _ ->
      incr crashes;
      if !crashes > 5 then Alcotest.fail "baseline: too many crashes";
      Fault.reset ();
      (match !current_p with Some p -> Persist.crash p | None -> ());
      current_p := None;
      go (attempt + 1)
  in
  let p = go 0 in
  oracle_check (Persist.db p);
  Persist.close p;
  !crashes

let test_baseline_matrix ~name ~must_hit attempt_fn ~oracle_check () =
  Fault.reset ();
  Fault.set_tracking true;
  let dir = fresh_dir () in
  let crashes = run_baseline_scenario attempt_fn ~oracle_check dir in
  Alcotest.(check int) (name ^ ": dry run crash-free") 0 crashes;
  let counts =
    List.filter
      (fun (_, n) -> n > 0)
      (List.map (fun s -> (s, Fault.hits s)) runtime_sites)
  in
  Fault.reset ();
  H.wipe dir;
  List.iter
    (fun site ->
       Alcotest.(check bool)
         (Printf.sprintf "%s: site %s exercised" name site)
         true (List.mem_assoc site counts))
    must_hit;
  List.iter
    (fun (site, n) ->
       Fault.reset ();
       let dir = fresh_dir () in
       Fault.arm ~mode:Fault.Crash ~after:(n / 2) site;
       let crashes = run_baseline_scenario attempt_fn ~oracle_check dir in
       Fault.reset ();
       H.wipe dir;
       Alcotest.(check int)
         (Printf.sprintf "%s: crash at %s survived" name site)
         1 crashes)
    counts

let split_oracle_check db =
  let want_r, want_s =
    Nbsc_relalg.Relalg.split
      { Nbsc_relalg.Relalg.r_cols' = [ "a"; "b"; "c" ]; s_cols' = [ "c"; "d" ];
        r_key = [ "a" ];
        s_key = [ "c" ] }
      (Db.snapshot db "T")
  in
  H.check_relations_equal "shadow/R" want_r (Db.snapshot db "R");
  H.check_relations_equal "shadow/S" want_s (Db.snapshot db "S")

let test_shadow_matrix =
  test_baseline_matrix ~name:"shadow"
    ~must_hit:[ "quantum_end"; "sync_commit"; "wal_append" ]
    shadow_attempt ~oracle_check:split_oracle_check

let test_trigger_matrix =
  test_baseline_matrix ~name:"trigger" ~must_hit:[ "quantum_end"; "wal_append" ]
    trigger_attempt
    ~oracle_check:(fun db ->
        H.check_relations_equal "trigger/T" (H.foj_oracle db)
          (Db.snapshot db "T"))

(* {1 Double crash: a crash during recovery itself}

   The first crash interrupts the transformation mid-flight; the second
   fires inside the [Persist.open_dir] that recovers from the first, at
   one of the recovery-only sites. Recovery must be idempotent: the
   third attempt starts from whatever the aborted recovery left behind
   and must still converge to the clean-run oracle. *)

(* Like [run_scenario], but calls [rearm] with the crash ordinal after
   each injected fault — [run_scenario]'s [Fault.reset] would otherwise
   wipe the not-yet-fired recovery arming. *)
let run_scenario_rearming op ~window ~rearm dir =
  let current_p = ref None in
  let crashes = ref 0 in
  let rec go attempt =
    match run_attempt op dir ~window ~attempt ~current_p with
    | p -> p
    | exception Fault.Injected _ ->
      incr crashes;
      if !crashes > 5 then Alcotest.failf "%s: too many crashes" op.op_name;
      Fault.reset ();
      rearm !crashes;
      (match !current_p with Some p -> Persist.crash p | None -> ());
      current_p := None;
      go (attempt + 1)
  in
  let p = go 0 in
  let db = Persist.db p in
  List.iter
    (fun (tname, want) ->
       H.check_relations_equal (op.op_name ^ "/" ^ tname) want
         (Db.snapshot db tname))
    (op.oracle db);
  Persist.close p;
  !crashes

let test_double_crash op ~window () =
  let counts = dry_run op ~window in
  let n = List.assoc "wal_append" counts in
  List.iter
    (fun rsite ->
       Fault.reset ();
       let dir = fresh_dir () in
       (* recovery_truncate only runs when the WAL has a torn tail, so
          its primary crash must be a torn append. *)
       let primary_mode =
         if String.equal rsite "recovery_truncate" then Fault.Torn
         else Fault.Crash
       in
       Fault.arm ~mode:primary_mode ~after:(n / 2) "wal_append";
       let rearm ordinal =
         if ordinal = 1 then Fault.arm rsite
       in
       let crashes = run_scenario_rearming op ~window ~rearm dir in
       Fault.reset ();
       H.wipe dir;
       Alcotest.(check int)
         (Printf.sprintf "%s: double crash at %s survived (window %d)"
            op.op_name rsite window)
         2 crashes)
    recovery_sites

(* {1 Directed resume: interrupt after population, no re-scan}

   The crash matrix hits this case probabilistically; this test pins it
   down, asserting the resumed executor starts in Propagating with a
   zero scan counter and still converges. *)
let test_resume_skips_population () =
  Fault.reset ();
  let dir = fresh_dir () in
  let p = H.ok_p "create" (Persist.create_dir ~dir) in
  setup_flat_t p;
  let db = Persist.db p in
  let tf =
    H.start db ~options:cfg (Spec.Split (H.split_spec ~assume_consistent:true))
  in
  let d = H.driver ~seed:base_seed db in
  (* Step past population (60 rows / scan_batch 7 = 9 quanta), with
     traffic, then checkpoint so the propagating state is durable. *)
  let guard = ref 0 in
  while Transform.phase tf = Transform.Populating do
    incr guard;
    if !guard > 100 then Alcotest.fail "population never finished";
    ignore (Transform.step tf);
    H.random_t_op ~consistent:true d
  done;
  Alcotest.(check bool) "mid-flight" true (Transform.phase tf <> Transform.Done);
  let scanned_before = (Transform.progress tf).Transform.scanned in
  Alcotest.(check bool) "population scanned something" true (scanned_before > 0);
  H.ok_p "checkpoint" (Persist.checkpoint p);
  (* Crash without warning; the in-memory db is gone. *)
  Persist.crash p;
  let p2 = H.ok_p "reopen" (Persist.open_dir ~dir) in
  let db2 = Persist.db p2 in
  (match Transform.resume ~options:cfg p2 with
   | Error e -> Alcotest.fail (Nbsc_error.to_string e)
   | Ok [ tf2 ] ->
     Alcotest.(check bool) "resumed in propagation or later" true
       (match Transform.phase tf2 with
        | Transform.Propagating | Transform.Draining -> true
        | _ -> false);
     Alcotest.(check int) "no re-scan" 0
       (Transform.progress tf2).Transform.scanned;
     let d2 = H.driver ~seed:(base_seed + 1) db2 in
     d2.H.next_r_key <- 2_000_000;
     let budget = ref 60 in
     (match
        Db.run_jobs db2 ~max_rounds:2_000 ~between:(fun () ->
            if !budget > 0 && Db.jobs db2 <> [] then begin
              decr budget;
              H.random_t_op ~consistent:true d2
            end)
      with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
     Alcotest.(check int) "still no re-scan" 0
       (Transform.progress tf2).Transform.scanned;
     let want_r, want_s =
       Nbsc_relalg.Relalg.split
         { Nbsc_relalg.Relalg.r_cols' = [ "a"; "b"; "c" ];
           s_cols' = [ "c"; "d" ];
           r_key = [ "a" ];
           s_key = [ "c" ] }
         (Db.snapshot db2 "T")
     in
     H.check_relations_equal "resumed split R" want_r (Db.snapshot db2 "R");
     H.check_relations_equal "resumed split S" want_s (Db.snapshot db2 "S")
   | Ok tfs ->
     Alcotest.failf "expected one pending job, got %d" (List.length tfs));
  Persist.close p2;
  H.wipe dir

(* {1 Restart from scratch (folded in from test_restart.ml)}

   A crash during population cannot resume — the initial image is
   incomplete and the framework's target writes are unlogged — so the
   job restarts: targets are dropped and repopulated. User data still
   comes back from snapshot + WAL alone. *)
(* The split fills its source's split index online. A checkpoint taken
   mid-fill records the index definition, and restore rebuilds it in
   full; a resumed job, restarted in population or past it, must find
   it equal to a blocking build. *)
let split_index_crash ~past_population () =
  Fault.reset ();
  let dir = fresh_dir () in
  let p = H.ok_p "create" (Persist.create_dir ~dir) in
  let db = Persist.db p in
  ignore (Db.create_table db ~name:"T" H.t_flat_schema);
  (match Db.load db ~table:"T" (H.seed_t_rows ~n:300) with
   | Ok () -> ()
   | Error e -> Alcotest.failf "load T: %a" Manager.pp_error e);
  checkpoint_ddl p;
  let tf =
    H.start db ~options:cfg (Spec.Split (H.split_spec ~assume_consistent:true))
  in
  let d = H.driver ~seed:19 db in
  let step () =
    ignore (Transform.step tf);
    H.random_t_op ~consistent:true d
  in
  if past_population then
    while Transform.phase tf = Transform.Populating do step () done
  else begin
    for _ = 1 to 10 do step () done;
    Alcotest.(check bool) "mid-fill" true
      (Transform.phase tf = Transform.Populating && H.refuses_split_index db)
  end;
  H.ok_p "checkpoint" (Persist.checkpoint p);
  Persist.crash p;
  let p2 = H.ok_p "reopen" (Persist.open_dir ~dir) in
  let db2 = Persist.db p2 in
  H.check_split_index "restored" db2;
  (match Transform.resume ~options:cfg p2 with
   | Ok [ tf2 ] ->
     Alcotest.(check bool) "resumed phase" true
       (if past_population then Transform.phase tf2 <> Transform.Populating
        else Transform.phase tf2 = Transform.Populating)
   | Ok tfs -> Alcotest.failf "expected one job, got %d" (List.length tfs)
   | Error e -> Alcotest.fail (Nbsc_error.to_string e));
  H.check_split_index "resumed" db2;
  let d2 = H.driver ~seed:20 db2 in
  d2.H.next_r_key <- 2_000_000;
  let budget = ref 60 in
  (match
     Db.run_jobs db2 ~max_rounds:5_000 ~between:(fun () ->
         if !budget > 0 && Db.jobs db2 <> [] then begin
           decr budget;
           H.random_t_op ~consistent:true d2
         end)
   with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  H.check_split_index "after the resumed change" db2;
  Persist.close p2;
  H.wipe dir

let test_populating_crash_restarts () =
  Fault.reset ();
  let dir = fresh_dir () in
  let p = H.ok_p "create" (Persist.create_dir ~dir) in
  setup_flat_t p;
  let db = Persist.db p in
  let tf =
    H.start db ~options:cfg (Spec.Split (H.split_spec ~assume_consistent:true))
  in
  let d = H.driver ~seed:13 db in
  for _ = 1 to 4 do
    ignore (Transform.step tf);
    H.random_t_op ~consistent:true d
  done;
  Alcotest.(check bool) "still populating" true
    (Transform.phase tf = Transform.Populating);
  (* Make the populating job state durable, then crash. *)
  H.ok_p "checkpoint" (Persist.checkpoint p);
  H.random_t_op ~consistent:true d;
  let committed_t = Db.snapshot db "T" in
  Persist.crash p;
  let p2 = H.ok_p "reopen" (Persist.open_dir ~dir) in
  let db2 = Persist.db p2 in
  (* User data survived the crash exactly. *)
  H.check_relations_equal "T recovered" committed_t (Db.snapshot db2 "T");
  (* Invalid options are refused before any job is touched. *)
  (match Transform.resume ~options:{ cfg with Options.propagate_batch = 0 } p2 with
   | Error (`Invalid _) -> ()
   | Error e -> Alcotest.failf "wrong error: %s" (Nbsc_error.to_string e)
   | Ok _ -> Alcotest.fail "propagate_batch = 0 must be rejected");
  Alcotest.(check (list string)) "no job resumed" [] (Db.jobs db2);
  (match Transform.resume ~options:cfg p2 with
   | Error e -> Alcotest.fail (Nbsc_error.to_string e)
   | Ok [ tf2 ] ->
     (* Restarted, not resumed: population runs again from scratch. *)
     Alcotest.(check bool) "restarted in population" true
       (Transform.phase tf2 = Transform.Populating);
     let d2 = H.driver ~seed:14 db2 in
     d2.H.next_r_key <- 2_000_000;
     let budget = ref 60 in
     (match
        Db.run_jobs db2 ~max_rounds:2_000 ~between:(fun () ->
            if !budget > 0 && Db.jobs db2 <> [] then begin
              decr budget;
              H.random_t_op ~consistent:true d2
            end)
      with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
   | Ok tfs ->
     Alcotest.failf "expected one pending job, got %d" (List.length tfs));
  let want_r, want_s =
    Nbsc_relalg.Relalg.split
      { Nbsc_relalg.Relalg.r_cols' = [ "a"; "b"; "c" ];
        s_cols' = [ "c"; "d" ];
        r_key = [ "a" ];
        s_key = [ "c" ] }
      (Db.snapshot db2 "T")
  in
  H.check_relations_equal "restarted split R" want_r (Db.snapshot db2 "R");
  H.check_relations_equal "restarted split S" want_s (Db.snapshot db2 "S");
  Persist.close p2;
  H.wipe dir

(* {1 Directed lazy migration: crash mid-sweep, restart, converge}

   A lazy (or hybrid) change interrupted while its background sweep is
   still visiting cold records — with some records already migrated on
   demand by user traffic — restarts population from scratch on
   resume, exactly like an eager one: the sweep is a fuzzy scan and
   both demand migration and re-population are idempotent. *)
let test_lazy_crash_mid_sweep migration () =
  Fault.reset ();
  let dir = fresh_dir () in
  let p = H.ok_p "create" (Persist.create_dir ~dir) in
  setup_flat_t p;
  let db = Persist.db p in
  let options = opts_of migration in
  let tf =
    H.start db ~options (Spec.Split (H.split_spec ~assume_consistent:true))
  in
  let d = H.driver ~seed:base_seed db in
  (* A few sweep quanta with traffic: every committed operation demand-
     migrates the record it touches. Few enough that even the hybrid
     sweep (8 of the 60 records per quantum) is still mid-flight. *)
  for _ = 1 to 4 do
    ignore (Transform.step tf);
    H.random_t_op ~consistent:true d
  done;
  Alcotest.(check bool) "still populating" true
    (Transform.phase tf = Transform.Populating);
  Alcotest.(check bool) "demand migrations happened" true
    (Transform.demand_migrations tf > 0);
  H.ok_p "checkpoint" (Persist.checkpoint p);
  H.random_t_op ~consistent:true d;
  let committed_t = Db.snapshot db "T" in
  Persist.crash p;
  let p2 = H.ok_p "reopen" (Persist.open_dir ~dir) in
  let db2 = Persist.db p2 in
  H.check_relations_equal "T recovered" committed_t (Db.snapshot db2 "T");
  (match Transform.resume ~options p2 with
   | Error e -> Alcotest.fail (Nbsc_error.to_string e)
   | Ok [ tf2 ] ->
     Alcotest.(check bool) "restarted in population" true
       (Transform.phase tf2 = Transform.Populating);
     Alcotest.(check bool) "same strategy after resume" true
       (Transform.migration tf2 = migration);
     let d2 = H.driver ~seed:(base_seed + 1) db2 in
     d2.H.next_r_key <- 2_000_000;
     let budget = ref 60 in
     (match
        Db.run_jobs db2 ~max_rounds:2_000 ~between:(fun () ->
            if !budget > 0 && Db.jobs db2 <> [] then begin
              decr budget;
              H.random_t_op ~consistent:true d2
            end)
      with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
   | Ok tfs ->
     Alcotest.failf "expected one pending job, got %d" (List.length tfs));
  let want_r, want_s =
    Nbsc_relalg.Relalg.split
      { Nbsc_relalg.Relalg.r_cols' = [ "a"; "b"; "c" ];
        s_cols' = [ "c"; "d" ];
        r_key = [ "a" ];
        s_key = [ "c" ] }
      (Db.snapshot db2 "T")
  in
  H.check_relations_equal "lazy restarted split R" want_r (Db.snapshot db2 "R");
  H.check_relations_equal "lazy restarted split S" want_s (Db.snapshot db2 "S");
  Persist.close p2;
  H.wipe dir

(* {1 Directed group commit: acked commits survive a checkpoint crash}

   With a group-commit window open, acked commits sit in the sink
   buffer. The checkpoint must flush them {e before} publishing
   anything: a crash at either snapshot fault site then leaves the old
   snapshot with an on-disk WAL that already holds the acked suffix.
   Without the checkpoint-side [flush_commits], this test loses rows
   9001-9003 — the ack-then-lose durability bug. *)

let commit_row db k =
  let mgr = Db.manager db in
  let txn = Manager.begin_txn mgr in
  (match Manager.insert mgr ~txn ~table:"T" (H.ti k "gc" 1 "x") with
   | Ok () -> ()
   | Error e -> Alcotest.failf "insert %d: %a" k Manager.pp_error e);
  match Manager.commit mgr txn with
  | Ok () -> ()
  | Error e -> Alcotest.failf "commit %d: %a" k Manager.pp_error e

let test_acked_commits_survive_checkpoint_crash () =
  Fault.reset ();
  let dir = fresh_dir () in
  let p = H.ok_p "create" (Persist.create_dir ~dir) in
  setup_flat_t p;
  let db = Persist.db p in
  let mgr = Db.manager db in
  Manager.set_group_commit mgr 8;
  let synced_before = Manager.synced_commits mgr in
  List.iter (commit_row db) [ 9001; 9002; 9003 ];
  (* All three are acked; none has reached the durable log yet. *)
  Alcotest.(check int) "buffered, not yet synced" synced_before
    (Manager.synced_commits mgr);
  Fault.arm ~mode:Fault.Crash "snapshot_write";
  (match Persist.checkpoint p with
   | exception Fault.Injected _ -> ()
   | Ok () -> Alcotest.fail "expected the armed crash"
   | Error e -> Alcotest.failf "checkpoint: %a" Persist.pp_error e);
  Fault.reset ();
  Persist.crash p;
  let p2 = H.ok_p "reopen" (Persist.open_dir ~dir) in
  let tbl = Db.table (Persist.db p2) "T" in
  List.iter
    (fun k ->
       Alcotest.(check bool)
         (Printf.sprintf "acked row %d survived" k)
         true
         (Table.mem tbl (Row.make [ Value.Int k ])))
    [ 9001; 9002; 9003 ];
  Persist.close p2;
  H.wipe dir

(* The durability floor the ack protocol actually promises: commits up
   to [synced_commits] survive any crash; the tail still inside the
   open window may be lost (the documented group-commit contract). With
   window 3 and seven commits, the barrier fired at 3 and 6 — the
   simulated crash then drops exactly the one buffered commit. *)
let test_synced_commits_is_the_durability_floor () =
  Fault.reset ();
  let dir = fresh_dir () in
  let p = H.ok_p "create" (Persist.create_dir ~dir) in
  setup_flat_t p;
  let db = Persist.db p in
  let mgr = Db.manager db in
  Manager.set_group_commit mgr 3;
  let synced_before = Manager.synced_commits mgr in
  List.iter (commit_row db) [ 9001; 9002; 9003; 9004; 9005; 9006; 9007 ];
  Alcotest.(check int) "floor after two barriers" (synced_before + 6)
    (Manager.synced_commits mgr);
  Persist.crash p;
  let p2 = H.ok_p "reopen" (Persist.open_dir ~dir) in
  let tbl = Db.table (Persist.db p2) "T" in
  List.iter
    (fun k ->
       Alcotest.(check bool)
         (Printf.sprintf "synced row %d survived" k)
         true
         (Table.mem tbl (Row.make [ Value.Int k ])))
    [ 9001; 9002; 9003; 9004; 9005; 9006 ];
  (* The seventh sat inside the open window; the crash dropped its
     buffered record — legal loss, pinned here so a change to the
     contract shows up. *)
  Alcotest.(check bool) "window tail lost" false
    (Table.mem tbl (Row.make [ Value.Int 9007 ]));
  Persist.close p2;
  H.wipe dir

(* {1 Replay properties}

   Replaying a log into a catalog that already reflects it must leave
   the state unchanged: redo is LSN-gated and undo of losers is made of
   inverse operations whose re-application is absorbed. Equivalently,
   the undo pass commutes with a second full replay. *)

let random_history seed nops =
  let db = H.fresh_split_db ~t_rows:(H.seed_t_rows ~n:20) in
  let d = H.driver ~seed db in
  for _ = 1 to nops do
    H.random_t_op ~consistent:true d
  done;
  (* Leave one transaction in flight: a loser for undo to roll back. *)
  let mgr = Db.manager db in
  let txn = Manager.begin_txn mgr in
  ignore (Manager.insert mgr ~txn ~table:"T" (H.ti 777_777 "loser" 1 "x"));
  ignore
    (Manager.update mgr ~txn ~table:"T"
       ~key:(Row.make [ Value.Int 777_777 ])
       [ (1, Value.Text "loser2") ]);
  db

let rows_of catalog name =
  Table.to_rows (Catalog.find catalog name) |> List.sort Row.compare

let prop_replay_idempotent =
  QCheck.Test.make ~name:"replay_into twice equals once" ~count:30
    QCheck.(pair small_nat (int_range 5 40))
    (fun (seed, nops) ->
       let db = random_history seed nops in
       let log = Db.log db in
       let defs = [ Recovery.table_def "T" H.t_flat_schema ] in
       let catalog, r1 = Recovery.recover ~table_defs:defs log in
       let once = rows_of catalog "T" in
       let r2 = Recovery.replay_into catalog log in
       let twice = rows_of catalog "T" in
       if r1.Recovery.losers <> r2.Recovery.losers then
         QCheck.Test.fail_reportf "analysis not deterministic";
       if once <> twice then QCheck.Test.fail_reportf "state diverged";
       true)

let prop_replay_matches_live =
  QCheck.Test.make ~name:"recovered state equals committed live state"
    ~count:30
    QCheck.(pair small_nat (int_range 5 40))
    (fun (seed, nops) ->
       let db = random_history seed nops in
       let catalog, _ =
         Recovery.recover
           ~table_defs:[ Recovery.table_def "T" H.t_flat_schema ]
           (Db.log db)
       in
       (* The live db still holds the loser's uncommitted writes; roll
          it back there too before comparing. *)
       let recovered = rows_of catalog "T" in
       let live =
         Nbsc_relalg.Relalg.select (Db.snapshot db "T") (fun row ->
             not (Value.equal (Row.get row 0) (Value.Int 777_777)))
       in
       recovered = List.sort Row.compare live.Nbsc_relalg.Relalg.rows)

let () =
  Random.self_init ();
  Alcotest.run "crash_matrix"
    (List.concat_map
       (fun op ->
          List.map
            (fun window ->
               ( Printf.sprintf "matrix %s w%d" op.op_name window,
                 [ Alcotest.test_case
                     (Printf.sprintf "sites x %s (window %d)" op.op_name
                        window)
                     `Slow
                     (test_matrix op ~window);
                   Alcotest.test_case
                     (Printf.sprintf "recovery sites x %s (window %d)"
                        op.op_name window)
                     `Slow
                     (test_double_crash op ~window) ] ))
            [ 1; 8 ])
       all_cases
     (* The lazy/hybrid migration arms: the full site sweep again, with
        the background sweeper standing in for eager population (one
        group-commit window keeps the runtime bounded). *)
     @ List.concat_map
         (fun (label, migration) ->
            List.map
              (fun op ->
                 ( Printf.sprintf "matrix %s %s" op.op_name label,
                   [ Alcotest.test_case
                       (Printf.sprintf "sites x %s (%s)" op.op_name label)
                       `Slow
                       (test_matrix ~options:(opts_of migration) op ~window:1)
                   ] ))
              all_cases)
         [ ("lazy", Options.Lazy);
           ("hybrid", Options.Hybrid { sweep_quantum = 8 }) ]
     (* The longest group name (25 characters). Alcotest sizes its
        name column by it and truncates every case's printed name to
        fit, so another width would rename cases in the output. *)
     @ [ ( "matrix foj wal watermarks",
           [ Alcotest.test_case "sites x foj (wal watermarks)" `Slow
               (test_matrix foj_watermarks_case ~window:1) ] ) ]
     (* Competitor baselines: crash anywhere, restart from scratch,
        still converge to the oracle. *)
     @ [ ( "matrix shadow-table",
           [ Alcotest.test_case "sites x shadow split" `Slow
               test_shadow_matrix ] );
         ( "matrix trigger",
           [ Alcotest.test_case "sites x trigger foj" `Slow
               test_trigger_matrix ] ) ]
     @ [ ( "directed",
           [ Alcotest.test_case "resume skips population" `Quick
               test_resume_skips_population;
             Alcotest.test_case "lazy crash mid-sweep restarts" `Quick
               (test_lazy_crash_mid_sweep Options.Lazy);
             Alcotest.test_case "hybrid crash mid-sweep restarts" `Quick
               (test_lazy_crash_mid_sweep
                  (Options.Hybrid { sweep_quantum = 8 }));
             Alcotest.test_case "populating crash restarts" `Quick
               test_populating_crash_restarts;
             Alcotest.test_case "crash mid-fill keeps split index exact"
               `Quick (split_index_crash ~past_population:false);
             Alcotest.test_case "crash past fill keeps split index exact"
               `Quick (split_index_crash ~past_population:true);
             Alcotest.test_case "acked commits survive checkpoint crash"
               `Quick test_acked_commits_survive_checkpoint_crash;
             Alcotest.test_case "synced_commits is the durability floor"
               `Quick test_synced_commits_is_the_durability_floor ] );
         ( "properties",
           List.map QCheck_alcotest.to_alcotest
             [ prop_replay_idempotent; prop_replay_matches_live ] ) ])
