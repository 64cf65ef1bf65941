(* The crash suite: every fault-injection site × every transformation
   operator × every synchronization strategy, under two traffic shapes.

   A cell is one scenario the sweep runs: an operator case, a
   group-commit window, a migration strategy, a fault plan, a sync
   strategy and a traffic shape. Each cell dry-runs its scenario to
   learn how often each site is consulted, then re-runs it with a crash
   armed mid-range: the in-memory database is abandoned
   ([Persist.crash]), the directory is reopened, in-flight schema
   changes are resumed ([Transform.resume]) — the two baselines restart
   theirs from scratch — and the store must still converge to the
   relational oracle of the final source tables.

   Single-op traffic auto-commits one operation per transaction.
   Contended traffic is six clients, each holding a four-update
   transaction open on twelve hot keys, so a crash leaves losers for
   recovery to roll back and for the resumed change to skip. Operator
   cells draw their sync strategy and traffic shape by rotation from
   their index and NBSC_CRASH_SEED (a cell prints its draw), so every
   seed crashes each operator under each strategy with each shape, and
   three consecutive seeds give every cell every strategy and both
   shapes. The contention soak's cells run the split under contended
   traffic per strategy, uncrashed, with and without a sync-commit
   fault retried in place.

   Also here: directed crash scenarios and the replay_into idempotence
   properties. *)

open Nbsc_value
open Nbsc_storage
open Nbsc_txn
open Nbsc_engine
open Nbsc_core
module H = Helpers
module Wait_graph = Nbsc_lock.Wait_graph
module Sh = Nbsc_baseline.Shadow_table
module Tm = Nbsc_baseline.Trigger_method

let base_seed = H.crash_seed
let fresh_dir () = H.fresh_dir "crashmx"

let cfg =
  { Options.default with
    Options.scan_batch = 7;
    propagate_batch = 5;
    drop_sources = false }

(* The soak's knobs: larger batches and a tighter sync threshold. *)
let soak_cfg =
  { cfg with Options.scan_batch = 8; propagate_batch = 8; sync_lag = 4 }

(* The sites consulted only inside [Persist.open_dir] — never during a
   crash-free run, so their cells crash there on the recovery from an
   earlier crash. *)
let recovery_sites = [ "snapshot_load"; "recovery_replay"; "recovery_truncate" ]

let runtime_sites =
  List.filter (fun s -> not (List.mem s recovery_sites)) Fault.all_sites

(* {1 Traffic} *)

type traffic = Single_op | Contended

(* One contended client: at most one open transaction. *)
type client = { mutable txn : Manager.txn_id option; mutable ops : int }

(* What a cell's contended traffic and retried faults did, summed over
   its runs. *)
type tally = {
  mutable commits : int;
  mutable blocked : int;
  mutable retried : int;
}

let ops_per_txn = 4

let commit_client mgr tally c =
  (match c.txn with
   | Some txn when Manager.is_active mgr txn ->
     (match Manager.commit mgr txn with
      | Ok () -> tally.commits <- tally.commits + 1
      | Error _ -> ignore (Manager.abort mgr txn))
   | _ -> ());
  c.txn <- None

(* One turn of a contended client. New transactions start only while
   the change routes to its sources; once it switched, an open one
   commits what it has instead of writing more, so the drain can end
   with nothing left to propagate. *)
let pump mgr rng hot ~switched tally c =
  match c.txn with
  | None ->
    if not (switched ()) then begin
      c.txn <- Some (Manager.begin_txn mgr);
      c.ops <- 0
    end
  | Some txn when not (Manager.is_active mgr txn) ->
    (* Died under us: wounded by an older transaction or force-aborted
       by non-blocking-abort synchronization. *)
    c.txn <- None
  | Some _ when c.ops >= ops_per_txn || switched () -> commit_client mgr tally c
  | Some txn ->
    let table, key = hot.(Random.State.int rng (Array.length hot)) in
    (match
       Manager.update mgr ~txn ~table ~key:(Row.make [ Value.Int key ])
         [ (1, Value.Text ("w" ^ string_of_int (Random.State.int rng 1000))) ]
     with
     | Ok () | Error `Not_found -> c.ops <- c.ops + 1
     | Error (`Blocked _) -> tally.blocked <- tally.blocked + 1
     | Error (`Latched _) -> ()
     | Error _ ->
       (* A deadlock sentence, abort-only, [`Frozen] during
          blocking-commit quiescence: give the transaction up. *)
       ignore (Manager.abort mgr txn);
       c.txn <- None)

(* {1 The operator cases} *)

(* What an attempt drives: [step] runs one quantum, [finished] says
   whether the change is complete, [switched] whether it routes new
   transactions to its targets yet. *)
type change = {
  step : unit -> unit;
  finished : unit -> bool;
  switched : unit -> bool;
}

type op_case = {
  op_name : string;
  op_sources : string list;
  setup : Persist.t -> unit;  (* create + load sources, checkpoint *)
  launch : Options.t -> Persist.t -> change;
      (* resume the store's pending change, or start it *)
  traffic : H.driver -> unit;  (* one round of single-op traffic *)
  hot : (string * int) array;  (* the keys contended clients update *)
  oracle : Db.t -> (string * Nbsc_relalg.Relalg.t) list;
      (* target -> expected relation, from the final sources *)
  must_hit : string list;  (* sites the dry run must consult *)
}

let checkpoint_ddl p = H.ok_p "setup checkpoint" (Persist.checkpoint p)

let load p table rows =
  match Db.load (Persist.db p) ~table rows with
  | Ok () -> ()
  | Error e -> Alcotest.failf "load %s: %a" table Manager.pp_error e

let keys table ~from n = List.init n (fun i -> (table, from + i))

(* Resume the pending jobs of a (re)opened store. With none pending the
   change either never reached the durable state (start it) or
   completed and was checkpointed (its targets came back with the
   snapshot). *)
let resume_or_start spec options p =
  let db = Persist.db p in
  let tfs =
    match Transform.resume ~options p with
    | Error e -> Alcotest.failf "resume: %s" (Nbsc_error.to_string e)
    | Ok [] ->
      if List.for_all (Catalog.mem (Db.catalog db)) (Spec.targets spec) then []
      else [ H.start db ~options spec ]
    | Ok tfs ->
      List.iter
        (fun tf ->
           match Transform.phase tf with
           | Transform.Propagating | Transform.Draining ->
             (* The acceptance bar: resuming after population must not
                re-scan the sources. *)
             Alcotest.(check int)
               (Transform.name tf ^ ": resume re-scans nothing")
               0 (Transform.progress tf).Transform.scanned
           | _ -> ())
        tfs;
      tfs
  in
  { step = (fun () -> ignore (Db.step_jobs db));
    finished = (fun () -> Db.jobs db = []);
    switched =
      (fun () -> List.exists (fun tf -> Transform.routing tf = `Targets) tfs) }

let operator name ~sources spec ~setup ~traffic ~hot ~oracle =
  { op_name = name;
    op_sources = sources;
    setup;
    launch = resume_or_start spec;
    traffic;
    hot = Array.of_list hot;
    oracle;
    must_hit = runtime_sites }

let setup_foj p =
  let db = Persist.db p in
  ignore (Db.create_table db ~name:"R" H.r_schema);
  ignore (Db.create_table db ~name:"S" H.s_schema);
  let r_rows, s_rows = H.seed_rows ~r:40 ~s:20 in
  load p "R" r_rows;
  load p "S" s_rows;
  checkpoint_ddl p

let setup_flat_t ?(rows = 60) p =
  ignore (Db.create_table (Persist.db p) ~name:"T" H.t_flat_schema);
  load p "T" (H.seed_t_rows ~n:rows);
  checkpoint_ddl p

let foj_case =
  operator "foj" ~sources:[ "R"; "S" ] (Spec.Foj H.foj_spec) ~setup:setup_foj
    ~traffic:(fun d ->
        H.random_r_op d;
        H.random_s_op d)
    ~hot:(keys "R" ~from:1 6 @ keys "S" ~from:0 6)
    ~oracle:(fun db -> [ ("T", H.foj_oracle db) ])

let split_case =
  operator "split" ~sources:[ "T" ]
    (Spec.Split (H.split_spec ~assume_consistent:true))
    ~setup:setup_flat_t
    ~traffic:(fun d -> H.random_t_op ~consistent:true d)
    ~hot:(keys "T" ~from:1 12)
    ~oracle:(fun db ->
        let want_r, want_s = H.split_oracle db in
        [ ("R", want_r); ("S", want_s) ])

let hpred = Pred.Cmp ("c", Pred.Gt, Value.Int 6)

let hsplit_case =
  operator "hsplit" ~sources:[ "T" ]
    (Spec.Hsplit
       { Spec.h_source = "T";
         h_true_table = "archive";
         h_false_table = "live";
         h_pred = hpred })
    ~setup:setup_flat_t
    ~traffic:(fun d -> H.random_t_op ~consistent:true d)
    ~hot:(keys "T" ~from:1 12)
    ~oracle:(fun db ->
        let archive, live = H.hsplit_oracle db hpred in
        [ ("archive", archive); ("live", live) ])

let merge_case =
  operator "merge" ~sources:[ "A"; "B" ]
    (Spec.Merge H.merge_spec)
    ~setup:(fun p ->
        let db = Persist.db p in
        ignore (Db.create_table db ~name:"A" H.t_flat_schema);
        ignore (Db.create_table db ~name:"B" H.t_flat_schema);
        load p "A" H.merge_a_rows;
        load p "B" H.merge_b_rows;
        checkpoint_ddl p)
    ~traffic:H.random_merge_op
    ~hot:(keys "A" ~from:0 6 @ keys "B" ~from:100 6)
    ~oracle:(fun db -> [ ("AB", H.merge_oracle db) ])

let all_cases = [ foj_case; split_case; hsplit_case; merge_case ]

(* The FOJ scenario over a WAL that also holds watermark pairs, the
   inert records an earlier populator wrote and a WAL of the current
   format may still carry. Each quantum appends a low/high pair, so
   checkpoints keep pairs in the retained suffix, and recovery, resume
   and propagation must skip them at every crash site. *)
let foj_watermarks_case =
  { foj_case with
    launch =
      (fun options p ->
         let change = foj_case.launch options p in
         let log = Db.log (Persist.db p) in
         { change with
           step =
             (fun () ->
                change.step ();
                List.iter
                  (fun high ->
                     ignore
                       (Nbsc_wal.Log.append log
                          ~txn:Nbsc_wal.Log_record.system_txn
                          ~prev_lsn:Nbsc_wal.Lsn.zero
                          (Nbsc_wal.Log_record.Watermark { job = "foj"; high })))
                  [ false; true ]) }) }

(* {2 The competitor baselines}

   Neither baseline persists a resumable job state — their target
   writes are unlogged, so a crash means restart from scratch: drop
   whatever partial targets the snapshot restored and rebuild. Their
   cells crash only the sites a dry run shows they consult (a trigger
   run, e.g., never reaches [sync_commit]). *)

let never () = false

let shadow_case =
  { split_case with
    op_name = "shadow split";
    launch =
      (fun _ p ->
         let db = Persist.db p in
         let catalog = Db.catalog db in
         List.iter
           (fun tgt -> if Catalog.mem catalog tgt then Catalog.drop catalog tgt)
           [ "R"; "S" ];
         let sh =
           Sh.create db ~drop_sources:false ~chunk:8
             (Transformation.split db (H.split_spec ~assume_consistent:true))
         in
         let finished = ref false in
         { step = (fun () -> finished := Sh.step sh ~limit:8);
           finished = (fun () -> !finished);
           switched = never });
    must_hit = [ "quantum_end"; "sync_commit"; "wal_append" ] }

(* The trigger method has no background work: its change is forty
   rounds of traffic through the installed triggers, then uninstall. *)
let trigger_case =
  { foj_case with
    op_name = "trigger foj";
    launch =
      (fun _ p ->
         let db = Persist.db p in
         if Catalog.mem (Db.catalog db) "T" then Catalog.drop (Db.catalog db) "T";
         (* install's populate loop consults quantum_end between
            chunks — the armed crash fires inside it. *)
         let tr = Tm.install db (Transformation.foj db H.foj_spec) in
         let rounds = ref 0 in
         { step =
             (fun () ->
                incr rounds;
                if !rounds > 40 then Tm.uninstall tr);
           finished = (fun () -> !rounds > 40);
           switched = never });
    must_hit = [ "quantum_end"; "wal_append" ] }

(* {1 Cells} *)

type plan =
  | Sites
      (* crash mid-range at every consulted runtime site, then tear a
         wal_append *)
  | Recovery
      (* crash at wal_append, then again inside the recovery from it,
         at each recovery site *)
  | Soak of { fault : bool }
      (* no crash; with [fault], sync_commit raises once and the step
         is retried in place *)

type cell = {
  op : op_case;
  window : int;  (* group-commit window *)
  migration : Options.migration;
  sync : Options.sync option;  (* [None]: a baseline *)
  traffic : traffic;
  plan : plan;
}

let strategies =
  [ ("nonblocking-abort", Options.Nonblocking_abort);
    ("nonblocking-commit", Options.Nonblocking_commit);
    ("blocking-commit", Options.Blocking_commit) ]

let sync_name s = fst (List.find (fun (_, s') -> s' = s) strategies)

let traffic_name = function Single_op -> "single-op" | Contended -> "contended"

let describe c =
  Printf.sprintf "%s, window %d, %s, %s, %s traffic (NBSC_CRASH_SEED=%d)"
    c.op.op_name c.window
    (Options.migration_to_string c.migration)
    (match c.sync with Some s -> sync_name s | None -> "no sync strategy")
    (traffic_name c.traffic) base_seed

let options_of c =
  let base = match c.plan with Soak _ -> soak_cfg | Sites | Recovery -> cfg in
  { base with
    Options.strategy = c.migration;
    sync = Option.value c.sync ~default:base.Options.sync }

(* The rotation: operator cell [i]'s sync strategy and traffic shape.
   Six consecutive indices give all six pairs at any seed. *)
let rotation i =
  let k = (((base_seed + i) mod 6) + 6) mod 6 in
  ( Some (snd (List.nth strategies (k mod 3))),
    if k mod 2 = 0 then Single_op else Contended )

(* A cell with its Alcotest group and case name. [draw] is its sync
   strategy and traffic shape; a baseline has no strategy and
   single-op traffic. *)
let cell ?(window = 1) ?(migration = Options.Eager) ?(draw = (None, Single_op))
    group name op plan =
  let sync, traffic = draw in
  (group, name, { op; window; migration; sync; traffic; plan })

let operator_cells op =
  let cell ?window ?migration i group name plan =
    cell ?window ?migration ~draw:(rotation i)
      ("matrix " ^ op.op_name ^ " " ^ group)
      (Printf.sprintf name op.op_name) op plan
  in
  [ cell 0 "w1" "sites x %s (window 1)" Sites;
    cell 4 "w1" "recovery sites x %s (window 1)" Recovery;
    cell 1 "w8" "sites x %s (window 8)" ~window:8 Sites;
    cell 5 "w8" "recovery sites x %s (window 8)" ~window:8 Recovery;
    cell 2 "lazy" "sites x %s (lazy)" ~migration:Options.Lazy Sites;
    cell 3 "hybrid" "sites x %s (hybrid)"
      ~migration:(Options.Hybrid { sweep_quantum = 8 }) Sites ]

let cells =
  List.concat_map operator_cells all_cases
  @ [ cell ~draw:(rotation 6) "matrix foj wal watermarks"
        "sites x foj (wal watermarks)" foj_watermarks_case Sites;
      cell "matrix shadow-table" "sites x shadow split" shadow_case Sites;
      cell "matrix trigger" "sites x trigger foj" trigger_case Sites ]
  @ List.concat_map
      (fun (group, sync) ->
         let draw = (Some sync, Contended) in
         [ cell ~draw group "fault-free soak" split_case (Soak { fault = false });
           cell ~draw group "sync-commit fault soak" split_case
             (Soak { fault = true }) ])
      strategies

(* {1 The harness}

   [run_attempt] plays a cell's scenario from whatever state the
   directory is in: create-or-open, (re)do setup if the sources are
   missing, resume or start the change, then drive it to completion
   with traffic and periodic checkpoints. A [Fault.Injected] escaping
   at any point is the simulated crash; [run_scenario] abandons the
   database and calls [run_attempt] again. *)

(* A scenario's bound on rounds per attempt, and how many of them carry
   traffic: the matrix's first 120; the soak's until its change
   switches. *)
let rounds_of c =
  match c.plan with Soak _ -> (300_000, max_int) | Sites | Recovery -> (2_000, 120)

let run_attempt c ~tally ~dir ~attempt ~current_p =
  let p =
    if Sys.file_exists (Filename.concat dir "snapshot.nbsc") then
      H.ok_p "open" (Persist.open_dir ~dir)
    else H.ok_p "create" (Persist.create_dir ~dir)
  in
  current_p := Some p;
  let db = Persist.db p in
  let mgr = Db.manager db in
  (* Group commit re-arms after every (re)open: the window is a session
     setting, not durable state. A window of 1 is the classic
     write-through WAL; larger windows leave acked commits in the sink
     buffer, which is exactly the state the checkpoint-side flush and
     the recovery invariant protect. *)
  Manager.set_group_commit mgr c.window;
  if not (List.for_all (Catalog.mem (Db.catalog db)) c.op.op_sources) then
    c.op.setup p;
  let change = c.op.launch (options_of c) p in
  let d = H.driver ~seed:(base_seed + attempt) db in
  (* Fresh keys must not collide with a previous attempt's. *)
  d.H.next_r_key <- 1_000_000 + (attempt * 10_000);
  d.H.next_s_key <- 1_000_000 + (attempt * 10_000);
  let max_rounds, traffic_rounds = rounds_of c in
  let clients = Array.init 6 (fun _ -> { txn = None; ops = 0 }) in
  let settle () = Array.iter (commit_client mgr tally) clients in
  let traffic rounds =
    match c.traffic with
    | Single_op -> if rounds <= traffic_rounds then c.op.traffic d
    | Contended ->
      (* Contended traffic stops at the cell's first crash: a later
         write to a hot key could hide on the targets a loser that
         recovery rolled back on the sources. *)
      if attempt = 0 && rounds <= traffic_rounds then
        Array.iter (pump mgr d.H.rng c.op.hot ~switched:change.switched tally) clients
      else settle ()
  in
  let retry_in_place = match c.plan with Soak _ -> true | Sites | Recovery -> false in
  let rounds = ref 0 in
  while not (change.finished ()) do
    incr rounds;
    if !rounds > max_rounds then
      Alcotest.failf "%s: the change did not converge" (describe c);
    (try change.step ()
     with Fault.Injected _ when retry_in_place ->
       (* The soak's sync-commit fault: disarm and keep stepping —
          finalization is idempotent, the next quantum retries it. *)
       tally.retried <- tally.retried + 1;
       Fault.reset ());
    (* Traffic only while the change is in flight: once the quantum
       above finalized it the sources are live again, and a write there
       would be app misuse, not a lost update. *)
    if not (change.finished ()) then traffic !rounds;
    if !rounds mod 25 = 0 then begin
      (* A checkpoint refuses active transactions. *)
      settle ();
      H.ok_p "mid checkpoint" (Persist.checkpoint p)
    end
  done;
  settle ();
  H.ok_p "final checkpoint" (Persist.checkpoint p);
  p

(* Run a scenario to the end, crashing and reopening on every injected
   fault, then check the oracle and the waits-for graph at rest.
   [rearm] gets the crash ordinal after each crash's [Fault.reset], so
   a double crash can arm its recovery site. Returns the number of
   crashes survived. *)
let run_scenario ?(rearm = ignore) c ~tally dir =
  let current_p = ref None in
  let crashes = ref 0 in
  let rec go attempt =
    match run_attempt c ~tally ~dir ~attempt ~current_p with
    | p -> p
    | exception Fault.Injected _ ->
      incr crashes;
      if !crashes > 5 then Alcotest.failf "%s: too many crashes" (describe c);
      Fault.reset ();
      rearm !crashes;
      Option.iter Persist.crash !current_p;
      current_p := None;
      go (attempt + 1)
  in
  let p = go 0 in
  let db = Persist.db p in
  List.iter
    (fun (tname, want) ->
       H.check_relations_equal (describe c ^ ": " ^ tname) want
         (Db.snapshot db tname))
    (c.op.oracle db);
  let g = Manager.wait_graph (Db.manager db) in
  Alcotest.(check bool)
    (describe c ^ ": waits-for graph acyclic at rest")
    true (Wait_graph.acyclic g);
  Alcotest.(check (list int))
    (describe c ^ ": nothing left waiting")
    [] (Wait_graph.waiters g);
  Persist.close p;
  !crashes

(* What the cells crashed, for the coverage case: "<operator>: <crash>"
   and "<operator>: crashed under <strategy> with <shape> traffic". *)
let crashed = Hashtbl.create 128

let crashed_under sname traffic =
  Printf.sprintf "crashed under %s with %s traffic" sname (traffic_name traffic)

(* The site sweep: a dry run with hit tracking, then the cell's plan. *)
let run_cell c () =
  Printf.printf "cell: %s\n%!" (describe c);
  let label what = describe c ^ ": " ^ what in
  let tally = { commits = 0; blocked = 0; retried = 0 } in
  let run ?rearm arm =
    Fault.reset ();
    let dir = fresh_dir () in
    arm ();
    let crashes = run_scenario ?rearm c ~tally dir in
    let hits = List.map (fun s -> (s, Fault.hits s)) runtime_sites in
    Fault.reset ();
    H.wipe dir;
    (crashes, hits)
  in
  let crashes, hits = run (fun () -> Fault.set_tracking true) in
  Alcotest.(check int) (label "dry run crash-free") 0 crashes;
  List.iter
    (fun site ->
       Alcotest.(check bool)
         (label ("site " ^ site ^ " exercised"))
         true
         (List.assoc site hits > 0))
    c.op.must_hit;
  let crash ?rearm ~expect what arm =
    let crashes, _ = run ?rearm arm in
    Alcotest.(check int) (label (what ^ " survived")) expect crashes;
    Hashtbl.replace crashed (c.op.op_name ^ ": " ^ what) ();
    Option.iter
      (fun s ->
         Hashtbl.replace crashed
           (c.op.op_name ^ ": " ^ crashed_under (sync_name s) c.traffic)
           ())
      c.sync
  in
  let wal_appends = List.assoc "wal_append" hits in
  (match c.plan with
   | Sites ->
     List.iter
       (fun (site, n) ->
          if n > 0 then
            crash ~expect:1 ("crash at " ^ site) (fun () ->
                Fault.arm ~mode:Fault.Crash ~after:(n / 2) site))
       hits;
     (* The torn write: half a line reaches the file before the crash;
        reopen must drop the unterminated tail. *)
     crash ~expect:1 "torn wal_append" (fun () ->
         Fault.arm ~mode:Fault.Torn ~after:(wal_appends / 2) "wal_append")
   | Recovery ->
     List.iter
       (fun rsite ->
          (* recovery_truncate only runs when the WAL has a torn tail,
             so its primary crash must be a torn append. *)
          let mode =
            if String.equal rsite "recovery_truncate" then Fault.Torn
            else Fault.Crash
          in
          crash ~expect:2 ("double crash at " ^ rsite)
            ~rearm:(fun ordinal -> if ordinal = 1 then Fault.arm rsite)
            (fun () -> Fault.arm ~mode ~after:(wal_appends / 2) "wal_append"))
       recovery_sites
   | Soak { fault } ->
     if fault then begin
       let crashes, _ = run (fun () -> Fault.arm "sync_commit") in
       Alcotest.(check int) (label "sync-commit fault retried, no crash") 0 crashes;
       Alcotest.(check bool) (label "the armed fault fired") true (tally.retried > 0)
     end);
  if c.traffic = Contended then begin
    Alcotest.(check bool)
      (label "clients kept committing under contention")
      true (tally.commits > 0);
    Alcotest.(check bool) (label "the workload actually contended") true
      (tally.blocked > 0)
  end

(* The suite's own coverage, at any seed: each operator crashed under
   each strategy with each traffic shape, and at every runtime site,
   torn wal_append and recovery site. *)
let test_coverage () =
  List.iter
    (fun op ->
       List.iter
         (fun what ->
            let key = op.op_name ^ ": " ^ what in
            Alcotest.(check bool) key true (Hashtbl.mem crashed key))
         (List.map (fun s -> "crash at " ^ s) runtime_sites
          @ [ "torn wal_append" ]
          @ List.map (fun s -> "double crash at " ^ s) recovery_sites
          @ List.concat_map
              (fun (sname, _) ->
                 [ crashed_under sname Single_op; crashed_under sname Contended ])
              strategies))
    all_cases

(* {1 Directed crash scenarios} *)

(* A new store whose T holds [rows] rows, checkpointed. *)
let new_t_store ?rows () =
  Fault.reset ();
  let dir = fresh_dir () in
  let p = H.ok_p "create" (Persist.create_dir ~dir) in
  setup_flat_t ?rows p;
  (dir, p)

(* Reopen [dir] after a crash, resume its one pending split, run it to
   the end under 60 rounds of traffic and check R and S against the
   split of T. [reopened] sees the store before the resume, [resumed]
   the job before it runs and [finished] after. *)
let resume_split ?(max_rounds = 2_000) ?(reopened = ignore)
    ?(finished = fun _ _ -> ()) dir ~options ~seed resumed =
  let p = H.ok_p "reopen" (Persist.open_dir ~dir) in
  let db = Persist.db p in
  reopened p;
  (match Transform.resume ~options p with
   | Error e -> Alcotest.fail (Nbsc_error.to_string e)
   | Ok [ tf ] ->
     resumed db tf;
     let d = H.driver ~seed db in
     d.H.next_r_key <- 2_000_000;
     let budget = ref 60 in
     (match
        Db.run_jobs db ~max_rounds ~between:(fun () ->
            if !budget > 0 && Db.jobs db <> [] then begin
              decr budget;
              H.random_t_op ~consistent:true d
            end)
      with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
     finished db tf
   | Ok tfs ->
     Alcotest.failf "expected one pending job, got %d" (List.length tfs));
  let want_r, want_s = H.split_oracle db in
  H.check_relations_equal "resumed split R" want_r (Db.snapshot db "R");
  H.check_relations_equal "resumed split S" want_s (Db.snapshot db "S");
  Persist.close p;
  H.wipe dir

(* Interrupt after population: the matrix hits this case
   probabilistically; this test pins it down, asserting the resumed
   executor starts in Propagating with a zero scan counter and still
   converges. *)
let test_resume_skips_population () =
  let dir, p = new_t_store () in
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
  let no_rescan what tf2 =
    Alcotest.(check int) what 0 (Transform.progress tf2).Transform.scanned
  in
  resume_split dir ~options:cfg ~seed:(base_seed + 1)
    ~finished:(fun _ -> no_rescan "still no re-scan")
    (fun _ tf2 ->
       Alcotest.(check bool) "resumed in propagation or later" true
         (match Transform.phase tf2 with
          | Transform.Propagating | Transform.Draining -> true
          | _ -> false);
       no_rescan "no re-scan" tf2)

(* {2 Restart from scratch}

   A crash during population cannot resume — the initial image is
   incomplete and the framework's target writes are unlogged — so the
   job restarts: targets are dropped and repopulated. User data still
   comes back from snapshot + WAL alone. *)

(* The split fills its source's split index online. A checkpoint taken
   mid-fill records the index definition, and restore rebuilds it in
   full; a resumed job, restarted in population or past it, must find
   it equal to a blocking build. *)
let split_index_crash ~past_population () =
  let dir, p = new_t_store ~rows:300 () in
  let db = Persist.db p in
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
  resume_split dir ~options:cfg ~seed:20 ~max_rounds:5_000
    ~reopened:(fun p2 -> H.check_split_index "restored" (Persist.db p2))
    ~finished:(fun db2 _ -> H.check_split_index "after the resumed change" db2)
    (fun db2 tf2 ->
       Alcotest.(check bool) "resumed phase" true
         (if past_population then Transform.phase tf2 <> Transform.Populating
          else Transform.phase tf2 = Transform.Populating);
       H.check_split_index "resumed" db2)

(* Crash a split after four quanta of population under [options], with
   its populating state checkpointed and one more committed write after
   that. [check] sees the change before the crash. Returns the store's
   directory and the committed T, which the reopen must restore
   exactly. *)
let crash_while_populating ~options ~seed ?(check = ignore) () =
  let dir, p = new_t_store () in
  let db = Persist.db p in
  let tf = H.start db ~options (Spec.Split (H.split_spec ~assume_consistent:true)) in
  let d = H.driver ~seed db in
  for _ = 1 to 4 do
    ignore (Transform.step tf);
    H.random_t_op ~consistent:true d
  done;
  Alcotest.(check bool) "still populating" true
    (Transform.phase tf = Transform.Populating);
  check tf;
  (* Make the populating job state durable, then crash. *)
  H.ok_p "checkpoint" (Persist.checkpoint p);
  H.random_t_op ~consistent:true d;
  let committed_t = Db.snapshot db "T" in
  Persist.crash p;
  (dir, committed_t)

let t_recovered committed_t p =
  H.check_relations_equal "T recovered" committed_t (Db.snapshot (Persist.db p) "T")

let test_populating_crash_restarts () =
  let dir, committed_t = crash_while_populating ~options:cfg ~seed:13 () in
  resume_split dir ~options:cfg ~seed:14
    ~reopened:(fun p2 ->
        t_recovered committed_t p2;
        (* Invalid options are refused before any job is touched. *)
        (match Transform.resume ~options:{ cfg with Options.propagate_batch = 0 } p2 with
         | Error (`Invalid _) -> ()
         | Error e -> Alcotest.failf "wrong error: %s" (Nbsc_error.to_string e)
         | Ok _ -> Alcotest.fail "propagate_batch = 0 must be rejected");
        Alcotest.(check (list string)) "no job resumed" [] (Db.jobs (Persist.db p2)))
    (fun _ tf2 ->
       (* Restarted, not resumed: population runs again from scratch. *)
       Alcotest.(check bool) "restarted in population" true
         (Transform.phase tf2 = Transform.Populating))

(* Lazy migration: a lazy (or hybrid) change interrupted while its
   background sweep is still visiting cold records — with some records
   already migrated on demand by user traffic — restarts population
   from scratch on resume, exactly like an eager one: the sweep is a
   fuzzy scan and both demand migration and re-population are
   idempotent. *)
let test_lazy_crash_mid_sweep migration () =
  let options = Options.{ cfg with strategy = migration } in
  (* A few sweep quanta with traffic: every committed operation demand-
     migrates the record it touches. Few enough that even the hybrid
     sweep (8 of the 60 records per quantum) is still mid-flight. *)
  let dir, committed_t =
    crash_while_populating ~options ~seed:base_seed () ~check:(fun tf ->
        Alcotest.(check bool) "demand migrations happened" true
          (Transform.demand_migrations tf > 0))
  in
  resume_split dir ~options ~seed:(base_seed + 1)
    ~reopened:(t_recovered committed_t) (fun _ tf2 ->
        Alcotest.(check bool) "restarted in population" true
          (Transform.phase tf2 = Transform.Populating);
        Alcotest.(check bool) "same strategy after resume" true
          (Transform.migration tf2 = migration))

(* {2 Group commit: acked commits survive a checkpoint crash}

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

(* Crash [p], reopen [dir] and check that T's rows [kept] survived and
   its rows [lost] did not. *)
let crash_and_check_rows dir p ~kept ~lost =
  Persist.crash p;
  let p2 = H.ok_p "reopen" (Persist.open_dir ~dir) in
  let tbl = Db.table (Persist.db p2) "T" in
  let check survives k =
    Alcotest.(check bool)
      (Printf.sprintf "row %d %s" k (if survives then "survived" else "lost"))
      survives
      (Table.mem tbl (Row.make [ Value.Int k ]))
  in
  List.iter (check true) kept;
  List.iter (check false) lost;
  Persist.close p2;
  H.wipe dir

let test_acked_commits_survive_checkpoint_crash () =
  let dir, p = new_t_store () in
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
  crash_and_check_rows dir p ~kept:[ 9001; 9002; 9003 ] ~lost:[]

(* The durability floor the ack protocol actually promises: commits up
   to [synced_commits] survive any crash; the tail still inside the
   open window may be lost (the documented group-commit contract). With
   window 3 and seven commits, the barrier fired at 3 and 6 — the
   simulated crash then drops exactly the one buffered commit: legal
   loss, pinned here so a change to the contract shows up. *)
let test_synced_commits_is_the_durability_floor () =
  let dir, p = new_t_store () in
  let db = Persist.db p in
  let mgr = Db.manager db in
  Manager.set_group_commit mgr 3;
  let synced_before = Manager.synced_commits mgr in
  List.iter (commit_row db) [ 9001; 9002; 9003; 9004; 9005; 9006; 9007 ];
  Alcotest.(check int) "floor after two barriers" (synced_before + 6)
    (Manager.synced_commits mgr);
  crash_and_check_rows dir p
    ~kept:[ 9001; 9002; 9003; 9004; 9005; 9006 ]
    ~lost:[ 9007 ]

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

(* Consecutive cells that share a group name form one Alcotest group.
   The uncrashed soak cells stay in quick runs. *)
let grouped cells =
  List.fold_right
    (fun (group, name, c) acc ->
       let speed = match c.plan with Soak _ -> `Quick | Sites | Recovery -> `Slow in
       let case = Alcotest.test_case name speed (run_cell c) in
       match acc with
       | (g, cases) :: rest when String.equal g group -> (g, case :: cases) :: rest
       | _ -> (group, [ case ]) :: acc)
    cells []

let () =
  (* The longest group name is "matrix foj wal watermarks" (25
     characters). Alcotest sizes its name column by it and truncates
     every case's printed name to fit, so another width would rename
     cases in the output. *)
  Alcotest.run "crash_matrix"
    (grouped cells
     @ [ ( "matrix coverage",
           [ Alcotest.test_case "every site, strategy and traffic crashed"
               `Slow test_coverage ] );
         ( "directed",
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
