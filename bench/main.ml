(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Sec. 6) plus the worked examples (Figs. 1-3),
   the synchronization-window measurement, the method-comparison
   ablation, and Bechamel micro-benchmarks of the substrate.

   Usage: main.exe [target ...] [--trace FILE] [--out FILE] [--gate FILE]
     targets: fig1 fig2 fig3 fig4a fig4b fig4c fig4d foj sync methods
              ablate deadlock wal engine migrate compare micro
              trace all quick
   The wal target measures the segmented log (append throughput under
   truncation, bounded-memory soak) and writes its JSON to [--out]
   when given. The engine target runs the end-to-end mixed workload
   under a concurrent FOJ change, writes BENCH_engine.json via [--out],
   gates against a committed baseline via [--gate FILE], and with
   [--trace FILE] streams its metric events there.
   No arguments = "all" (paper-scale; several minutes). Adding "quick"
   runs the selected harnesses at reduced scale. [--trace FILE] runs
   the traced fixed-seed scenario, writes every trace event to FILE
   (JSON lines) and prints the per-phase timings as JSON. *)

open Nbsc_value
open Nbsc_core
open Nbsc_sim
module Obs = Nbsc_obs.Obs
module Json = Nbsc_obs.Json

let say fmt = Format.printf (fmt ^^ "@.")

let header title =
  say "";
  say "==============================================================";
  say "%s" title;
  say "=============================================================="

let pp_points ~x_label points =
  say "%-10s %14s %14s  %s" x_label "rel.throughput" "rel.resp.time" "status";
  List.iter
    (fun p ->
       say "%-10.4f %14.4f %14.4f  %s" p.Experiment.x
         p.Experiment.rel_throughput p.Experiment.rel_response
         (match p.Experiment.tf_done_at with
          | Some t -> Printf.sprintf "done@%d" t
          | None ->
            if p.Experiment.tf_completed then "done" else "still running"))
    points

(* The benches start every change through the front door and then drive
   its bare executor. *)
let start db ~options spec =
  match Db.Schema_change.start db ~options spec with
  | Ok sc -> Db.Schema_change.transform sc
  | Error e -> failwith ("start: " ^ Nbsc_error.to_string e)

let keep_sources = { Options.default with Options.drop_sources = false }

(* {1 Worked examples} *)

let fig1 () =
  header "Figure 1 - example full outer join transformation";
  let r_schema =
    Schema.make ~key:[ "a" ]
      [ Schema.column ~nullable:false "a" Value.TInt;
        Schema.column "b" Value.TText; Schema.column "c" Value.TInt ]
  in
  let s_schema =
    Schema.make ~key:[ "c" ]
      [ Schema.column ~nullable:false "c" Value.TInt;
        Schema.column "d" Value.TText ]
  in
  let db = Nbsc_engine.Db.create () in
  ignore (Nbsc_engine.Db.create_table db ~name:"R" r_schema);
  ignore (Nbsc_engine.Db.create_table db ~name:"S" s_schema);
  let row vs = Row.make vs in
  (match
     Nbsc_engine.Db.load db ~table:"R"
       [ row [ Value.Int 1; Value.Text "John"; Value.Int 1 ];
         row [ Value.Int 2; Value.Text "Karen"; Value.Int 1 ];
         row [ Value.Int 3; Value.Text "Mary"; Value.Int 3 ] ]
   with
   | Ok () -> ()
   | Error _ -> failwith "load R");
  (match
     Nbsc_engine.Db.load db ~table:"S"
       [ row [ Value.Int 1; Value.Text "as" ];
         row [ Value.Int 3; Value.Text "Oslo" ] ]
   with
   | Ok () -> ()
   | Error _ -> failwith "load S");
  say "R:";
  say "%s"
    (Format.asprintf "%a" Nbsc_relalg.Relalg.pp (Nbsc_engine.Db.snapshot db "R"));
  say "S:";
  say "%s"
    (Format.asprintf "%a" Nbsc_relalg.Relalg.pp (Nbsc_engine.Db.snapshot db "S"));
  let spec =
    { Spec.r_table = "R"; s_table = "S"; t_table = "T";
      join_r = [ "c" ]; join_s = [ "c" ]; t_join = [ "c" ];
      r_carry = [ "a"; "b" ]; s_carry = [ "d" ]; many_to_many = false }
  in
  let tf = start db ~options:keep_sources (Spec.Foj spec) in
  (match Transform.run tf with Ok () -> () | Error m -> failwith m);
  say "T = R FOJ S (produced by the non-blocking transformation):";
  say "%s"
    (Format.asprintf "%a" Nbsc_relalg.Relalg.pp (Nbsc_engine.Db.snapshot db "T"))

let fig2 () =
  header "Figure 2 - lock compatibility matrix for T (non-blocking sync)";
  say "%s" (Format.asprintf "%a" Nbsc_lock.Compat.pp_figure2 ());
  (* The 36 cells from the paper, row-major (true = compatible). *)
  let expected =
    [ [ true; true; true; true; true; false ];
      [ true; true; true; true; true; false ];
      [ true; true; true; false; false; false ];
      [ true; true; false; true; true; false ];
      [ true; true; false; true; true; false ];
      [ false; false; false; false; false; false ] ]
  in
  if Nbsc_lock.Compat.figure2_cells () = expected then
    say "matches the paper's matrix: yes (36/36 cells)"
  else say "matches the paper's matrix: NO - MISMATCH"

let fig3 () =
  header "Figure 3 / Example 1 - example split transformation";
  let t_schema =
    Schema.make ~key:[ "id" ]
      [ Schema.column ~nullable:false "id" Value.TInt;
        Schema.column "name" Value.TText;
        Schema.column "postal_code" Value.TInt;
        Schema.column "city" Value.TText ]
  in
  let db = Nbsc_engine.Db.create () in
  ignore (Nbsc_engine.Db.create_table db ~name:"Customer" t_schema);
  let row i n p c =
    Row.make [ Value.Int i; Value.Text n; Value.Int p; Value.Text c ]
  in
  (match
     Nbsc_engine.Db.load db ~table:"Customer"
       [ row 1 "Peter" 7050 "Trondheim";
         row 2 "Mark" 5020 "Bergen";
         row 3 "Gary" 50 "Oslo";
         row 134 "Jen" 7050 "Trondheim" ]
   with
   | Ok () -> ()
   | Error _ -> failwith "load Customer");
  say "Customer:";
  say "%s"
    (Format.asprintf "%a" Nbsc_relalg.Relalg.pp
       (Nbsc_engine.Db.snapshot db "Customer"));
  let spec =
    { Spec.t_table' = "Customer"; r_table' = "CustomerAddr";
      s_table' = "Place"; r_cols = [ "id"; "name"; "postal_code" ];
      s_cols = [ "postal_code"; "city" ]; split_key = [ "postal_code" ];
      assume_consistent = false }
  in
  let tf = start db ~options:keep_sources (Spec.Split spec) in
  (match Transform.run tf with Ok () -> () | Error m -> failwith m);
  say "CustomerAddr (R):";
  say "%s"
    (Format.asprintf "%a" Nbsc_relalg.Relalg.pp
       (Nbsc_engine.Db.snapshot db "CustomerAddr"));
  say "Place (S), with reference counters:";
  let s_tbl = Nbsc_engine.Db.table db "Place" in
  Nbsc_storage.Table.iter s_tbl (fun _ record ->
      say "  %s" (Format.asprintf "%a" Nbsc_storage.Record.pp record))

(* {1 Figure 4} *)

let paper_note lines = List.iter (fun l -> say "  paper: %s" l) lines

let workloads = [ 50.; 60.; 70.; 80.; 90.; 100. ]

let fig4a setup =
  header
    "Figure 4(a) - rel. throughput during initial population (split, 20% \
     updates on T)";
  paper_note [ "~0.94 at 100% workload rising to ~0.99-1.00 at 50%" ];
  pp_points ~x_label:"workload%"
    (Experiment.fig4ab_population ~setup ~workloads ())

let fig4b setup =
  header
    "Figure 4(b) - rel. response time during initial population (split, 20% \
     updates on T)";
  paper_note [ "~1.05 at 40-50% workload rising to ~1.25-1.30 at 100%" ];
  pp_points ~x_label:"workload%"
    (Experiment.fig4ab_population ~setup ~workloads:(40. :: workloads) ())

let fig4c setup =
  header
    "Figure 4(c) - rel. throughput during log propagation, 20% vs 80% updates \
     on T";
  paper_note
    [ "20% mix: ~0.96-0.98 across workloads; 80% mix: falling to ~0.88-0.92";
      "(the 80% mix needs ~4x the propagation priority)" ];
  say "-- 20%% of updates on T --";
  pp_points ~x_label:"workload%"
    (Experiment.fig4c_propagation ~setup ~source_share:0.2
       ~workloads:(40. :: workloads) ());
  say "-- 80%% of updates on T --";
  pp_points ~x_label:"workload%"
    (Experiment.fig4c_propagation ~setup ~source_share:0.8
       ~workloads:(40. :: workloads) ())

let fig4d_priorities = [ 0.0005; 0.001; 0.002; 0.005; 0.01; 0.02; 0.04; 0.08 ]

let fig4d setup =
  header
    "Figure 4(d) - completion time and interference vs priority (75% workload)";
  paper_note
    [ "completion time ~1/priority; below a threshold (paper: ~0.5%) the";
      "transformation never finishes; interference grows with priority" ];
  pp_points ~x_label:"priority"
    (Experiment.fig4d_priority ~setup ~workload_pct:75.
       ~priorities:fig4d_priorities ());
  say "-- with the anti-starvation governor (every point must complete) --";
  pp_points ~x_label:"priority"
    (Experiment.fig4d_priority_governed ~setup ~workload_pct:75.
       ~priorities:fig4d_priorities ())

let fig4_foj setup =
  header "Figure 4(a)/(c) for FOJ (paper: 'very similar results')";
  say "-- initial population (FOJ of R:scale x S:0.4*scale rows) --";
  pp_points ~x_label:"workload%"
    (Experiment.fig4ab_population_foj ~setup ~workloads ());
  say "-- log propagation, 20%% updates on sources --";
  pp_points ~x_label:"workload%"
    (Experiment.fig4c_propagation_foj ~setup ~source_share:0.2 ~workloads ())

let sync_bench setup =
  header "Synchronization window (paper: < 1 ms, non-blocking abort)";
  List.iter
    (fun strategy ->
       match Experiment.sync_window ~setup ~strategy () with
       | Error e -> say "sync window failed: %s" (Nbsc_error.to_string e)
       | Ok r ->
         say "%-22s final-iteration records=%d wall=%s forced aborts=%d"
           r.Experiment.strategy_name r.Experiment.final_records
           (match r.Experiment.wall_ns with
            | Some ns -> Printf.sprintf "%.4f ms" (float_of_int ns /. 1e6)
            | None -> "n/a")
           r.Experiment.forced_aborts)
    [ Options.Nonblocking_abort; Options.Nonblocking_commit;
      Options.Blocking_commit ]

let ablate setup =
  header "Ablations: iteration-analysis threshold and batch size";
  say "-- sync_lag_threshold sweep (latch window vs eagerness) --";
  List.iter
    (fun r -> say "%s" (Format.asprintf "%a" Experiment.pp_threshold_row r))
    (Experiment.threshold_sweep ~setup
       ~thresholds:[ 0; 2; 8; 64; 512; 4096 ] ());
  say "-- batch-size sweep --";
  List.iter
    (fun r -> say "%s" (Format.asprintf "%a" Experiment.pp_batch_row r))
    (Experiment.batch_sweep ~setup ~batches:[ 4; 16; 64; 256; 1024 ] ());
  say "-- iteration-analysis policies (paper Sec. 3.3's three bases) --";
  (match Experiment.policy_comparison ~setup () with
   | Error e -> say "policy comparison failed: %s" (Nbsc_error.to_string e)
   | Ok rows ->
     List.iter
       (fun r -> say "%s" (Format.asprintf "%a" Experiment.pp_policy_row r))
       rows)

let methods setup =
  header "Method comparison (ablation): log-based vs blocking vs triggers";
  List.iter
    (fun row -> say "%s" (Format.asprintf "%a" Experiment.pp_method_row row))
    (Experiment.method_comparison ~setup ~workload_pct:75. ())

let deadlock_bench quick =
  header "Deadlock detector under a high-conflict workload";
  say "  (40-row table, 90%% of updates on it, transformation propagating";
  say "   throughout; youngest-in-cycle detection, wait-queue fairness)";
  let kind = Sim.Split_scenario { t_rows = 40; assume_consistent = true } in
  let workload =
    { Sim.n_clients = 24;
      think_time = 400;
      ops_per_txn = 6;
      source_share = 0.9;
      seed = 42 }
  in
  let duration = if quick then 150_000 else 600_000 in
  (* Sync gated off: the transformation stays in propagation for the
     whole horizon, so clients keep hammering the 40-row source table
     (after the switch they would route to the targets and the
     hot spot would evaporate). Hook-threaded cycles are exercised by
     the directed deadlock tests and the contention soak. *)
  let options =
    { Options.default with
      Options.scan_batch = 8;
      propagate_batch = 16;
      analysis = Analysis.Remaining_records 8;
      sync = Options.Nonblocking_commit;
      drop_sources = false;
      sync_gate = (fun () -> false) }
  in
  let r =
    Sim.run ~kind ~workload
      ~background:(Sim.Transformation { Sim.priority = 0.1; options })
      ~duration ~warmup:(duration / 20) ()
  in
  let s = r.Sim.mgr_stats in
  say "engine:  ops=%d commits=%d aborts=%d blocked=%d" s.Nbsc_txn.Manager.Stats.ops
    s.Nbsc_txn.Manager.Stats.commits s.Nbsc_txn.Manager.Stats.aborts s.Nbsc_txn.Manager.Stats.blocked;
  say "detector: lock_waits=%d deadlocks(Die)=%d wounded=%d"
    s.Nbsc_txn.Manager.Stats.lock_waits s.Nbsc_txn.Manager.Stats.deadlocks
    s.Nbsc_txn.Manager.Stats.victims;
  say "clients: %s" (Format.asprintf "%a" Metrics.pp_summary r.Sim.summary);
  say "tf: %s"
    (match r.Sim.tf_done_at with
     | Some t -> Printf.sprintf "completed at t=%d" t
     | None -> "still running at horizon")

(* {1 Traced run} *)

let trace_bench ~quick ~out =
  header "Traced fixed-seed run (schema-change spans + quantum points)";
  let setup =
    if quick then Experiment.quick_setup
    else { Experiment.quick_setup with Experiment.scale = 10_000 }
  in
  let sink, finish =
    match out with
    | Some path ->
      let oc = open_out path in
      (Some (Obs.jsonl_sink oc), fun () -> close_out oc)
    | None -> (None, fun () -> ())
  in
  let tr = Experiment.traced_run ~setup ?sink () in
  finish ();
  (match out with
   | Some path ->
     say "%d trace events written to %s" (List.length tr.Experiment.tr_events)
       path
   | None ->
     say "%d trace events captured (pass --trace FILE to keep them)"
       (List.length tr.Experiment.tr_events));
  say "per-phase timings (JSON):";
  say "%s" (Json.to_string (Experiment.phases_to_json tr.Experiment.tr_phases))

(* {1 WAL bounded-memory benchmark} *)

let wal_bench ~quick ~out =
  header "WAL segmented log: append throughput and bounded memory";
  let module Log = Nbsc_wal.Log in
  let module Lsn = Nbsc_wal.Lsn in
  (* Raw path: sustained appends with periodic low-water truncation,
     the access pattern the Manager produces. The live window is held
     at [keep] records; the interesting numbers are appends/s (segment
     bookkeeping must not tax the hot path) and the live high-water
     mark (must track the window, not the total volume). *)
  let total = if quick then 200_000 else 2_000_000 in
  let keep = 8_192 in
  let log = Log.create ~segment_size:1024 () in
  let body =
    Nbsc_wal.Log_record.Op
      (Nbsc_wal.Log_record.Insert
         { table = "t"; row = Row.make [ Value.Int 1; Value.Text "payload" ] })
  in
  let t0 = Sys.time () in
  for i = 1 to total do
    ignore (Log.append log ~txn:1 ~prev_lsn:Lsn.zero body);
    if i mod keep = 0 then Log.truncate_to log (Lsn.of_int (i - keep + 1))
  done;
  let dt = Sys.time () -. t0 in
  let appends_per_s = if dt > 0. then float_of_int total /. dt else 0. in
  say "raw: %d appends in %.3fs (%.0f appends/s)" total dt appends_per_s;
  say "raw: live high-water %d records (window %d), %d segments live, %d reclaimed"
    (Log.live_high_water log) keep (Log.segments log) (Log.truncated_total log);
  (* End-to-end: the sim soak under a never-synchronizing schema change
     plus sustained traffic, at 1x and 2x duration. Bounded memory
     means the high-water mark does not follow the duration. *)
  let soak duration =
    let options =
      { Options.default with
        Options.scan_batch = 16;
        propagate_batch = 32;
        analysis = Analysis.Remaining_records 8;
        drop_sources = false;
        sync_gate = (fun () -> false) }
    in
    let workload =
      { Sim.n_clients = 8;
        think_time = 500;
        ops_per_txn = 10;
        source_share = 0.2;
        seed = 11 }
    in
    Sim.run
      ~kind:(Sim.Split_scenario { t_rows = 500; assume_consistent = true })
      ~workload
      ~background:(Sim.Transformation { Sim.priority = 0.05; options })
      ~duration ~warmup:10_000 ()
  in
  let base_duration = if quick then 150_000 else 600_000 in
  let short = soak base_duration in
  let long = soak (2 * base_duration) in
  let pp_run tag d (r : Sim.result) =
    say "soak %s (duration %d): high-water %d live records, %d reclaimed, %d committed"
      tag d r.Sim.wal_high_water r.Sim.wal_truncated
      r.Sim.summary.Metrics.committed
  in
  pp_run "1x" base_duration short;
  pp_run "2x" (2 * base_duration) long;
  say "flat across durations: %s"
    (if long.Sim.wal_high_water <= 2 * short.Sim.wal_high_water then "yes"
     else "NO - GROWS WITH RUN LENGTH");
  let json =
    Json.Obj
      [ ("bench", Json.String "wal");
        ("quick", Json.Bool quick);
        ( "raw",
          Json.Obj
            [ ("appends", Json.Int total);
              ("keep_window", Json.Int keep);
              ("seconds", Json.Float dt);
              ("appends_per_s", Json.Float appends_per_s);
              ("live_high_water", Json.Int (Log.live_high_water log));
              ("segments_live", Json.Int (Log.segments log));
              ("records_reclaimed", Json.Int (Log.truncated_total log)) ] );
        ( "soak",
          Json.List
            (List.map
               (fun (d, (r : Sim.result)) ->
                  Json.Obj
                    [ ("duration", Json.Int d);
                      ("wal_high_water", Json.Int r.Sim.wal_high_water);
                      ("wal_truncated", Json.Int r.Sim.wal_truncated);
                      ( "committed",
                        Json.Int r.Sim.summary.Metrics.committed ) ])
               [ (base_duration, short); (2 * base_duration, long) ]) ) ]
  in
  (match out with
   | Some path ->
     let oc = open_out path in
     output_string oc (Json.to_string json);
     output_char oc '\n';
     close_out oc;
     say "results written to %s" path
   | None -> say "%s" (Json.to_string json))

(* {1 End-to-end engine benchmark}

   A full mixed workload against a persisted database: populate an FOJ
   schema change, build and drain a propagation backlog, then measure
   transaction throughput while the propagator runs concurrently — the
   number the hot-path work (structured WAL records, compiled rule
   plans, group commit) is accountable to. Writes BENCH_engine.json
   via [--out]; [--gate FILE] compares the fresh throughput against a
   committed baseline and fails the process on a >20% regression. *)

(* Pre-refactor numbers, measured by this same bench on the code as of
   the bounded-memory-WAL PR (commit cc244f3, full scale, this
   machine). Recorded here so every BENCH_engine.json carries both
   sides of the before/after comparison the refactor is accountable
   to. *)
let pre_refactor_baseline =
  [ ("txn_per_s", 7400.0);
    ("populate_rows_per_s", 215000.0);
    ("propagate_records_per_s", 183000.0);
    ("alloc_words_per_txn", 12524.0) ]

let engine_bench ~quick ~out ~gate ~trace =
  header "Engine end-to-end: mixed workload under a concurrent FOJ change";
  let module Db = Nbsc_engine.Db in
  let module Persist = Nbsc_engine.Persist in
  let module Manager = Nbsc_txn.Manager in
  let scale = if quick then 3_000 else 15_000 in
  let s_count = scale * 2 / 5 in
  let mixed_txns = if quick then 1_500 else 8_000 in
  let ops_per_txn = 8 in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "nbsc_bench_engine.%d" (Unix.getpid ()))
  in
  (* A previous run may have died and left the directory behind. *)
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Sys.rmdir dir
  end;
  let p =
    match Persist.create_dir ~dir with
    | Ok p -> p
    | Error e -> failwith (Nbsc_error.to_string e)
  in
  let db = Persist.db p in
  let mgr = Db.manager db in
  let obs = Manager.obs mgr in
  let trace_finish =
    match trace with
    | None -> fun () -> ()
    | Some path ->
      let oc = open_out path in
      let sink = Obs.jsonl_sink oc in
      Obs.Registry.attach obs sink;
      fun () ->
        Obs.Registry.detach obs sink;
        close_out oc;
        say "metric events written to %s" path
  in
  let r_schema =
    Schema.make ~key:[ "a" ]
      [ Schema.column ~nullable:false "a" Value.TInt;
        Schema.column "b" Value.TText; Schema.column "c" Value.TInt ]
  in
  let s_schema =
    Schema.make ~key:[ "c" ]
      [ Schema.column ~nullable:false "c" Value.TInt;
        Schema.column "d" Value.TText ]
  in
  ignore (Db.create_table db ~name:"R" r_schema);
  ignore (Db.create_table db ~name:"S" s_schema);
  let load table rows =
    match Db.load db ~table rows with
    | Ok () -> ()
    | Error e -> failwith (Format.asprintf "load %s: %a" table Manager.pp_error e)
  in
  let rec chunked lo hi step f =
    if lo <= hi then begin
      f lo (min hi (lo + step - 1));
      chunked (lo + step) hi step f
    end
  in
  chunked 1 scale 2048 (fun lo hi ->
      load "R"
        (List.init (hi - lo + 1) (fun i ->
             let k = lo + i in
             Row.make
               [ Value.Int k; Value.Text ("r" ^ string_of_int k);
                 Value.Int ((k mod s_count) + 1) ])));
  chunked 1 s_count 2048 (fun lo hi ->
      load "S"
        (List.init (hi - lo + 1) (fun i ->
             let k = lo + i in
             Row.make [ Value.Int k; Value.Text ("s" ^ string_of_int k) ])));
  let spec =
    { Spec.r_table = "R"; s_table = "S"; t_table = "T";
      join_r = [ "c" ]; join_s = [ "c" ]; t_join = [ "c" ];
      r_carry = [ "a"; "b" ]; s_carry = [ "d" ]; many_to_many = false }
  in
  let gate_open = ref false in
  let options =
    { Options.default with
      Options.scan_batch = 512;
      propagate_batch = 512;
      analysis = Analysis.Remaining_records 64;
      drop_sources = false;
      sync_gate = (fun () -> !gate_open) }
  in
  let tf = start db ~options (Spec.Foj spec) in
  let step_tf () =
    match Transform.step tf with
    | `Running | `Done -> ()
    | `Failed m -> failwith ("engine bench: transformation failed: " ^ m)
  in
  (* Phase A: initial population, timed in isolation. *)
  let t0 = Unix.gettimeofday () in
  while Transform.phase tf = Transform.Populating do
    step_tf ()
  done;
  let populate_s = Unix.gettimeofday () -. t0 in
  let populated = (Transform.progress tf).Transform.produced in
  let populate_rate =
    if populate_s > 0. then float_of_int populated /. populate_s else 0.
  in
  say "populate: %d rows in %.3fs (%.0f rows/s)" populated populate_s
    populate_rate;
  (* Workload generator shared by phases B and C. Updates dominate,
     split across the non-join R column, the join column (rekeying
     rule), and S; a slice of inserts grows R past the initial scan. *)
  let rng = Random.State.make [| 42 |] in
  let next_r = ref scale in
  let errors = ref 0 in
  let run_txn () =
    match
      Db.with_txn db (fun txn ->
          let rec ops n =
            if n = 0 then Ok ()
            else
              let r =
                match Random.State.int rng 100 with
                | d when d < 45 ->
                  let k = Row.make [ Value.Int (1 + Random.State.int rng scale) ] in
                  Manager.update mgr ~txn ~table:"R" ~key:k
                    [ (1, Value.Text ("u" ^ string_of_int n)) ]
                | d when d < 60 ->
                  let k = Row.make [ Value.Int (1 + Random.State.int rng scale) ] in
                  Manager.update mgr ~txn ~table:"R" ~key:k
                    [ (2, Value.Int (1 + Random.State.int rng s_count)) ]
                | d when d < 75 ->
                  let k =
                    Row.make [ Value.Int (1 + Random.State.int rng s_count) ]
                  in
                  Manager.update mgr ~txn ~table:"S" ~key:k
                    [ (1, Value.Text ("v" ^ string_of_int n)) ]
                | d when d < 90 ->
                  incr next_r;
                  Manager.insert mgr ~txn ~table:"R"
                    (Row.make
                       [ Value.Int !next_r;
                         Value.Text ("r" ^ string_of_int !next_r);
                         Value.Int (1 + Random.State.int rng s_count) ])
                | _ ->
                  let k = Row.make [ Value.Int (1 + Random.State.int rng scale) ] in
                  (match Manager.read mgr ~txn ~table:"R" ~key:k with
                   | Ok _ -> Ok ()
                   | Error e -> Error e)
              in
              match r with Ok () -> ops (n - 1) | Error e -> Error e
          in
          ops ops_per_txn)
    with
    | Ok () -> ()
    | Error _ -> incr errors
  in
  (* Phase B: build a propagation backlog with the job parked, then
     time draining it — the pure redo-rule application rate. *)
  let backlog_txns = if quick then 300 else 1_500 in
  for _ = 1 to backlog_txns do
    run_txn ()
  done;
  let lag0 = (Transform.progress tf).Transform.lag in
  let before_prop = (Transform.progress tf).Transform.propagated in
  let t0 = Unix.gettimeofday () in
  while (Transform.progress tf).Transform.lag > 0 do
    step_tf ()
  done;
  let propagate_s = Unix.gettimeofday () -. t0 in
  let propagated = (Transform.progress tf).Transform.propagated - before_prop in
  let propagate_rate =
    if propagate_s > 0. then float_of_int propagated /. propagate_s else 0.
  in
  say "propagate: backlog lag=%d, %d records in %.3fs (%.0f records/s)" lag0
    propagated propagate_s propagate_rate;
  (* Phase C: the headline number — mixed workload with the propagator
     stepped concurrently (one quantum per transaction), persistence
     attached, allocation measured across the whole phase. *)
  (* Commits inside a 32-wide batch share one durability barrier; the
     trailing flush stays inside the timed region so every measured
     transaction is durable by the end of the phase. *)
  Manager.set_group_commit mgr 32;
  let commits0 = (Manager.Stats.get mgr).Manager.Stats.commits in
  let gc0 = Gc.quick_stat () in
  let words0 = gc0.Gc.minor_words +. gc0.Gc.major_words -. gc0.Gc.promoted_words in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to mixed_txns do
    run_txn ();
    ignore (Db.step_jobs db)
  done;
  Manager.flush_commits mgr;
  let mixed_s = Unix.gettimeofday () -. t0 in
  Manager.set_group_commit mgr 1;
  let gc1 = Gc.quick_stat () in
  let words1 = gc1.Gc.minor_words +. gc1.Gc.major_words -. gc1.Gc.promoted_words in
  let commits = (Manager.Stats.get mgr).Manager.Stats.commits - commits0 in
  let txn_per_s = if mixed_s > 0. then float_of_int commits /. mixed_s else 0. in
  let alloc_words_per_txn =
    if commits > 0 then (words1 -. words0) /. float_of_int commits else 0.
  in
  say "mixed: %d txns (%d ops each) in %.3fs = %.0f txn/s, %.0f alloc words/txn"
    commits ops_per_txn mixed_s txn_per_s alloc_words_per_txn;
  if !errors > 0 then say "mixed: %d transactions failed" !errors;
  List.iter
    (fun (name, v) ->
       if String.starts_with ~prefix:"engine." name then
         say "%-28s %s" name (Format.asprintf "%a" Obs.pp_value v))
    (Obs.Registry.snapshot obs);
  (* Phase D: open the gate, drive the change to completion, checkpoint
     and close — the full lifecycle must still finish under the bench
     workload. *)
  gate_open := true;
  (match Db.run_jobs db with
   | Ok () -> ()
   | Error m -> failwith ("engine bench: run to completion: " ^ m));
  let t_rows = Db.row_count db "T" in
  say "done: T has %d rows; transformation %s" t_rows
    (Format.asprintf "%a" Transform.pp_phase (Transform.phase tf));
  (match Persist.checkpoint p with
   | Ok () -> ()
   | Error e -> failwith (Nbsc_error.to_string e));
  Persist.close p;
  trace_finish ();
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  let assoc_float l = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) l) in
  let json =
    Json.Obj
      [ ("bench", Json.String "engine");
        ("quick", Json.Bool quick);
        ("scale", Json.Int scale);
        ( "populate",
          Json.Obj
            [ ("rows", Json.Int populated);
              ("seconds", Json.Float populate_s);
              ("rows_per_s", Json.Float populate_rate) ] );
        ( "propagate",
          Json.Obj
            [ ("records", Json.Int propagated);
              ("seconds", Json.Float propagate_s);
              ("records_per_s", Json.Float propagate_rate) ] );
        ( "mixed",
          Json.Obj
            [ ("txns", Json.Int commits);
              ("ops_per_txn", Json.Int ops_per_txn);
              ("seconds", Json.Float mixed_s);
              ("txn_per_s", Json.Float txn_per_s);
              ("alloc_words_per_txn", Json.Float alloc_words_per_txn) ] );
        ("t_rows", Json.Int t_rows);
        ("baseline", assoc_float pre_refactor_baseline);
        ( "speedup_txn",
          let base = List.assoc "txn_per_s" pre_refactor_baseline in
          Json.Float (if base > 0. then txn_per_s /. base else 0.) ) ]
  in
  (match out with
   | Some path ->
     let oc = open_out path in
     output_string oc (Json.to_string json);
     output_char oc '\n';
     close_out oc;
     say "results written to %s" path
   | None -> say "%s" (Json.to_string json));
  (* Regression gate: fresh throughput vs the committed baseline. The
     margin absorbs machine noise; a real hot-path regression lands far
     outside it. *)
  match gate with
  | None -> ()
  | Some path ->
    let contents =
      let ic = open_in path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    (match Json.of_string (String.trim contents) with
     | Error m -> failwith (Printf.sprintf "gate %s: bad JSON: %s" path m)
     | Ok j ->
       let committed =
         match Option.bind (Json.member "mixed" j) (Json.member "txn_per_s")
               |> Option.map (fun v -> Json.to_float v)
         with
         | Some (Some f) -> f
         | _ -> failwith (Printf.sprintf "gate %s: no mixed.txn_per_s" path)
       in
       let floor = 0.8 *. committed in
       say "gate: fresh %.0f txn/s vs committed %.0f txn/s (floor %.0f)"
         txn_per_s committed floor;
       if txn_per_s < floor then begin
         say "gate: FAIL - >20%% throughput regression";
         exit 1
       end
       else say "gate: ok")

(* {1 Micro-benchmarks (Bechamel)} *)

let micro () =
  header "Micro-benchmarks (Bechamel; ns per operation)";
  let open Bechamel in
  let open Toolkit in
  let log = Nbsc_wal.Log.create () in
  let table =
    Nbsc_storage.Table.create ~name:"bench"
      ~indexes:[ ("by_c", [ "c" ]) ]
      (Schema.make ~key:[ "a" ]
         [ Schema.column ~nullable:false "a" Value.TInt;
           Schema.column "b" Value.TText; Schema.column "c" Value.TInt ])
  in
  let n = ref 0 in
  let locks = Nbsc_lock.Lock_table.create () in
  let key_of i = Row.make [ Value.Int i ] in
  let sample_row =
    Row.make [ Value.Int 1; Value.Text "hello world"; Value.Int 42 ]
  in
  for i = 0 to 9_999 do
    ignore
      (Nbsc_storage.Table.insert table
         ~lsn:(Nbsc_wal.Lsn.of_int (i + 1))
         (Row.make
            [ Value.Int i; Value.Text ("b" ^ string_of_int i);
              Value.Int (i mod 97) ]))
  done;
  let tests =
    [ Test.make ~name:"log append+get"
        (Staged.stage (fun () ->
             incr n;
             let lsn =
               Nbsc_wal.Log.append log ~txn:1 ~prev_lsn:Nbsc_wal.Lsn.zero
                 (Nbsc_wal.Log_record.Op
                    (Nbsc_wal.Log_record.Insert
                       { table = "t"; row = sample_row }))
             in
             ignore (Nbsc_wal.Log.get log lsn)));
      Test.make ~name:"log record encode/decode"
        (Staged.stage (fun () ->
             let r =
               { Nbsc_wal.Log_record.lsn = Nbsc_wal.Lsn.of_int 7;
                 txn = 3;
                 prev_lsn = Nbsc_wal.Lsn.of_int 6;
                 body =
                   Nbsc_wal.Log_record.Op
                     (Nbsc_wal.Log_record.Insert
                        { table = "t"; row = sample_row })
               }
             in
             ignore (Nbsc_wal.Log_record.decode (Nbsc_wal.Log_record.encode r))));
      Test.make ~name:"lock acquire+release"
        (Staged.stage (fun () ->
             incr n;
             let key = key_of (!n mod 1024) in
             ignore
               (Nbsc_lock.Lock_table.acquire locks ~owner:1 ~table:"t" ~key
                  { Nbsc_lock.Compat.mode = Nbsc_lock.Compat.X;
                    provenance = Nbsc_lock.Compat.Native });
             Nbsc_lock.Lock_table.release locks ~owner:1 ~table:"t" ~key));
      Test.make ~name:"table point lookup"
        (Staged.stage (fun () ->
             incr n;
             ignore (Nbsc_storage.Table.find table (key_of (!n mod 10_000)))));
      Test.make ~name:"secondary index lookup"
        (Staged.stage (fun () ->
             incr n;
             ignore
               (Nbsc_storage.Table.index_lookup table ~index:"by_c"
                  (Row.make [ Value.Int (!n mod 97) ]))));
      Test.make ~name:"table update"
        (Staged.stage (fun () ->
             incr n;
             ignore
               (Nbsc_storage.Table.update table
                  ~lsn:(Nbsc_wal.Lsn.of_int (100_000 + !n))
                  ~key:(key_of (!n mod 10_000))
                  [ (1, Value.Text "updated") ])))
    ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"nbsc" tests) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name est ->
       match Analyze.OLS.estimates est with
       | Some [ e ] -> rows := (name, e) :: !rows
       | _ -> rows := (name, nan) :: !rows)
    results;
  List.iter
    (fun (name, e) -> say "%-32s %10.1f ns/op" name e)
    (List.sort compare !rows)

(* {1 Migration-strategy benchmark}

   The same FOJ change run under each initial-image migration strategy
   — eager, lazy, hybrid — with the same single-operation workload
   (locked updates, locked reads, snapshot reads) interleaved one
   transaction per quantum: when is the transformation cost paid, how
   many quanta until the change completes, what throughput does the
   workload see while it runs, and how much of the image was
   demand-migrated. The three final target relations must be
   identical: the strategy moves cost, never contents. Writes
   BENCH_migrate.json via [--out]; [--gate FILE] compares the eager
   run's workload throughput against a committed baseline and fails
   on a >30% regression. *)

type migrate_run = {
  mr_label : string;
  mr_quanta : int;
  mr_populate_quanta : int;
  mr_populate_s : float;
  mr_total_s : float;
  mr_txns : int;
  mr_txn_per_s : float;
  mr_demand : int;
  mr_scanned : int;
  mr_propagated : int;
}

let migrate_bench ~quick ~out ~gate =
  header "Migration strategies: eager vs lazy vs hybrid (FOJ)";
  let module Db = Nbsc_engine.Db in
  let module Manager = Nbsc_txn.Manager in
  let scale = if quick then 2_000 else 10_000 in
  let s_count = scale * 2 / 5 in
  let sweep_quantum = if quick then 16 else 64 in
  let r_schema =
    Schema.make ~key:[ "a" ]
      [ Schema.column ~nullable:false "a" Value.TInt;
        Schema.column "b" Value.TText; Schema.column "c" Value.TInt ]
  in
  let s_schema =
    Schema.make ~key:[ "c" ]
      [ Schema.column ~nullable:false "c" Value.TInt;
        Schema.column "d" Value.TText ]
  in
  let spec =
    { Spec.r_table = "R"; s_table = "S"; t_table = "T";
      join_r = [ "c" ]; join_s = [ "c" ]; t_join = [ "c" ];
      r_carry = [ "a"; "b" ]; s_carry = [ "d" ]; many_to_many = false }
  in
  let run_one (label, migration) =
    let db = Db.create () in
    let mgr = Db.manager db in
    ignore (Db.create_table db ~name:"R" r_schema);
    ignore (Db.create_table db ~name:"S" s_schema);
    let load table rows =
      match Db.load db ~table rows with
      | Ok () -> ()
      | Error e ->
        failwith (Format.asprintf "load %s: %a" table Manager.pp_error e)
    in
    let rec chunked lo hi step f =
      if lo <= hi then begin
        f lo (min hi (lo + step - 1));
        chunked (lo + step) hi step f
      end
    in
    chunked 1 scale 2048 (fun lo hi ->
        load "R"
          (List.init (hi - lo + 1) (fun i ->
               let k = lo + i in
               Row.make
                 [ Value.Int k; Value.Text ("r" ^ string_of_int k);
                   Value.Int ((k mod s_count) + 1) ])));
    chunked 1 s_count 2048 (fun lo hi ->
        load "S"
          (List.init (hi - lo + 1) (fun i ->
               let k = lo + i in
               Row.make [ Value.Int k; Value.Text ("s" ^ string_of_int k) ])));
    let options =
      Options.{ default with scan_batch = 256; propagate_batch = 256;
                strategy = migration; drop_sources = false }
    in
    let tf = start db ~options (Spec.Foj spec) in
    let rng = Random.State.make [| 7 |] in
    let txns = ref 0 in
    let errors = ref 0 in
    let run_txn () =
      let k = Row.make [ Value.Int (1 + Random.State.int rng scale) ] in
      let res =
        match Random.State.int rng 100 with
        | d when d < 40 ->
          Db.with_txn db (fun txn ->
              Manager.update mgr ~txn ~table:"R" ~key:k
                [ (1, Value.Text ("u" ^ string_of_int d)) ])
        | d when d < 70 ->
          Db.with_txn db (fun txn ->
              match Manager.read mgr ~txn ~table:"R" ~key:k with
              | Ok _ -> Ok ()
              | Error e -> Error e)
        | _ ->
          Db.with_txn ~isolation:`Snapshot db (fun txn ->
              match Manager.read mgr ~txn ~table:"R" ~key:k with
              | Ok _ -> Ok ()
              | Error e -> Error e)
      in
      match res with Ok () -> incr txns | Error _ -> incr errors
    in
    let quanta = ref 0 in
    let populate_quanta = ref 0 in
    let populate_s = ref 0. in
    let finished = ref false in
    let t0 = Unix.gettimeofday () in
    while not !finished do
      (match Transform.step tf with
       | `Running -> ()
       | `Done -> finished := true
       | `Failed m -> failwith ("migrate bench: transformation failed: " ^ m));
      incr quanta;
      if !populate_quanta = 0 && Transform.phase tf <> Transform.Populating
      then begin
        populate_quanta := !quanta;
        populate_s := Unix.gettimeofday () -. t0
      end;
      if not !finished then run_txn ();
      if !quanta > scale * 20 then
        failwith ("migrate bench: " ^ label ^ " did not converge")
    done;
    let total_s = Unix.gettimeofday () -. t0 in
    let p = Transform.progress tf in
    let txn_per_s =
      if total_s > 0. then float_of_int !txns /. total_s else 0.
    in
    say
      "%-8s %6d quanta (%d to populate, %.3fs), %.3fs total, %d txns \
       (%.0f txn/s, %d refused), %d demand-migrated, scanned %d, \
       propagated %d"
      label !quanta !populate_quanta !populate_s total_s !txns txn_per_s
      !errors
      (Transform.demand_migrations tf)
      p.Transform.scanned p.Transform.propagated;
    (* Whatever the strategy, T must equal the full outer join of the
       final sources — the strategy moves cost, never contents. *)
    let oracle =
      Nbsc_relalg.Relalg.full_outer_join
        { Nbsc_relalg.Relalg.r_join = [ "c" ]; s_join = [ "c" ];
          out_join = [ "c" ]; r_cols = [ "a"; "b" ]; s_cols = [ "d" ];
          out_key = [ "a" ] }
        (Db.snapshot db "R") (Db.snapshot db "S")
    in
    if not (Nbsc_relalg.Relalg.equal_as_sets oracle (Db.snapshot db "T"))
    then begin
      say "migrate bench: %s diverged from the FOJ oracle" label;
      exit 1
    end;
    { mr_label = label;
      mr_quanta = !quanta;
      mr_populate_quanta = !populate_quanta;
      mr_populate_s = !populate_s;
      mr_total_s = total_s;
      mr_txns = !txns;
      mr_txn_per_s = txn_per_s;
      mr_demand = Transform.demand_migrations tf;
      mr_scanned = p.Transform.scanned;
      mr_propagated = p.Transform.propagated }
  in
  let runs =
    List.map run_one
      [ ("eager", Options.Eager); ("lazy", Options.Lazy);
        ("hybrid", Options.Hybrid { sweep_quantum }) ]
  in
  let eager = List.hd runs in
  say "all strategies converged to their FOJ oracle";
  let run_json r =
    Json.Obj
      [ ("strategy", Json.String r.mr_label);
        ("quanta", Json.Int r.mr_quanta);
        ("populate_quanta", Json.Int r.mr_populate_quanta);
        ("populate_s", Json.Float r.mr_populate_s);
        ("total_s", Json.Float r.mr_total_s);
        ("txns", Json.Int r.mr_txns);
        ("txn_per_s", Json.Float r.mr_txn_per_s);
        ("demand_migrations", Json.Int r.mr_demand);
        ("scanned", Json.Int r.mr_scanned);
        ("propagated", Json.Int r.mr_propagated) ]
  in
  let find l = List.find (fun r -> String.equal r.mr_label l) runs in
  let lazy_run = find "lazy" in
  (* Across all three runs: the lazy run contributes by far the most
     transactions, so this aggregate is stable enough to gate on even
     at quick scale (the eager run alone finishes in a handful of
     quanta and its rate is mostly timer noise). *)
  let workload_txn_per_s =
    let txns = List.fold_left (fun a r -> a + r.mr_txns) 0 runs in
    let secs = List.fold_left (fun a r -> a +. r.mr_total_s) 0. runs in
    if secs > 0. then float_of_int txns /. secs else 0.
  in
  let json =
    Json.Obj
      [ ("bench", Json.String "migrate");
        ("quick", Json.Bool quick);
        ("scale", Json.Int scale);
        ("runs", Json.List (List.map run_json runs));
        ("eager_txn_per_s", Json.Float eager.mr_txn_per_s);
        ("workload_txn_per_s", Json.Float workload_txn_per_s);
        ( "lazy_total_vs_eager",
          Json.Float
            (if eager.mr_total_s > 0. then
               lazy_run.mr_total_s /. eager.mr_total_s
             else 0.) );
        ( "lazy_demand_share",
          Json.Float
            (float_of_int lazy_run.mr_demand
             /. float_of_int (scale + s_count)) ) ]
  in
  (match out with
   | Some path ->
     let oc = open_out path in
     output_string oc (Json.to_string json);
     output_char oc '\n';
     close_out oc;
     say "results written to %s" path
   | None -> say "%s" (Json.to_string json));
  match gate with
  | None -> ()
  | Some path ->
    let contents =
      let ic = open_in path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    (match Json.of_string (String.trim contents) with
     | Error m -> failwith (Printf.sprintf "gate %s: bad JSON: %s" path m)
     | Ok j ->
       let committed =
         match
           Json.member "workload_txn_per_s" j
           |> Option.map (fun v -> Json.to_float v)
         with
         | Some (Some f) -> f
         | _ ->
           failwith (Printf.sprintf "gate %s: no workload_txn_per_s" path)
       in
       let floor = 0.7 *. committed in
       say "gate: fresh %.0f txn/s vs committed %.0f txn/s (floor %.0f)"
         workload_txn_per_s committed floor;
       if workload_txn_per_s < floor then begin
         say
           "gate: FAIL - >30%% workload-throughput regression under \
            migration";
         exit 1
       end
       else say "gate: ok")

(* {1 Competitor-strategy comparison}

   The same FOJ change run by two implementations head-to-head: the
   paper's log-redo method (eager, fuzzy scan) and the classical
   shadow-table method (audit-log trigger plus a latched chunked
   backfill with an atomic cutover). Both face the identical
   single-operation workload — locked updates, locked reads,
   snapshot reads, one transaction per quantum — and each final target
   must equal the relational FOJ oracle over its own final sources
   (divergence exits non-zero). Reported per strategy: workload
   throughput and refusals (the shadow latches show up here), peak
   catch-up lag (propagator lag, resp. audit-log depth), the WAL
   record high-water, and the quanta a crash-and-resume costs (the
   paper method resumes from its checkpointed position; the shadow
   method starts over — that asymmetry is the point). Writes
   BENCH_compare.json via [--out]; [--gate FILE] compares the paper
   run's workload throughput against a committed baseline and fails on
   a >30% regression. *)

type compare_run = {
  cr_label : string;
  cr_quanta : int;
  cr_total_s : float;
  cr_txns : int;
  cr_refused : int;
  cr_txn_per_s : float;
  cr_lag_peak : int;
  cr_wal_high_water : int;
  cr_resume_quanta : int;
}

let compare_bench ~quick ~out ~gate =
  header "Competitor strategies: paper vs shadow-table (FOJ)";
  let module Db = Nbsc_engine.Db in
  let module Manager = Nbsc_txn.Manager in
  let module Log = Nbsc_wal.Log in
  let module Persist = Nbsc_engine.Persist in
  let module Shadow = Nbsc_baseline.Shadow_table in
  let scale = if quick then 1_500 else 8_000 in
  let r_schema =
    Schema.make ~key:[ "a" ]
      [ Schema.column ~nullable:false "a" Value.TInt;
        Schema.column "b" Value.TText; Schema.column "c" Value.TInt ]
  in
  let s_schema =
    Schema.make ~key:[ "c" ]
      [ Schema.column ~nullable:false "c" Value.TInt;
        Schema.column "d" Value.TText ]
  in
  let spec =
    { Spec.r_table = "R"; s_table = "S"; t_table = "T";
      join_r = [ "c" ]; join_s = [ "c" ]; t_join = [ "c" ];
      r_carry = [ "a"; "b" ]; s_carry = [ "d" ]; many_to_many = false }
  in
  let load db table rows =
    match Db.load db ~table rows with
    | Ok () -> ()
    | Error e ->
      failwith (Format.asprintf "load %s: %a" table Manager.pp_error e)
  in
  let seed_sources ?(n = scale) db =
    let ns = n * 2 / 5 in
    ignore (Db.create_table db ~name:"R" r_schema);
    ignore (Db.create_table db ~name:"S" s_schema);
    let rec chunked lo hi step f =
      if lo <= hi then begin
        f lo (min hi (lo + step - 1));
        chunked (lo + step) hi step f
      end
    in
    chunked 1 n 2048 (fun lo hi ->
        load db "R"
          (List.init (hi - lo + 1) (fun i ->
               let k = lo + i in
               Row.make
                 [ Value.Int k; Value.Text ("r" ^ string_of_int k);
                   Value.Int ((k mod ns) + 1) ])));
    chunked 1 ns 2048 (fun lo hi ->
        load db "S"
          (List.init (hi - lo + 1) (fun i ->
               let k = lo + i in
               Row.make [ Value.Int k; Value.Text ("s" ^ string_of_int k) ])))
  in
  let options =
    Options.{ default with scan_batch = 256; propagate_batch = 256;
              drop_sources = false }
  in
  let oracle_check label db =
    let oracle =
      Nbsc_relalg.Relalg.full_outer_join
        { Nbsc_relalg.Relalg.r_join = [ "c" ]; s_join = [ "c" ];
          out_join = [ "c" ]; r_cols = [ "a"; "b" ]; s_cols = [ "d" ];
          out_key = [ "a" ] }
        (Db.snapshot db "R") (Db.snapshot db "S")
    in
    if not (Nbsc_relalg.Relalg.equal_as_sets oracle (Db.snapshot db "T"))
    then begin
      say "compare bench: %s diverged from the FOJ oracle" label;
      exit 1
    end
  in
  (* The shared workload-under-change loop: [step] advances the change
     one quantum (true = done), [lag] is the strategy's catch-up gauge
     (propagator lag, resp. audit-log depth). *)
  let run_loop label db ~step ~lag =
    let mgr = Db.manager db in
    let log = Manager.log mgr in
    let rng = Random.State.make [| 11 |] in
    let txns = ref 0 and refused = ref 0 in
    let run_txn () =
      let k = Row.make [ Value.Int (1 + Random.State.int rng scale) ] in
      let res =
        match Random.State.int rng 100 with
        | d when d < 40 ->
          Db.with_txn db (fun txn ->
              Manager.update mgr ~txn ~table:"R" ~key:k
                [ (1, Value.Text ("u" ^ string_of_int d)) ])
        | d when d < 70 ->
          Db.with_txn db (fun txn ->
              match Manager.read mgr ~txn ~table:"R" ~key:k with
              | Ok _ -> Ok ()
              | Error e -> Error e)
        | _ ->
          Db.with_txn ~isolation:`Snapshot db (fun txn ->
              match Manager.read mgr ~txn ~table:"R" ~key:k with
              | Ok _ -> Ok ()
              | Error e -> Error e)
      in
      match res with Ok () -> incr txns | Error _ -> incr refused
    in
    let quanta = ref 0 and lag_peak = ref 0 and wal_hw = ref 0 in
    let finished = ref false in
    let t0 = Unix.gettimeofday () in
    while not !finished do
      finished := step ();
      incr quanta;
      lag_peak := max !lag_peak (lag ());
      wal_hw := max !wal_hw (Log.live_high_water log);
      (* Ten workload transactions per quantum: enough samples that the
         throughput (and the shadow method's latch refusals) are
         measured, not timer noise. *)
      if not !finished then
        for _ = 1 to 10 do run_txn () done;
      if !quanta > scale * 30 then
        failwith ("compare bench: " ^ label ^ " did not converge")
    done;
    let total_s = Unix.gettimeofday () -. t0 in
    (!quanta, total_s, !txns, !refused, !lag_peak, !wal_hw)
  in
  (* Crash-resume cost, measured on a small persisted instance: drive
     the change past its population, checkpoint, crash mid-flight, and
     count the quanta the reopened database needs to converge. The
     paper method resumes from the checkpointed propagator position;
     the shadow method has no durable job state — its
     partial targets are dropped and the whole backfill repeats. *)
  let mini = if quick then 400 else 1_000 in
  let mini_options =
    { options with Options.scan_batch = 32; propagate_batch = 32 }
  in
  let fresh_dir label =
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "nbsc_compare_%d_%s" (Unix.getpid ()) label)
    in
    if Sys.file_exists dir then
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir)
    else Unix.mkdir dir 0o755;
    dir
  in
  let wipe dir =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  let ok_p what = function
    | Ok v -> v
    | Error e -> failwith (Format.asprintf "%s: %a" what Persist.pp_error e)
  in
  let mini_traffic db rng =
    let mgr = Db.manager db in
    let k = Row.make [ Value.Int (1 + Random.State.int rng mini) ] in
    ignore
      (Db.with_txn db (fun txn ->
           Manager.update mgr ~txn ~table:"R" ~key:k
             [ (1, Value.Text "crashy") ]))
  in
  let resume_quanta_paper () =
    let dir = fresh_dir "paper" in
    let p = ok_p "create" (Persist.create_dir ~dir) in
    let db = Persist.db p in
    seed_sources ~n:mini db;
    ok_p "checkpoint" (Persist.checkpoint p);
    let tf = start db ~options:mini_options (Spec.Foj spec) in
    let rng = Random.State.make [| 23 |] in
    (* Past the population, so the checkpoint can cover a resume. *)
    while Transform.phase tf = Transform.Populating do
      (match Transform.step tf with
       | `Running | `Done -> ()
       | `Failed m -> failwith ("compare bench: " ^ m));
      mini_traffic db rng
    done;
    ok_p "checkpoint" (Persist.checkpoint p);
    for _ = 1 to 8 do
      ignore (Transform.step tf);
      mini_traffic db rng
    done;
    Persist.crash p;
    let p2 = ok_p "reopen" (Persist.open_dir ~dir) in
    let db2 = Persist.db p2 in
    let tf2 =
      match Transform.resume ~options:mini_options p2 with
      | Ok [ tf2 ] -> tf2
      | Ok l -> failwith (Printf.sprintf "resume: %d jobs" (List.length l))
      | Error e -> failwith ("resume: " ^ Nbsc_error.to_string e)
    in
    let quanta = ref 0 in
    let finished = ref false in
    while not !finished do
      (match Transform.step tf2 with
       | `Running -> ()
       | `Done -> finished := true
       | `Failed m -> failwith ("compare bench: resumed: " ^ m));
      incr quanta;
      if !quanta > mini * 30 then failwith "compare bench: resume stuck"
    done;
    oracle_check "paper (resumed)" db2;
    Persist.close p2;
    wipe dir;
    !quanta
  in
  let resume_quanta_shadow () =
    let dir = fresh_dir "shadow" in
    let p = ok_p "create" (Persist.create_dir ~dir) in
    let db = Persist.db p in
    seed_sources ~n:mini db;
    ok_p "checkpoint" (Persist.checkpoint p);
    let sh =
      Shadow.create db ~drop_sources:false ~chunk:32
        (Transformation.foj ~options:mini_options db spec)
    in
    let rng = Random.State.make [| 23 |] in
    (* Crash roughly mid-backfill. *)
    while Shadow.backfilled sh < mini / 2 do
      ignore (Shadow.step sh ~limit:32);
      mini_traffic db rng
    done;
    ok_p "checkpoint" (Persist.checkpoint p);
    Persist.crash p;
    let p2 = ok_p "reopen" (Persist.open_dir ~dir) in
    let db2 = Persist.db p2 in
    (* No durable job state: drop the half-built target, start over. *)
    let catalog = Db.catalog db2 in
    if Nbsc_storage.Catalog.mem catalog "T" then
      Nbsc_storage.Catalog.drop catalog "T";
    let sh2 =
      Shadow.create db2 ~drop_sources:false ~chunk:32
        (Transformation.foj ~options:mini_options db2 spec)
    in
    let quanta = ref 0 in
    while not (Shadow.step sh2 ~limit:32) do
      incr quanta;
      if !quanta > mini * 30 then failwith "compare bench: shadow stuck"
    done;
    oracle_check "shadow (restarted)" db2;
    Persist.close p2;
    wipe dir;
    !quanta
  in
  let run_paper () =
    let db = Db.create () in
    seed_sources db;
    let tf = start db ~options (Spec.Foj spec) in
    let step () =
      match Transform.step tf with
      | `Running -> false
      | `Done -> true
      | `Failed m -> failwith ("compare bench: paper: " ^ m)
    in
    let lag () = (Transform.progress tf).Transform.lag in
    let quanta, total_s, txns, refused, lag_peak, wal_hw =
      run_loop "paper" db ~step ~lag
    in
    oracle_check "paper" db;
    { cr_label = "paper"; cr_quanta = quanta; cr_total_s = total_s;
      cr_txns = txns; cr_refused = refused;
      cr_txn_per_s =
        (if total_s > 0. then float_of_int txns /. total_s else 0.);
      cr_lag_peak = lag_peak; cr_wal_high_water = wal_hw;
      cr_resume_quanta = resume_quanta_paper () }
  in
  let run_shadow () =
    let db = Db.create () in
    seed_sources db;
    let sh =
      Shadow.create db ~drop_sources:false ~chunk:256
        (Transformation.foj ~options db spec)
    in
    let step () = Shadow.step sh ~limit:256 in
    let lag () = Shadow.audit_pending sh in
    let quanta, total_s, txns, refused, lag_peak, wal_hw =
      run_loop "shadow" db ~step ~lag
    in
    oracle_check "shadow" db;
    say
      "shadow: %d writes captured, %d replayed, %d latched windows"
      (Shadow.captured sh) (Shadow.replayed sh) (Shadow.latched_windows sh);
    { cr_label = "shadow"; cr_quanta = quanta; cr_total_s = total_s;
      cr_txns = txns; cr_refused = refused;
      cr_txn_per_s =
        (if total_s > 0. then float_of_int txns /. total_s else 0.);
      cr_lag_peak = lag_peak; cr_wal_high_water = wal_hw;
      cr_resume_quanta = resume_quanta_shadow () }
  in
  let shadow = run_shadow () in
  let paper = run_paper () in
  let runs = [ paper; shadow ] in
  List.iter
    (fun r ->
       say
         "%-12s %6d quanta, %.3fs, %d txns (%.0f txn/s, %d refused), \
          lag peak %d, wal high-water %d, crash-resume %d quanta"
         r.cr_label r.cr_quanta r.cr_total_s r.cr_txns r.cr_txn_per_s
         r.cr_refused r.cr_lag_peak r.cr_wal_high_water r.cr_resume_quanta)
    runs;
  say "all strategies converged to their FOJ oracle";
  let ratio a b = if b > 0. then a /. b else 0. in
  let run_json r =
    Json.Obj
      [ ("strategy", Json.String r.cr_label);
        ("quanta", Json.Int r.cr_quanta);
        ("total_s", Json.Float r.cr_total_s);
        ("txns", Json.Int r.cr_txns);
        ("refused", Json.Int r.cr_refused);
        ("txn_per_s", Json.Float r.cr_txn_per_s);
        ("catchup_lag_peak", Json.Int r.cr_lag_peak);
        ("wal_high_water", Json.Int r.cr_wal_high_water);
        ("crash_resume_quanta", Json.Int r.cr_resume_quanta) ]
  in
  let json =
    Json.Obj
      [ ("bench", Json.String "compare");
        ("quick", Json.Bool quick);
        ("scale", Json.Int scale);
        ("runs", Json.List (List.map run_json runs));
        ("paper_txn_per_s", Json.Float paper.cr_txn_per_s);
        ("shadow_vs_paper_txn", Json.Float (ratio shadow.cr_txn_per_s paper.cr_txn_per_s));
        ( "shadow_vs_paper_resume",
          Json.Float
            (ratio
               (float_of_int shadow.cr_resume_quanta)
               (float_of_int paper.cr_resume_quanta)) ) ]
  in
  (match out with
   | Some path ->
     let oc = open_out path in
     output_string oc (Json.to_string json);
     output_char oc '\n';
     close_out oc;
     say "results written to %s" path
   | None -> say "%s" (Json.to_string json));
  match gate with
  | None -> ()
  | Some path ->
    let contents =
      let ic = open_in path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    (match Json.of_string (String.trim contents) with
     | Error m -> failwith (Printf.sprintf "gate %s: bad JSON: %s" path m)
     | Ok j ->
       let committed =
         match
           Json.member "paper_txn_per_s" j
           |> Option.map (fun v -> Json.to_float v)
         with
         | Some (Some f) -> f
         | _ -> failwith (Printf.sprintf "gate %s: no paper_txn_per_s" path)
       in
       let floor = 0.7 *. committed in
       say "gate: fresh %.0f txn/s vs committed %.0f txn/s (floor %.0f)"
         paper.cr_txn_per_s committed floor;
       if paper.cr_txn_per_s < floor then begin
         say
           "gate: FAIL - >30%% paper-strategy workload-throughput \
            regression";
         exit 1
       end
       else say "gate: ok")

(* {1 Driver} *)

let () =
  let args = match Array.to_list Sys.argv with _ :: rest -> rest | [] -> [] in
  (* Peel off [--trace FILE]; its presence implies the trace target. *)
  let trace_out, args =
    let rec go acc = function
      | "--trace" :: path :: rest -> (Some path, List.rev_append acc rest)
      | a :: rest -> go (a :: acc) rest
      | [] -> (None, List.rev acc)
    in
    go [] args
  in
  (* Peel off [--out FILE] (used by the wal and engine targets for
     their JSON). *)
  let json_out, args =
    let rec go acc = function
      | "--out" :: path :: rest -> (Some path, List.rev_append acc rest)
      | a :: rest -> go (a :: acc) rest
      | [] -> (None, List.rev acc)
    in
    go [] args
  in
  (* Peel off [--gate FILE] (engine target: regression gate vs a
     committed baseline). *)
  let gate_file, args =
    let rec go acc = function
      | "--gate" :: path :: rest -> (Some path, List.rev_append acc rest)
      | a :: rest -> go (a :: acc) rest
      | [] -> (None, List.rev acc)
    in
    go [] args
  in
  (* [--trace] implies the trace target, except when the engine target
     is explicitly named — there it streams that bench's own metric
     events instead. *)
  let args =
    if trace_out <> None && not (List.mem "engine" args) then "trace" :: args
    else args
  in
  let quick = List.mem "quick" args in
  let setup =
    if quick then Experiment.quick_setup else Experiment.default_setup
  in
  let sync_setup =
    if quick then Experiment.quick_setup
    else { Experiment.quick_setup with Experiment.scale = 10_000 }
  in
  let targets =
    match List.filter (fun a -> a <> "quick") args with
    | [] -> [ "all" ]
    | ts -> ts
  in
  let wants t = List.mem "all" targets || List.mem t targets in
  if wants "fig1" then fig1 ();
  if wants "fig2" then fig2 ();
  if wants "fig3" then fig3 ();
  if wants "fig4a" then fig4a setup;
  if wants "fig4b" then fig4b setup;
  if wants "fig4c" then fig4c setup;
  if wants "fig4d" then fig4d setup;
  if wants "foj" then fig4_foj setup;
  if wants "sync" then sync_bench sync_setup;
  if wants "methods" then methods sync_setup;
  if wants "ablate" then ablate sync_setup;
  if wants "deadlock" then deadlock_bench quick;
  if wants "wal" then wal_bench ~quick ~out:json_out;
  if wants "engine" then
    engine_bench ~quick ~out:json_out ~gate:gate_file
      ~trace:(if List.mem "engine" targets then trace_out else None);
  if wants "migrate" then migrate_bench ~quick ~out:json_out ~gate:gate_file;
  if wants "compare" then compare_bench ~quick ~out:json_out ~gate:gate_file;
  if List.mem "trace" targets then trace_bench ~quick ~out:trace_out;
  if wants "micro" then micro ();
  say "";
  say "done."
