(* nbsc — command-line front end.

   Subcommands:
     demo        run a narrated demo transformation (foj | split | m2m)
     concurrent  run two transformations at once via the job registry
     figure      regenerate a figure of the paper's Sec. 6 or an ablation
                 table (4a 4b 4c 4d foj methods ablate; --quick)
     sync        measure the synchronization window per strategy
     matrix      print the Figure 2 lock-compatibility matrix
     log         run a small transformation and dump the resulting log
     contention  high-conflict run; deadlock-detector and governor stats
     crash-demo  crash a durable change at a fault site and resume it
     stats       run a demo change and dump the metrics registry
     trace       run a traced fixed-seed simulation; write/validate JSONL
     micro       Bechamel micro-benchmarks of the substrate
     scrub       verify a database directory offline
     mkstore     create a small durable store (scrub drills)
     flip        flip one bit of a file (scrub drills) *)

open Cmdliner
open Nbsc_value
open Nbsc_core
module Manager = Nbsc_txn.Manager
module Obs = Nbsc_obs.Obs
module Json = Nbsc_obs.Json
module Sc = Db.Schema_change

let say fmt = Format.printf (fmt ^^ "@.")

let start_sc db ~options spec =
  match Sc.start db ~options spec with
  | Ok sc -> sc
  | Error e -> failwith (Nbsc_error.to_string e)

(* The demos keep their sources, to inspect or to check against, and
   use small batches so a change takes many quanta. *)
let demo_options ~batch =
  { Sc.Options.default with
    Sc.Options.drop_sources = false;
    scan_batch = batch;
    propagate_batch = batch }

(* {1 demo} *)

let build_foj_db ~rows =
  let db = Db.create () in
  let col = Schema.column in
  ignore
    (Db.create_table db ~name:"R"
       (Schema.make ~key:[ "a" ]
          [ col ~nullable:false "a" Value.TInt; col "b" Value.TText;
            col "c" Value.TInt ]));
  ignore
    (Db.create_table db ~name:"S"
       (Schema.make ~key:[ "c" ]
          [ col ~nullable:false "c" Value.TInt; col "d" Value.TText ]));
  (match
     Db.load db ~table:"R"
       (List.init rows (fun i ->
            Row.make
              [ Value.Int i; Value.Text (Printf.sprintf "r%d" i);
                Value.Int (i mod 97) ]))
   with
   | Ok () -> ()
   | Error _ -> failwith "load");
  (match
     Db.load db ~table:"S"
       (List.init 97 (fun c ->
            Row.make [ Value.Int c; Value.Text (Printf.sprintf "s%d" c) ]))
   with
   | Ok () -> ()
   | Error _ -> failwith "load");
  db

let foj_spec ~m2m =
  { Spec.r_table = "R"; s_table = "S"; t_table = "T";
    join_r = [ "c" ]; join_s = [ "c" ]; t_join = [ "c" ];
    r_carry = [ "a"; "b" ]; s_carry = [ "d" ]; many_to_many = m2m }

let build_split_db ~rows =
  let db = Db.create () in
  let col = Schema.column in
  ignore
    (Db.create_table db ~name:"T"
       (Schema.make ~key:[ "a" ]
          [ col ~nullable:false "a" Value.TInt; col "b" Value.TText;
            col "c" Value.TInt; col "d" Value.TText ]));
  (match
     Db.load db ~table:"T"
       (List.init rows (fun i ->
            let c = i mod 53 in
            Row.make
              [ Value.Int i; Value.Text (Printf.sprintf "t%d" i); Value.Int c;
                Value.Text (Printf.sprintf "city%d" c) ]))
   with
   | Ok () -> ()
   | Error _ -> failwith "load");
  db

let split_spec =
  { Spec.t_table' = "T"; r_table' = "R"; s_table' = "S";
    r_cols = [ "a"; "b"; "c" ]; s_cols = [ "c"; "d" ];
    split_key = [ "c" ]; assume_consistent = true }

let run_demo which rows migration =
  let options = { (demo_options ~batch:64) with Sc.Options.strategy = migration } in
  let db, sc =
    match which with
    | `Foj ->
      let db = build_foj_db ~rows in
      (db, start_sc db ~options (Spec.Foj (foj_spec ~m2m:false)))
    | `M2m ->
      let db = build_foj_db ~rows in
      (db, start_sc db ~options (Spec.Foj (foj_spec ~m2m:true)))
    | `Split ->
      let db = build_split_db ~rows in
      (db, start_sc db ~options (Spec.Split split_spec))
  in
  let mgr = Db.manager db in
  let rng = Random.State.make [| 99 |] in
  let writes = ref 0 in
  let source = match which with `Split -> "T" | `Foj | `M2m -> "R" in
  let between () =
    if (Sc.status sc).Sc.sc_routing = `Sources then begin
      incr writes;
      let txn = Manager.begin_txn mgr in
      (match
         Manager.update mgr ~txn ~table:source
           ~key:(Row.make [ Value.Int (Random.State.int rng rows) ])
           [ (1, Value.Text (Printf.sprintf "w%d" !writes)) ]
       with
       | Ok () -> ignore (Manager.commit mgr txn)
       | Error _ -> ignore (Manager.abort mgr txn))
    end
  in
  (match Sc.run ~between sc with
   | Ok () -> ()
   | Error e -> failwith (Nbsc_error.to_string e));
  say "%a" Sc.pp_info (Sc.status sc);
  say "migration=%s demand_migrations=%d"
    (Sc.Options.migration_to_string migration)
    (Transform.demand_migrations (Sc.transform sc));
  say "concurrent writes while transforming: %d" !writes;
  List.iter
    (fun t -> say "table %-3s %6d rows" t (Db.row_count db t))
    (Transform.targets (Sc.transform sc));
  `Ok ()

let demo_kind =
  let parse = function
    | "foj" -> Ok `Foj
    | "split" -> Ok `Split
    | "m2m" -> Ok `M2m
    | s -> Error (`Msg (Printf.sprintf "unknown demo %S (foj|split|m2m)" s))
  in
  let print ppf = function
    | `Foj -> Format.pp_print_string ppf "foj"
    | `Split -> Format.pp_print_string ppf "split"
    | `M2m -> Format.pp_print_string ppf "m2m"
  in
  Arg.conv (parse, print)

let migration_conv =
  let parse s =
    match Sc.Options.migration_of_string s with
    | Some m -> Ok m
    | None ->
      Error
        (`Msg (Printf.sprintf "unknown strategy %S (eager|lazy|hybrid[:N])" s))
  in
  let print ppf m =
    Format.pp_print_string ppf (Sc.Options.migration_to_string m)
  in
  Arg.conv (parse, print)

let demo_cmd =
  let kind =
    Arg.(required & pos 0 (some demo_kind) None
         & info [] ~docv:"KIND" ~doc:"foj, split or m2m")
  in
  let rows =
    Arg.(value & opt int 5000 & info [ "rows" ] ~doc:"source table size")
  in
  let migration =
    Arg.(value & opt migration_conv Sc.Options.Eager
         & info [ "strategy" ]
             ~doc:"migration strategy: eager, lazy or hybrid[:N]")
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"run a narrated non-blocking transformation")
    Term.(ret (const run_demo $ kind $ rows $ migration))

(* {1 concurrent}

   Two independent transformations — an FOJ of R and S into T, and a
   horizontal split archiving U — registered on the same database and
   driven round-robin through its job registry, with user transactions
   interleaved between rounds. Both targets are then checked against
   the relational oracle; a mismatch exits 1. *)

let build_concurrent_db ~rows =
  let db = build_foj_db ~rows in
  let col = Schema.column in
  ignore
    (Db.create_table db ~name:"U"
       (Schema.make ~key:[ "k" ]
          [ col ~nullable:false "k" Value.TInt; col "v" Value.TText;
            col "age" Value.TInt ]));
  (match
     Db.load db ~table:"U"
       (List.init rows (fun i ->
            Row.make
              [ Value.Int i; Value.Text (Printf.sprintf "u%d" i);
                Value.Int (i mod 100) ]))
   with
   | Ok () -> ()
   | Error _ -> failwith "load");
  db

let u_pred = Pred.Cmp ("age", Pred.Ge, Value.Int 50)

(* T against the full outer join of the final R and S, and U_old /
   U_live against the predicate's partition of the final U. *)
let concurrent_oracles db =
  let module Relalg = Nbsc_relalg.Relalg in
  let foj =
    Relalg.full_outer_join
      { Relalg.r_join = [ "c" ]; s_join = [ "c" ]; out_join = [ "c" ];
        r_cols = [ "a"; "b" ]; s_cols = [ "d" ]; out_key = [ "a" ] }
      (Db.snapshot db "R") (Db.snapshot db "S")
  in
  let u = Db.snapshot db "U" in
  let old = Pred.compile u.Relalg.schema u_pred in
  ( Relalg.equal_as_sets foj (Db.snapshot db "T"),
    Relalg.equal_as_sets (Relalg.select u old) (Db.snapshot db "U_old")
    && Relalg.equal_as_sets
         (Relalg.select u (fun row -> not (old row)))
         (Db.snapshot db "U_live") )

let run_concurrent rows =
  let db = build_concurrent_db ~rows in
  let options = demo_options ~batch:64 in
  let foj_sc = start_sc db ~options (Spec.Foj (foj_spec ~m2m:false)) in
  let hs_sc =
    start_sc db ~options
      (Spec.Hsplit
         { Spec.h_source = "U"; h_true_table = "U_old";
           h_false_table = "U_live"; h_pred = u_pred })
  in
  let foj_tf = Sc.transform foj_sc and hs_tf = Sc.transform hs_sc in
  say "registered jobs: %s" (String.concat ", " (Db.jobs db));
  let mgr = Db.manager db in
  let rng = Random.State.make [| 7 |] in
  let writes = ref 0 and rounds = ref 0 in
  let touch table =
    if rows <= 0 then ()
    else begin
      incr writes;
    let txn = Manager.begin_txn mgr in
    match
      Manager.update mgr ~txn ~table
        ~key:(Row.make [ Value.Int (Random.State.int rng rows) ])
        [ (1, Value.Text (Printf.sprintf "w%d" !writes)) ]
    with
    | Ok () -> ignore (Manager.commit mgr txn)
    | Error _ -> ignore (Manager.abort mgr txn)
    end
  in
  let between () =
    incr rounds;
    if Transform.routing foj_tf = `Sources then touch "R";
    if Transform.routing hs_tf = `Sources then touch "U"
  in
  (match Db.run_jobs ~between db with
   | Ok () -> ()
   | Error m -> failwith m);
  say "%-18s %a" (Transform.job_name foj_tf) Transform.pp_progress
    (Transform.progress foj_tf);
  say "%-18s %a" (Transform.job_name hs_tf) Transform.pp_progress
    (Transform.progress hs_tf);
  say "scheduler rounds: %d; user writes interleaved: %d" !rounds !writes;
  List.iter
    (fun t -> say "table %-6s %6d rows" t (Db.row_count db t))
    (Transform.targets foj_tf @ Transform.targets hs_tf);
  let t_ok, u_ok = concurrent_oracles db in
  say "oracle: T = foj(R, S) %b; U_old/U_live = partition of U %b" t_ok u_ok;
  if not (t_ok && u_ok) then exit 1;
  `Ok ()

let concurrent_cmd =
  let rows =
    Arg.(value & opt int 2000 & info [ "rows" ] ~doc:"source table size")
  in
  Cmd.v
    (Cmd.info "concurrent"
       ~doc:"run two transformations at once through the job registry")
    Term.(ret (const run_concurrent $ rows))

(* {1 figure} *)

module E = Nbsc_sim.Experiment

(* EXPERIMENTS.md's sync, methods and ablation tables: the quick setup
   at 10 000 rows. *)
let ten_k_setup = { E.quick_setup with E.scale = 10_000 }

let workloads = [ 50.; 60.; 70.; 80.; 90.; 100. ]
let fig4d_priorities = [ 0.0005; 0.001; 0.002; 0.005; 0.01; 0.02; 0.04; 0.08 ]

let print_points ~x_label points =
  say "%-10s %14s %14s  %s" x_label "rel.throughput" "rel.resp.time" "status";
  List.iter (fun p -> say "%a" E.pp_point p) points

let run_figure name quick =
  let setup = if quick then E.quick_setup else E.default_setup in
  let ablation_setup = if quick then E.quick_setup else ten_k_setup in
  let population ~workloads =
    print_points ~x_label:"workload%" (E.fig4ab_population ~setup ~workloads ())
  in
  let propagation ~source_share =
    print_points ~x_label:"workload%"
      (E.fig4c_propagation ~setup ~source_share ~workloads:(40. :: workloads) ())
  in
  match name with
  | "4a" ->
    say "Figure 4(a): rel. throughput during initial population (split, 20%% \
         updates on T); paper: ~0.94 at 100%% workload, ~0.99-1.00 at 50%%";
    population ~workloads;
    `Ok ()
  | "4b" ->
    say "Figure 4(b): rel. response time during initial population (split, 20%% \
         updates on T); paper: ~1.05 at 40-50%% workload, ~1.25-1.30 at 100%%";
    population ~workloads:(40. :: workloads);
    `Ok ()
  | "4c" ->
    say "Figure 4(c): rel. throughput during log propagation; paper: \
         ~0.96-0.98 (20%% mix), ~0.88-0.92 (80%% mix)";
    say "-- 20%% of updates on T --";
    propagation ~source_share:0.2;
    say "-- 80%% of updates on T --";
    propagation ~source_share:0.8;
    `Ok ()
  | "4d" ->
    say "Figure 4(d): completion time and interference vs priority (75%% \
         workload); paper: below a threshold the change never finishes";
    print_points ~x_label:"priority"
      (E.fig4d_priority ~setup ~workload_pct:75. ~priorities:fig4d_priorities ());
    say "-- with the anti-starvation governor (every point must complete) --";
    let governed =
      E.fig4d_priority_governed ~setup ~workload_pct:75.
        ~priorities:fig4d_priorities ()
    in
    print_points ~x_label:"priority" governed;
    if List.for_all (fun p -> p.E.tf_completed) governed then `Ok ()
    else `Error (false, "the governed sweep left a point unconverged")
  | "foj" ->
    say "FOJ: Figure 4(a)/(c) for the full outer join (paper: very similar \
         results)";
    say "-- initial population (FOJ of R:scale x S:0.4*scale rows) --";
    print_points ~x_label:"workload%"
      (E.fig4ab_population_foj ~setup ~workloads ());
    say "-- log propagation, 20%% updates on sources --";
    print_points ~x_label:"workload%"
      (E.fig4c_propagation_foj ~setup ~source_share:0.2 ~workloads ());
    `Ok ()
  | "methods" ->
    say "Methods: log-based vs blocking INSERT-SELECT vs triggers (75%% \
         workload)";
    List.iter
      (fun r -> say "%a" E.pp_method_row r)
      (E.method_comparison ~setup:ablation_setup ~workload_pct:75. ());
    `Ok ()
  | "ablate" ->
    let setup = ablation_setup in
    say "-- sync_lag_threshold sweep (latch window vs eagerness) --";
    List.iter
      (fun r -> say "%a" E.pp_threshold_row r)
      (E.threshold_sweep ~setup ~thresholds:[ 0; 2; 8; 64; 512; 4096 ] ());
    say "-- batch-size sweep --";
    List.iter
      (fun r -> say "%a" E.pp_batch_row r)
      (E.batch_sweep ~setup ~batches:[ 4; 16; 64; 256; 1024 ] ());
    say "-- iteration-analysis policies (paper Sec. 3.3's three bases) --";
    (match E.policy_comparison ~setup () with
     | Ok rows ->
       List.iter (fun r -> say "%a" E.pp_policy_row r) rows;
       `Ok ()
     | Error e -> `Error (false, Nbsc_error.to_string e))
  | other ->
    `Error
      (false,
       Printf.sprintf "unknown figure %S (4a|4b|4c|4d|foj|methods|ablate)" other)

let figure_cmd =
  let fig_name =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FIGURE"
             ~doc:"4a, 4b, 4c, 4d, foj, methods or ablate")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"reduced scale, fast")
  in
  Cmd.v
    (Cmd.info "figure"
       ~doc:"regenerate one of the paper's figures or an ablation table")
    Term.(ret (const run_figure $ fig_name $ quick))

(* {1 sync} *)

let run_sync () =
  List.iter
    (fun strategy ->
       match E.sync_window ~setup:ten_k_setup ~strategy () with
       | Error e -> say "sync window failed: %s" (Nbsc_error.to_string e)
       | Ok r ->
         say "%-22s final-iteration records=%d wall=%s forced aborts=%d"
           r.E.strategy_name r.E.final_records
           (match r.E.wall_ns with
            | Some ns -> Printf.sprintf "%.4f ms" (float_of_int ns /. 1e6)
            | None -> "n/a")
           r.E.forced_aborts)
    [ Sc.Options.Nonblocking_abort; Sc.Options.Nonblocking_commit;
      Sc.Options.Blocking_commit ];
  `Ok ()

let sync_cmd =
  Cmd.v
    (Cmd.info "sync"
       ~doc:
         "measure the synchronization window per strategy (10 000-row \
          split under 75% workload)")
    Term.(ret (const run_sync $ const ()))

(* {1 matrix} *)

let matrix_cmd =
  Cmd.v
    (Cmd.info "matrix" ~doc:"print the Figure 2 lock-compatibility matrix")
    Term.(
      ret
        (const (fun () ->
             say "%a" Nbsc_lock.Compat.pp_figure2 ();
             `Ok ())
         $ const ()))

(* {1 log} *)

let run_log rows =
  let db = build_foj_db ~rows in
  let sc =
    start_sc db
      ~options:{ Sc.Options.default with Sc.Options.drop_sources = false }
      (Spec.Foj (foj_spec ~m2m:false))
  in
  let mgr = Db.manager db in
  let n = ref 0 in
  (match
     Sc.run sc ~between:(fun () ->
         incr n;
         if !n <= 3 then begin
           let txn = Manager.begin_txn mgr in
           (match
              Manager.update mgr ~txn ~table:"R"
                ~key:(Row.make [ Value.Int (!n - 1) ])
                [ (1, Value.Text "touched") ]
            with
            | Ok () -> ignore (Manager.commit mgr txn)
            | Error _ -> ignore (Manager.abort mgr txn))
         end)
   with
   | Ok () -> ()
   | Error e -> failwith (Nbsc_error.to_string e));
  Nbsc_wal.Log.iter (Db.log db) (fun r ->
      say "%a" Nbsc_wal.Log_record.pp r);
  let log = Db.log db in
  say "-- wal: base %a, head %a, %d live records in %d segments, %d truncated"
    Nbsc_wal.Lsn.pp (Nbsc_wal.Log.base log) Nbsc_wal.Lsn.pp
    (Nbsc_wal.Log.head log) (Nbsc_wal.Log.length log)
    (Nbsc_wal.Log.segments log)
    (Nbsc_wal.Log.truncated_total log);
  `Ok ()

let log_cmd =
  let rows =
    Arg.(value & opt int 5 & info [ "rows" ] ~doc:"source table size")
  in
  Cmd.v
    (Cmd.info "log"
       ~doc:"run a small transformation and dump the write-ahead log")
    Term.(ret (const run_log $ rows))

(* {1 contention}

   A deliberately hostile run: a tiny hot table, most updates aimed at
   it, and a transformation competing for the same rows — then print
   what the engine's contention machinery did about it. *)

let run_contention governed duration =
  let module Sim = Nbsc_sim.Sim in
  let module Metrics = Nbsc_sim.Metrics in
  let kind = Sim.Split_scenario { t_rows = 40; assume_consistent = true } in
  let workload =
    { Sim.n_clients = 24; think_time = 400; ops_per_txn = 6;
      source_share = 0.9; seed = 42 }
  in
  let pace = if governed then Some (Governor.create ()) else None in
  let options =
    { Sc.Options.default with
      Sc.Options.scan_batch = 8;
      propagate_batch = 16;
      analysis = Analysis.Remaining_records 8;
      sync = Sc.Options.Nonblocking_commit;
      drop_sources = false;
      (* Governed runs let the change finish, so the governor's
         escalate-then-relax cycle is visible end to end; ungoverned
         runs gate sync off so the hot spot never evaporates. *)
      sync_gate = (fun () -> governed);
      pace }
  in
  let priority = if governed then 0.002 else 0.1 in
  let r =
    Sim.run ~kind ~workload
      ~background:(Sim.Transformation { Sim.priority; options })
      ~duration ~warmup:(duration / 20) ()
  in
  let s = r.Sim.mgr_stats in
  say "engine:   ops=%d commits=%d aborts=%d blocked=%d"
    s.Manager.Stats.ops s.Manager.Stats.commits s.Manager.Stats.aborts
    s.Manager.Stats.blocked;
  say "detector: lock_waits=%d deadlocks(Die)=%d wounded=%d"
    s.Manager.Stats.lock_waits s.Manager.Stats.deadlocks
    s.Manager.Stats.victims;
  say "clients:  %a" Metrics.pp_summary r.Sim.summary;
  (match pace with
   | Some g -> say "governor: %a" Governor.pp_stats (Governor.stats g)
   | None -> ());
  say "tf:       %s"
    (match r.Sim.tf_done_at with
     | Some t -> Printf.sprintf "completed at t=%d" t
     | None -> "still running at horizon");
  `Ok ()

let contention_cmd =
  let governed =
    Arg.(value & flag
         & info [ "governed" ]
             ~doc:
               "start the transformation at a starvation-level priority \
                and let the anti-starvation governor drive it home")
  in
  let duration =
    Arg.(value & opt int 150_000
         & info [ "duration" ] ~doc:"virtual-time horizon")
  in
  Cmd.v
    (Cmd.info "contention"
       ~doc:
         "run a high-conflict workload and print deadlock-detector and \
          governor statistics")
    Term.(ret (const run_contention $ governed $ duration))

(* {1 crash-demo}

   Narrated crash drill: build a durable store, start a split, kill the
   "process" at a chosen fault-injection site, then reopen the directory
   and resume the schema change from its checkpointed position. The
   demo keeps its source, so it ends by checking the targets against
   the relational oracle and the source's split index against a
   blocking rebuild; a mismatch exits 1. *)

module Persist = Nbsc_engine.Persist
module Fault = Nbsc_engine.Fault
module Recovery = Nbsc_engine.Recovery

(* R and S against the split of the final T, and T's online-built
   split index against a blocking build over a copy of T. *)
let crash_demo_oracles db =
  let module Relalg = Nbsc_relalg.Relalg in
  let module Table = Nbsc_storage.Table in
  let module Record = Nbsc_storage.Record in
  let r, s =
    Relalg.split
      { Relalg.r_cols' = split_spec.Spec.r_cols;
        s_cols' = split_spec.Spec.s_cols;
        r_key = [ "a" ];
        s_key = split_spec.Spec.split_key }
      (Db.snapshot db "T")
  in
  let t = Db.table db "T" in
  let copy = Table.create ~name:"T" (Table.schema t) in
  Table.iter t (fun _ record ->
      ignore (Table.insert copy ~lsn:record.Record.lsn record.Record.row));
  Table.add_index copy ~name:Spec.ix_t_split ~columns:split_spec.Spec.split_key;
  let entries tbl = Table.index_entries tbl ~index:Spec.ix_t_split in
  ( Relalg.equal_as_sets r (Db.snapshot db "R")
    && Relalg.equal_as_sets s (Db.snapshot db "S"),
    (try entries t = entries copy with Invalid_argument _ -> false) )

let run_crash_demo site after rows keep =
  if not (List.mem site Fault.all_sites) then
    `Error
      (false,
       Printf.sprintf "unknown fault site %S (one of: %s)" site
         (String.concat ", " Fault.all_sites))
  else begin
    Random.self_init ();
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "nbsc_crash_demo_%d" (Random.int 1_000_000))
    in
    let wipe () =
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end
    in
    (* Satellite of the durability work: persistence errors surface as
       diagnosable messages, never an assertion failure. *)
    let surface what = function
      | Ok v -> v
      | Error e ->
        failwith (Format.asprintf "%s: %a" what Persist.pp_error e)
    in
    let run () =
      Fault.reset ();
      let p = surface "create" (Persist.create_dir ~dir) in
      let db = Persist.db p in
      let col = Schema.column in
      ignore
        (Db.create_table db ~name:"T"
           (Schema.make ~key:[ "a" ]
              [ col ~nullable:false "a" Value.TInt; col "b" Value.TText;
                col "c" Value.TInt; col "d" Value.TText ]));
      (match
         Db.load db ~table:"T"
           (List.init rows (fun i ->
                let c = i mod 53 in
                Row.make
                  [ Value.Int i; Value.Text (Printf.sprintf "t%d" i);
                    Value.Int c; Value.Text (Printf.sprintf "city%d" c) ]))
       with
       | Ok () -> ()
       | Error _ -> failwith "load failed");
      surface "checkpoint" (Persist.checkpoint p);
      say "created %s: table T, %d rows (checkpointed)" dir rows;
      let options = demo_options ~batch:32 in
      let tf = Sc.transform (start_sc db ~options (Spec.Split split_spec)) in
      say "started %s as job %s; arming fault site %S (trigger on hit %d)"
        (Transform.name tf) (Transform.job_name tf) site (after + 1);
      Fault.arm ~after site;
      let mgr = Db.manager db in
      let rng = Random.State.make [| 13 |] in
      let writes = ref 0 in
      let traffic d =
        (* Only while the change is in flight and still routed at the
           source — afterwards T is either dropped or demoted. *)
        if Db.jobs d <> [] && Transform.routing tf = `Sources then begin
          incr writes;
          let txn = Manager.begin_txn mgr in
          match
            Manager.update mgr ~txn ~table:"T"
              ~key:(Row.make [ Value.Int (Random.State.int rng rows) ])
              [ (1, Value.Text (Printf.sprintf "w%d" !writes)) ]
          with
          | Ok () -> ignore (Manager.commit mgr txn)
          | Error _ -> ignore (Manager.abort mgr txn)
        end
      in
      let rounds = ref 0 in
      let crashed =
        try
          while Db.jobs db <> [] do
            incr rounds;
            ignore (Db.step_jobs db);
            traffic db;
            if !rounds mod 3 = 0 then
              surface "checkpoint" (Persist.checkpoint p)
          done;
          false
        with Fault.Injected { site = s; _ } ->
          say "crash injected at %S in round %d; progress at the crash:" s
            !rounds;
          say "  %a" Transform.pp_progress (Transform.progress tf);
          true
      in
      if not crashed then
        say "fault site never fired; the change completed in round %d" !rounds;
      Fault.reset ();
      Persist.crash p;
      say "in-memory state abandoned; reopening from snapshot + WAL ...";
      let p2 = surface "reopen" (Persist.open_dir ~dir) in
      (match Persist.last_recovery p2 with
       | Some r -> say "recovery: %a" Recovery.pp_report r
       | None -> say "recovery: clean snapshot, empty WAL");
      let db2 = Persist.db p2 in
      let resumed =
        match Sc.resume ~options p2 with
        | Ok scs -> List.map Sc.transform scs
        | Error e -> failwith ("resume: " ^ Nbsc_error.to_string e)
      in
      (match resumed with
       | [] -> say "no job to resume"
       | tfs ->
         List.iter
           (fun tf ->
              say "resumed %s in phase %a; scanned=%d (0 = no re-scan)"
                (Transform.job_name tf) Transform.pp_phase (Transform.phase tf)
                (Transform.progress tf).Transform.scanned)
           tfs);
      (match
         Db.run_jobs db2 ~max_rounds:100_000 ~between:(fun () -> traffic db2)
       with
       | Ok () -> ()
       | Error m -> failwith ("drive to completion: " ^ m));
      surface "final checkpoint" (Persist.checkpoint p2);
      List.iter
        (fun tf ->
           say "%s finished: %a" (Transform.job_name tf) Transform.pp_progress
             (Transform.progress tf);
           List.iter
             (fun t -> say "  table %-3s %6d rows" t (Db.row_count db2 t))
             (Transform.targets tf))
        resumed;
      let rs_ok, ix_ok = crash_demo_oracles db2 in
      say "oracle: R, S = split(T) %b; %s = blocking build %b" rs_ok
        Spec.ix_t_split ix_ok;
      Persist.close p2;
      if keep then say "store kept at %s" dir else wipe ();
      if not (rs_ok && ix_ok) then exit 1;
      `Ok ()
    in
    match run () with
    | r -> r
    | exception Failure m ->
      if not keep then wipe ();
      `Error (false, m)
  end

(* {1 stats}

   The one-way-to-read-a-number demo: run a transformation with
   interleaved writes, then dump the database's metrics registry —
   engine counters, lock statistics, schema-change probes and all —
   through the single [Db.Observe.snapshot] call. *)

let run_stats rows =
  let db = build_foj_db ~rows in
  let sc =
    start_sc db ~options:(demo_options ~batch:64) (Spec.Foj (foj_spec ~m2m:false))
  in
  let mgr = Db.manager db in
  let rng = Random.State.make [| 99 |] in
  let writes = ref 0 in
  let between () =
    if (Sc.status sc).Sc.sc_routing = `Sources then begin
      incr writes;
      let txn = Manager.begin_txn mgr in
      match
        Manager.update mgr ~txn ~table:"R"
          ~key:(Row.make [ Value.Int (Random.State.int rng rows) ])
          [ (1, Value.Text (Printf.sprintf "w%d" !writes)) ]
      with
      | Ok () -> ignore (Manager.commit mgr txn)
      | Error _ -> ignore (Manager.abort mgr txn)
    end
  in
  (match Sc.run ~between sc with
   | Ok () -> ()
   | Error e -> failwith (Nbsc_error.to_string e));
  List.iter
    (fun (name, v) -> say "%-28s %a" name Obs.pp_value v)
    (Db.Observe.snapshot db);
  `Ok ()

let stats_cmd =
  let rows =
    Arg.(value & opt int 5000 & info [ "rows" ] ~doc:"source table size")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"run a demo transformation and dump the metrics registry")
    Term.(ret (const run_stats $ rows))

(* {1 trace} *)

(* One JSON object per line with [ev], [name] and [at]. Span events
   also carry an integer [span]; a [parent], when present, names a span
   opened on an earlier line, and a [span_close] closes a span that is
   open. *)
let validate_jsonl path =
  let ic = open_in path in
  let lines = ref 0 and errors = ref 0 in
  (* Every span opened so far, mapped to whether it is still open. *)
  let spans = Hashtbl.create 64 in
  let complain fmt = incr errors; say fmt in
  let check_span fields ev =
    match List.assoc_opt "span" fields with
    | Some (Json.Int id) ->
      (match List.assoc_opt "parent" fields with
       | None -> ()
       | Some (Json.Int p) when Hashtbl.mem spans p -> ()
       | Some _ ->
         complain "line %d: parent does not name a span opened earlier" !lines);
      if ev = "span_open" then Hashtbl.replace spans id true
      else if Hashtbl.find_opt spans id = Some true then
        Hashtbl.replace spans id false
      else complain "line %d: span_close of span %d, which is not open" !lines id
    | _ -> complain "line %d: %s without an integer span" !lines ev
  in
  (try
     while true do
       let line = input_line ic in
       incr lines;
       match Json.of_string line with
       | Ok (Json.Obj fields) ->
         List.iter
           (fun k ->
              if not (List.mem_assoc k fields) then
                complain "line %d: missing required field %S" !lines k)
           [ "ev"; "name"; "at" ];
         (match List.assoc_opt "ev" fields with
          | Some (Json.String (("span_open" | "span_close") as ev)) ->
            check_span fields ev
          | _ -> ())
       | Ok _ -> complain "line %d: not a JSON object" !lines
       | Error m -> complain "line %d: %s" !lines m
     done
   with End_of_file -> ());
  close_in ic;
  (!lines, !errors)

let run_trace seed out validate =
  let setup = { E.quick_setup with E.seed } in
  let oc = open_out out in
  let tr =
    match E.traced_run ~setup ~sink:(Obs.jsonl_sink oc) () with
    | tr -> close_out oc; tr
    | exception e -> close_out oc; raise e
  in
  say "%d trace events written to %s" (List.length tr.E.tr_events) out;
  say "per-phase timings (JSON):";
  say "%s" (Json.to_string (E.phases_to_json tr.E.tr_phases));
  if not validate then `Ok ()
  else begin
    let lines, errors = validate_jsonl out in
    if errors = 0 then begin
      say "validated %d lines: every line is one JSON object with ev/name/at, \
           and every span event a well-nested span" lines;
      `Ok ()
    end
    else `Error (false, Printf.sprintf "%d of %d lines malformed" errors lines)
  end

let trace_cmd =
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"simulation seed")
  in
  let out =
    Arg.(value & opt string "nbsc_trace.jsonl"
         & info [ "out" ] ~docv:"FILE" ~doc:"JSON-lines output file")
  in
  let validate =
    Arg.(value & flag
         & info [ "validate" ]
             ~doc:"re-read the file and check one well-formed JSON object \
                   per line with the required fields, and that span events \
                   open and close known spans")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "run a traced fixed-seed simulation and write its events as JSON \
          lines")
    Term.(ret (const run_trace $ seed $ out $ validate))

let crash_demo_cmd =
  let site =
    Arg.(value & opt string "wal_append"
         & info [ "site" ] ~docv:"SITE"
             ~doc:"fault-injection site to arm (see nbsc crash-demo --help)")
  in
  let after =
    Arg.(value & opt int 20
         & info [ "after" ] ~doc:"let the site pass this many times first")
  in
  let rows =
    Arg.(value & opt int 500 & info [ "rows" ] ~doc:"source table size")
  in
  let keep =
    Arg.(value & flag
         & info [ "keep" ] ~doc:"keep the store directory afterwards")
  in
  Cmd.v
    (Cmd.info "crash-demo"
       ~doc:
         "crash a durable schema change at an injected fault and resume it")
    Term.(ret (const run_crash_demo $ site $ after $ rows $ keep))

(* {1 micro}

   Bechamel micro-benchmarks of the substrate's hot calls, in wall-clock
   nanoseconds per operation (OLS over the monotonic clock). *)

let run_micro () =
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
    (List.sort compare !rows);
  `Ok ()

let micro_cmd =
  Cmd.v
    (Cmd.info "micro"
       ~doc:"Bechamel micro-benchmarks of the substrate (ns per operation)")
    Term.(ret (const run_micro $ const ()))

(* {1 scrub and its drill helpers} *)

let run_scrub dir =
  match Db.Scrub.verify_dir ~dir with
  | Error e -> `Error (false, Nbsc_error.to_string e)
  | Ok r ->
    Format.printf "%a@." Db.Scrub.pp_report r;
    if Db.Scrub.ok r then `Ok () else `Error (false, "store is corrupt")

let scrub_cmd =
  let dir =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"DIR" ~doc:"database directory to verify")
  in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:
         "verify a database directory offline: format headers, per-line \
          CRC-32, snapshot trailer, WAL record structure; exits non-zero \
          on any damage")
    Term.(ret (const run_scrub $ dir))

let run_mkstore dir rows =
  if Sys.file_exists dir then `Error (false, dir ^ ": already exists")
  else begin
    let surface what = function
      | Ok v -> v
      | Error e ->
        failwith (Format.asprintf "%s: %a" what Persist.pp_error e)
    in
    let p = surface "create" (Persist.create_dir ~dir) in
    let db = Persist.db p in
    let col = Schema.column in
    ignore
      (Db.create_table db ~name:"T"
         (Schema.make ~key:[ "a" ]
            [ col ~nullable:false "a" Value.TInt; col "b" Value.TText ]));
    (match
       Db.load db ~table:"T"
         (List.init rows (fun i ->
              Row.make [ Value.Int i; Value.Text (Printf.sprintf "t%d" i) ]))
     with
     | Ok () -> ()
     | Error _ -> failwith "load failed");
    surface "checkpoint" (Persist.checkpoint p);
    (* A few post-checkpoint commits so the WAL holds framed records
       too, not just the snapshot. *)
    let mgr = Db.manager db in
    for i = rows to rows + 4 do
      let txn = Manager.begin_txn mgr in
      ignore
        (Manager.insert mgr ~txn ~table:"T"
           (Row.make [ Value.Int i; Value.Text "tail" ]));
      ignore (Manager.commit mgr txn)
    done;
    Persist.close p;
    say "created %s: table T, %d rows, snapshot + live WAL tail" dir
      (rows + 5);
    `Ok ()
  end

let mkstore_cmd =
  let dir =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"DIR" ~doc:"directory to create")
  in
  let rows =
    Arg.(value & opt int 100 & info [ "rows" ] ~doc:"table size")
  in
  Cmd.v
    (Cmd.info "mkstore"
       ~doc:"create a small durable store (for scrub drills and demos)")
    Term.(ret (const run_mkstore $ dir $ rows))

(* Damage one byte of a file in place — the corruption half of the CI
   scrub drill ([make scrub], ci/check.sh). *)
let run_flip path offset =
  if not (Sys.file_exists path) then `Error (false, path ^ ": no such file")
  else begin
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let b = Bytes.create n in
    really_input ic b 0 n;
    close_in ic;
    if n = 0 then `Error (false, path ^ ": empty file")
    else begin
      let pos = ((offset mod n) + n) mod n in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x01));
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc;
      say "flipped bit 0 of byte %d/%d in %s" pos n path;
      `Ok ()
    end
  end

let flip_cmd =
  let path =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"file to damage")
  in
  let offset =
    Arg.(value & opt int (-40)
         & info [ "offset" ]
             ~doc:"byte offset to flip (negative counts from the end)")
  in
  Cmd.v
    (Cmd.info "flip"
       ~doc:"flip one bit of a file in place (simulated media corruption)")
    Term.(ret (const run_flip $ path $ offset))

let () =
  let default =
    Term.(ret (const (`Help (`Pager, None))))
  in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "nbsc" ~version:"1.0.0"
             ~doc:"online, non-blocking relational schema changes")
          [ demo_cmd; concurrent_cmd; figure_cmd; sync_cmd; matrix_cmd;
            log_cmd; contention_cmd; crash_demo_cmd; stats_cmd; trace_cmd;
            micro_cmd; scrub_cmd; mkstore_cmd; flip_cmd ]))
