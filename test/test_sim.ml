(* Tests for the simulator and metrics: determinism, workload scaling,
   the priority knob, and the experiment plumbing. *)

open Nbsc_core
open Nbsc_sim

let workload ?(n = 4) ?(seed = 5) ?(share = 0.2) () =
  { Sim.n_clients = n;
    think_time = 5_000;
    ops_per_txn = 10;
    source_share = share;
    seed }

let split_kind = Sim.Split_scenario { t_rows = 500; assume_consistent = true }

let tf_options ~gate =
  { Options.default with
    Options.scan_batch = 16;
    propagate_batch = 32;
    analysis = Analysis.Remaining_records 8;
    sync = Options.Nonblocking_abort;
    drop_sources = false;
    sync_gate = (fun () -> gate);
    pace = None }

let run ?(background = Sim.No_background) ?(duration = 120_000) ?(warmup = 10_000)
    ?(wl = workload ()) () =
  Sim.run ~kind:split_kind ~workload:wl ~background ~duration ~warmup ()

let test_deterministic () =
  let r1 = run () and r2 = run () in
  Alcotest.(check int) "same committed" r1.Sim.summary.Metrics.committed
    r2.Sim.summary.Metrics.committed;
  Alcotest.(check (float 0.0001)) "same mean rt"
    r1.Sim.summary.Metrics.mean_response r2.Sim.summary.Metrics.mean_response

let test_seed_changes_runs () =
  let r1 = run () and r2 = run ~wl:(workload ~seed:6 ()) () in
  Alcotest.(check bool) "different runs" true
    (r1.Sim.summary.Metrics.mean_response
     <> r2.Sim.summary.Metrics.mean_response
     || r1.Sim.summary.Metrics.committed <> r2.Sim.summary.Metrics.committed)

let test_more_clients_more_throughput () =
  let r1 = run ~wl:(workload ~n:2 ()) () in
  let r2 = run ~wl:(workload ~n:6 ()) () in
  Alcotest.(check bool) "throughput grows" true
    (r2.Sim.summary.Metrics.throughput > r1.Sim.summary.Metrics.throughput)

let test_transformation_completes () =
  let background =
    Sim.Transformation { Sim.priority = 0.2; options = tf_options ~gate:true }
  in
  let r = run ~background ~duration:400_000 () in
  Alcotest.(check bool) "completed" true (r.Sim.tf_done_at <> None);
  Alcotest.(check bool) "did work" true (r.Sim.tf_busy > 0);
  (match r.Sim.tf_final_phase with
   | Some Transform.Done -> ()
   | p ->
     Alcotest.failf "phase %s"
       (match p with
        | Some p -> Format.asprintf "%a" Transform.pp_phase p
        | None -> "none"))

let test_zero_priority_never_completes () =
  let background =
    Sim.Transformation { Sim.priority = 0.0; options = tf_options ~gate:true }
  in
  let r = run ~background () in
  Alcotest.(check bool) "not completed" true (r.Sim.tf_done_at = None)

let test_higher_priority_faster () =
  let time p =
    let background =
      Sim.Transformation { Sim.priority = p; options = tf_options ~gate:true }
    in
    match (run ~background ~duration:1_000_000 ()).Sim.tf_done_at with
    | Some t -> t
    | None -> max_int
  in
  let slow = time 0.05 and fast = time 0.4 in
  Alcotest.(check bool) "0.4 beats 0.05" true (fast < slow);
  Alcotest.(check bool) "both finished" true (slow < max_int)

let test_clients_for_workload () =
  let n50 = Sim.clients_for_workload 50. in
  let n100 = Sim.clients_for_workload 100. in
  Alcotest.(check bool) "monotone" true (n100 > n50);
  Alcotest.(check bool) "at least 1" true (Sim.clients_for_workload 1. >= 1);
  Alcotest.(check bool) "roughly double" true
    (abs ((2 * n50) - n100) <= 1)

let test_metrics_relative () =
  let s = Metrics.create () in
  Metrics.record_txn s ~start:0 ~finish:100;
  Metrics.record_txn s ~start:50 ~finish:250;
  Metrics.record_abort s;
  let sum = Metrics.summarize s ~window:1000 in
  Alcotest.(check int) "committed" 2 sum.Metrics.committed;
  Alcotest.(check int) "aborted" 1 sum.Metrics.aborted;
  Alcotest.(check (float 0.001)) "throughput per kilotick" 2.0 sum.Metrics.throughput;
  Alcotest.(check (float 0.001)) "mean" 150.0 sum.Metrics.mean_response;
  Alcotest.(check int) "max" 200 sum.Metrics.max_response;
  let rel =
    Metrics.relative ~baseline:sum
      ~loaded:{ sum with Metrics.throughput = 1.8; mean_response = 180. }
  in
  Alcotest.(check (float 0.001)) "rel tput" 0.9 rel.Metrics.rel_throughput;
  Alcotest.(check (float 0.001)) "rel rt" 1.2 rel.Metrics.rel_response

let test_sync_window_report () =
  let setup =
    { Experiment.quick_setup with Experiment.scale = 400; duration = 60_000;
      warmup = 5_000 }
  in
  let r =
    match
      Experiment.sync_window ~setup ~strategy:Options.Nonblocking_abort ()
    with
    | Ok r -> r
    | Error e -> Alcotest.fail (Nbsc_error.to_string e)
  in
  Alcotest.(check string) "strategy name" "non-blocking-abort"
    r.Experiment.strategy_name;
  Alcotest.(check bool) "tiny final iteration" true (r.Experiment.final_records < 64)

let test_method_comparison_rows () =
  (* Big enough that the blocking dump's latch window overlaps client
     activity. *)
  let setup =
    { Experiment.quick_setup with Experiment.scale = 8_000; duration = 120_000;
      warmup = 5_000 }
  in
  let rows = Experiment.method_comparison ~setup ~workload_pct:75. () in
  Alcotest.(check int) "three methods" 3 (List.length rows);
  let blocking = List.nth rows 1 in
  Alcotest.(check bool) "blocking dump finished" true
    (blocking.Experiment.m_done_at <> None);
  Alcotest.(check bool) "blocking stalled someone" true
    (blocking.Experiment.m_retries > 0)

(* Fig. 4(d) sweeps priorities from 0.0005: the printed row must tell
   them apart. *)
let test_point_prints_small_x () =
  let row =
    Format.asprintf "%a" Experiment.pp_point
      { Experiment.x = 0.0005; rel_throughput = 0.98; rel_response = 1.1;
        tf_completed = false; tf_done_at = None }
  in
  Alcotest.(check string) (Printf.sprintf "x column of %S" row) "0.0005"
    (String.sub row 0 6)

(* {1 WAL soak}

   The bounded-memory claim (ISSUE: tentpole acceptance): under a
   long-running schema change plus sustained user traffic, the live
   in-memory WAL stays flat — its high-water mark is a function of the
   truncation cadence and the active-transaction window, not of run
   length. The transformation's sync gate is held shut so the
   propagator runs (and pins the log) for the whole run. *)

let soak_workload =
  { Sim.n_clients = 8;
    think_time = 500;
    ops_per_txn = 10;
    source_share = 0.2;
    seed = 11 }

let soak ~duration =
  let background =
    Sim.Transformation { Sim.priority = 0.05; options = tf_options ~gate:false }
  in
  Sim.run ~kind:split_kind ~workload:soak_workload ~background ~duration
    ~warmup:10_000 ()

(* High enough to absorb the truncation cadence (every 4096 live
   records) plus active-transaction undo chains; far below what an
   unbounded log accumulates over these durations. *)
let soak_bound = 16_384

let test_wal_soak_bounded () =
  let short = soak ~duration:300_000 in
  let long = soak ~duration:600_000 in
  Alcotest.(check bool) "truncation ran" true (short.Sim.wal_truncated > 0);
  Alcotest.(check bool)
    (Printf.sprintf "short run high-water %d <= %d" short.Sim.wal_high_water
       soak_bound)
    true
    (short.Sim.wal_high_water <= soak_bound);
  Alcotest.(check bool)
    (Printf.sprintf "long run high-water %d <= %d" long.Sim.wal_high_water
       soak_bound)
    true
    (long.Sim.wal_high_water <= soak_bound);
  (* Doubling the run must not grow the live log: flat, not linear. *)
  Alcotest.(check bool)
    (Printf.sprintf "flat across durations (%d vs %d)" short.Sim.wal_high_water
       long.Sim.wal_high_water)
    true
    (long.Sim.wal_high_water <= 2 * short.Sim.wal_high_water);
  Alcotest.(check bool) "longer run reclaims more" true
    (long.Sim.wal_truncated > short.Sim.wal_truncated)

let () =
  Alcotest.run "sim"
    [ ( "engine",
        [ Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_runs;
          Alcotest.test_case "clients scale throughput" `Quick
            test_more_clients_more_throughput ] );
      ( "background",
        [ Alcotest.test_case "transformation completes" `Quick
            test_transformation_completes;
          Alcotest.test_case "zero priority starves" `Quick
            test_zero_priority_never_completes;
          Alcotest.test_case "priority speeds completion" `Quick
            test_higher_priority_faster ] );
      ( "soak",
        [ Alcotest.test_case "wal memory bounded" `Quick
            test_wal_soak_bounded ] );
      ( "experiment",
        [ Alcotest.test_case "clients_for_workload" `Quick
            test_clients_for_workload;
          Alcotest.test_case "metrics math" `Quick test_metrics_relative;
          Alcotest.test_case "sync window report" `Quick test_sync_window_report;
          Alcotest.test_case "method comparison" `Quick
            test_method_comparison_rows;
          Alcotest.test_case "point prints a small x" `Quick
            test_point_prints_small_x ] ) ]
