open Nbsc_core
module Obs = Nbsc_obs.Obs
module Json = Nbsc_obs.Json

type point = {
  x : float;
  rel_throughput : float;
  rel_response : float;
  tf_completed : bool;
  tf_done_at : int option;
}

let pp_point ppf p =
  Format.fprintf ppf "%-10.4f %14.4f %14.4f  %s" p.x p.rel_throughput
    p.rel_response
    (match p.tf_done_at with
     | Some t -> Printf.sprintf "done@%d" t
     | None -> if p.tf_completed then "done" else "still running")

type setup = {
  scale : int;
  duration : int;
  warmup : int;
  seed : int;
  seeds : int;   (* runs averaged per point *)
  priority : float;
}

let default_setup =
  { scale = 50_000; duration = 3_000_000; warmup = 100_000; seed = 42;
    seeds = 3; priority = 0.02 }

let quick_setup =
  { scale = 2_000; duration = 300_000; warmup = 50_000; seed = 42;
    seeds = 1; priority = 0.02 }

let tf_options ~sync_gate =
  { Options.default with
    Options.scan_batch = 16;
    propagate_batch = 32;
    sync_lag = 8;
    drop_sources = false;
    sync_gate }

let workload_of setup ~pct ~source_share =
  { Sim.n_clients = Sim.clients_for_workload pct;
    think_time = 21_000;
    ops_per_txn = 10;
    source_share;
    seed = setup.seed }

(* Baselines are deterministic in (kind, workload, duration, warmup), so
   share them across sweep points. *)
let baseline_cache : (string, Metrics.summary) Hashtbl.t = Hashtbl.create 16

let baseline ~kind ~workload ~duration ~warmup =
  let key =
    Format.asprintf "%s|%d|%d|%f|%d|%d|%d"
      (match kind with
       | Sim.Foj_scenario { r_rows; s_rows } ->
         Printf.sprintf "foj%d-%d" r_rows s_rows
       | Sim.Split_scenario { t_rows; assume_consistent } ->
         Printf.sprintf "split%d-%b" t_rows assume_consistent)
      workload.Sim.n_clients workload.Sim.think_time workload.Sim.source_share
      workload.Sim.seed duration warmup
  in
  match Hashtbl.find_opt baseline_cache key with
  | Some s -> s
  | None ->
    let r = Sim.run ~kind ~workload ~background:Sim.No_background ~duration ~warmup () in
    Hashtbl.replace baseline_cache key r.Sim.summary;
    r.Sim.summary

(* One sweep point: paired baseline/loaded runs, averaged over
   [seeds] independent seeds to tame queueing variance (the paper
   averaged "hundreds of tests"). *)
let paired_point ~kind ~workload ~tf ~duration ~warmup ~seeds ~x =
  let runs =
    List.init (max 1 seeds) (fun i ->
        let workload = { workload with Sim.seed = workload.Sim.seed + i } in
        let base = baseline ~kind ~workload ~duration ~warmup in
        let loaded =
          Sim.run ~kind ~workload ~background:(Sim.Transformation tf) ~duration
            ~warmup ()
        in
        (Metrics.relative ~baseline:base ~loaded:loaded.Sim.summary,
         loaded.Sim.tf_done_at))
  in
  let n = float_of_int (List.length runs) in
  let avg f = List.fold_left (fun acc (r, _) -> acc +. f r) 0. runs /. n in
  let done_at =
    List.fold_left
      (fun acc (_, d) -> match acc, d with Some a, Some b -> Some (max a b) | _ -> None)
      (Some 0) runs
  in
  { x;
    rel_throughput = avg (fun r -> r.Metrics.rel_throughput);
    rel_response = avg (fun r -> r.Metrics.rel_response);
    tf_completed = done_at <> None;
    tf_done_at = done_at }

(* {1 Figure 4(a)/(b): initial-population interference} *)

let population_sweep ~kind ~setup ~workloads =
  List.map
    (fun pct ->
       let workload = workload_of setup ~pct ~source_share:0.2 in
       (* Gate sync off: the figure measures the population/propagation
          background process, not the switch-over. *)
       let tf =
         { Sim.priority = setup.priority;
           options = tf_options ~sync_gate:(fun () -> false) }
       in
       paired_point ~kind ~workload ~tf ~duration:setup.duration
         ~warmup:setup.warmup ~seeds:setup.seeds ~x:pct)
    workloads

let fig4ab_population ?(setup = default_setup) ~workloads () =
  population_sweep
    ~kind:(Sim.Split_scenario { t_rows = setup.scale; assume_consistent = true })
    ~setup ~workloads

let fig4ab_population_foj ?(setup = default_setup) ~workloads () =
  population_sweep
    ~kind:
      (Sim.Foj_scenario
         { r_rows = setup.scale; s_rows = max 1 (setup.scale * 2 / 5) })
    ~setup ~workloads

(* {1 Figure 4(c): log-propagation interference}

   A smaller table makes the population finish inside the warmup, so
   the measurement window sees steady-state propagation. The priority
   follows the update mix: four times more relevant log records need
   roughly four times the propagation bandwidth (the paper makes the
   same adjustment: "the priority could be kept lower in the 20%
   case"). *)

let propagation_sweep ~kind ~setup ~source_share ~workloads =
  let priority =
    if source_share > 0.5 then setup.priority *. 4. else setup.priority
  in
  List.map
    (fun pct ->
       let workload = workload_of setup ~pct ~source_share in
       let tf =
         { Sim.priority; options = tf_options ~sync_gate:(fun () -> false) }
       in
       paired_point ~kind ~workload ~tf ~duration:setup.duration
         ~warmup:setup.warmup ~seeds:setup.seeds ~x:pct)
    workloads

(* The propagation figures need the population finished before the
   measurement window: the table is sized so the background share
   completes the scan within the warmup. *)
let fig4c_propagation ?(setup = default_setup) ~source_share ~workloads () =
  let setup = { setup with scale = max 100 (setup.scale / 50) } in
  propagation_sweep
    ~kind:(Sim.Split_scenario { t_rows = setup.scale; assume_consistent = true })
    ~setup ~source_share ~workloads

let fig4c_propagation_foj ?(setup = default_setup) ~source_share ~workloads () =
  let setup = { setup with scale = max 100 (setup.scale / 50) } in
  propagation_sweep
    ~kind:
      (Sim.Foj_scenario
         { r_rows = setup.scale; s_rows = max 1 (setup.scale * 2 / 5) })
    ~setup ~source_share ~workloads

(* {1 Figure 4(d): priority versus completion time and interference} *)

let fig4d_priorities = [ 0.0005; 0.001; 0.002; 0.005; 0.01; 0.02; 0.04; 0.08 ]

let fig4d_priority ?(setup = default_setup) ~workload_pct ~priorities () =
  let kind =
    Sim.Split_scenario
      { t_rows = max 100 (setup.scale / 25); assume_consistent = true }
  in
  let workload = workload_of setup ~pct:workload_pct ~source_share:0.2 in
  (* A generous horizon: points that do not finish within it are the
     paper's "transformation never finishes". One seed per point — the
     runs are long and completion time is the headline. *)
  let horizon = setup.duration * 4 in
  List.map
    (fun priority ->
       let tf =
         { Sim.priority; options = tf_options ~sync_gate:(fun () -> true) }
       in
       paired_point ~kind ~workload ~tf ~duration:horizon ~warmup:setup.warmup
         ~seeds:1 ~x:priority)
    priorities

(* Adjacent pairs suffice: a finished point below an unfinished one,
   or a rise in completion time, shows up between some two neighbours. *)
let fig4d_shape points =
  let points = List.sort (fun a b -> Float.compare a.x b.x) points in
  let rec walk = function
    | lo :: (hi :: _ as rest) ->
      if lo.tf_completed && not hi.tf_completed then
        Error
          (Printf.sprintf "priority %g did not finish, though %g below it did"
             hi.x lo.x)
      else (
        match lo.tf_done_at, hi.tf_done_at with
        | Some a, Some b when b > a ->
          Error
            (Printf.sprintf
               "completion time rose from %d at priority %g to %d at %g" a
               lo.x b hi.x)
        | _ -> walk rest)
    | [] | [ _ ] -> Ok ()
  in
  match points, List.rev points with
  | lowest :: _, _ when lowest.tf_completed ->
    Error (Printf.sprintf "the lowest priority, %g, finished" lowest.x)
  | _, highest :: _ when not highest.tf_completed ->
    Error (Printf.sprintf "the highest priority, %g, did not finish" highest.x)
  | [], _ -> Error "the sweep has no point"
  | _ -> walk points

(* {1 Synchronization window} *)

type sync_report = {
  final_records : int;
  forced_aborts : int;
  strategy_name : string;
}

let strategy_name = function
  | Options.Blocking_commit -> "blocking-commit"
  | Options.Nonblocking_abort -> "non-blocking-abort"
  | Options.Nonblocking_commit -> "non-blocking-commit"

let sync_window ?(setup = quick_setup) ~strategy () =
  let kind =
    Sim.Split_scenario { t_rows = setup.scale; assume_consistent = true }
  in
  let workload = workload_of setup ~pct:75. ~source_share:0.2 in
  let options =
    { (tf_options ~sync_gate:(fun () -> true)) with Options.sync = strategy }
  in
  let tf = { Sim.priority = 0.05; options } in
  let r =
    Sim.run ~kind ~workload ~background:(Sim.Transformation tf)
      ~duration:(setup.duration * 10) ~warmup:setup.warmup ()
  in
  match r.Sim.tf_progress with
  | None ->
    (* The scenario registered a transformation background, so the run
       should always surface its progress; a missing report means the
       configuration (horizon, priority, gate) never let it start —
       a caller error worth reporting, not a crash. *)
    Error
      (Nbsc_error.invalidf
         "sync_window (%s): the transformation never reported progress \
          within the horizon"
         (strategy_name strategy))
  | Some p ->
    Ok
      { final_records = p.Transform.final_records;
        forced_aborts = p.Transform.forced_aborts;
        strategy_name = strategy_name strategy }

(* {1 Method comparison (ablation)} *)

type method_row = {
  label : string;
  m_rel_throughput : float;
  m_rel_response : float;
  m_done_at : int option;
  m_retries : int;
}

let pp_method_row ppf r =
  Format.fprintf ppf "%-22s rel_tput=%.4f rel_rt=%.4f retries=%d %s" r.label
    r.m_rel_throughput r.m_rel_response r.m_retries
    (match r.m_done_at with
     | Some t -> Printf.sprintf "done@%d" t
     | None -> "running at horizon")

let log_based = "log-based (this paper)"
let blocking_dump = "blocking INSERT-SELECT"

let method_comparison ?(setup = quick_setup) ~workload_pct () =
  let kind =
    Sim.Split_scenario { t_rows = setup.scale; assume_consistent = true }
  in
  let workload = workload_of setup ~pct:workload_pct ~source_share:0.2 in
  (* Measure from t = 0: the blocking comparator does its damage right
     at the start, and all three methods are measured identically. *)
  let duration = setup.duration and warmup = 0 in
  let base = baseline ~kind ~workload ~duration ~warmup in
  let row label background =
    let r = Sim.run ~kind ~workload ~background ~duration ~warmup () in
    let rel = Metrics.relative ~baseline:base ~loaded:r.Sim.summary in
    { label;
      m_rel_throughput = rel.Metrics.rel_throughput;
      m_rel_response = rel.Metrics.rel_response;
      m_done_at = r.Sim.tf_done_at;
      m_retries = r.Sim.retries }
  in
  [ row log_based
      (Sim.Transformation
         { Sim.priority = setup.priority;
           options = tf_options ~sync_gate:(fun () -> true) });
    row blocking_dump (Sim.Blocking_dump { dump_priority = 0.9 });
    row "trigger-based" Sim.Trigger_maintenance ]

(* Another row at least as good as the log-based one on either axis
   breaks the claim. *)
let methods_shape rows =
  let find label = List.find_opt (fun r -> String.equal r.label label) rows in
  let rivals log r =
    if r == log then None
    else if r.m_rel_throughput >= log.m_rel_throughput then
      Some
        (Printf.sprintf
           "%s has relative throughput %.4f, not below the log-based %.4f"
           r.label r.m_rel_throughput log.m_rel_throughput)
    else if r.m_rel_response <= log.m_rel_response then
      Some
        (Printf.sprintf
           "%s has relative response time %.4f, not above the log-based %.4f"
           r.label r.m_rel_response log.m_rel_response)
    else None
  in
  match find log_based, find blocking_dump with
  | None, _ -> Error "no log-based row"
  | _, None -> Error "no blocking dump row"
  | Some log, Some dump ->
    (match List.find_map (rivals log) rows with
     | Some m -> Error m
     | None when dump.m_done_at = None -> Error "the blocking dump did not finish"
     | None -> Ok ())

(* {1 Threshold ablation} *)

type threshold_row = {
  t_threshold : int;
  t_final_records : int;
  t_done_at : int option;
  t_rel_response : float;
}

let pp_threshold_row ppf r =
  Format.fprintf ppf "threshold=%6d final-iteration=%6d rel_rt=%.4f %s"
    r.t_threshold r.t_final_records r.t_rel_response
    (match r.t_done_at with
     | Some t -> Printf.sprintf "done@%d" t
     | None -> "NOT DONE")

let threshold_sweep ?(setup = quick_setup) ~thresholds () =
  let kind =
    Sim.Split_scenario { t_rows = setup.scale; assume_consistent = true }
  in
  let workload = workload_of setup ~pct:75. ~source_share:0.2 in
  let duration = setup.duration * 4 and warmup = setup.warmup in
  let base = baseline ~kind ~workload ~duration ~warmup in
  List.map
    (fun threshold ->
       let options =
         { (tf_options ~sync_gate:(fun () -> true)) with
           Options.sync_lag = threshold }
       in
       let r =
         Sim.run ~kind ~workload
           ~background:(Sim.Transformation { Sim.priority = 0.05; options })
           ~duration ~warmup ()
       in
       let rel = Metrics.relative ~baseline:base ~loaded:r.Sim.summary in
       { t_threshold = threshold;
         t_final_records =
           (match r.Sim.tf_progress with
            | Some p -> p.Transform.final_records
            | None -> 0);
         t_done_at = r.Sim.tf_done_at;
         t_rel_response = rel.Metrics.rel_response })
    thresholds

(* {1 Batch-size ablation} *)

type batch_row = {
  b_batch : int;
  b_done_at : int option;
  b_rel_response : float;
  b_rel_throughput : float;
}

let pp_batch_row ppf r =
  Format.fprintf ppf "batch=%5d rel_tput=%.4f rel_rt=%.4f %s" r.b_batch
    r.b_rel_throughput r.b_rel_response
    (match r.b_done_at with
     | Some t -> Printf.sprintf "done@%d" t
     | None -> "NOT DONE")

let batch_sweep ?(setup = quick_setup) ~batches () =
  let kind =
    Sim.Split_scenario { t_rows = setup.scale; assume_consistent = true }
  in
  let workload = workload_of setup ~pct:75. ~source_share:0.2 in
  let duration = setup.duration * 4 and warmup = setup.warmup in
  let base = baseline ~kind ~workload ~duration ~warmup in
  List.map
    (fun batch ->
       let options =
         { (tf_options ~sync_gate:(fun () -> true)) with
           Options.scan_batch = batch;
           propagate_batch = batch }
       in
       let r =
         Sim.run ~kind ~workload
           ~background:(Sim.Transformation { Sim.priority = 0.05; options })
           ~duration ~warmup ()
       in
       let rel = Metrics.relative ~baseline:base ~loaded:r.Sim.summary in
       { b_batch = batch;
         b_done_at = r.Sim.tf_done_at;
         b_rel_response = rel.Metrics.rel_response;
         b_rel_throughput = rel.Metrics.rel_throughput })
    batches

(* {1 A traced fixed-seed run} *)

type phase_timing = {
  ph_name : string;
  ph_span : int;
  ph_parent : int option;
  ph_start : float;
  ph_end : float option;
}

let phase_timings events =
  let opens = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (function
      | Obs.Span_open { span; at; _ } ->
        Hashtbl.replace opens span.Obs.span_id (span, at, None);
        order := span.Obs.span_id :: !order
      | Obs.Span_close { span; at; _ } ->
        (match Hashtbl.find_opt opens span.Obs.span_id with
         | Some (sp, start, None) ->
           Hashtbl.replace opens span.Obs.span_id (sp, start, Some at)
         | _ -> ())
      | Obs.Point _ -> ())
    events;
  List.rev_map
    (fun id ->
       let sp, start, stop = Hashtbl.find opens id in
       { ph_name = sp.Obs.span_name;
         ph_span = sp.Obs.span_id;
         ph_parent = sp.Obs.span_parent;
         ph_start = start;
         ph_end = stop })
    !order

let phases_to_json phases =
  Json.List
    (List.map
       (fun p ->
          Json.Obj
            ([ ("name", Json.String p.ph_name); ("span", Json.Int p.ph_span) ]
             @ (match p.ph_parent with
                | Some i -> [ ("parent", Json.Int i) ]
                | None -> [])
             @ [ ("start", Json.Float p.ph_start) ]
             @ (match p.ph_end with
                | Some e -> [ ("end", Json.Float e) ]
                | None -> [])))
       phases)

type traced = {
  tr_events : Obs.event list;
  tr_phases : phase_timing list;
}

let traced_run ?(setup = quick_setup) ?sink () =
  let kind =
    Sim.Split_scenario { t_rows = setup.scale; assume_consistent = true }
  in
  let workload = workload_of setup ~pct:75. ~source_share:0.2 in
  let tf =
    { Sim.priority = 0.05; options = tf_options ~sync_gate:(fun () -> true) }
  in
  let mem = Obs.memory_sink () in
  let on_db db =
    Obs.Registry.attach (Db.obs db) mem;
    match sink with
    | Some s -> Obs.Registry.attach (Db.obs db) s
    | None -> ()
  in
  ignore
    (Sim.run ~kind ~workload ~on_db ~background:(Sim.Transformation tf)
       ~duration:(setup.duration * 10) ~warmup:setup.warmup ());
  let events = Obs.memory_events mem in
  { tr_events = events; tr_phases = phase_timings events }
