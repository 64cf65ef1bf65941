(** The paper's experiments (Sec. 6, Figure 4), as parameter sweeps
    over paired simulation runs.

    Each function returns the series a figure plots; [nbsc figure]
    prints them. Absolute numbers depend on the cost model (see
    DESIGN.md); the claims under reproduction are the {e shapes}:
    interference grows with workload, response time suffers more than
    throughput, a heavier update mix on the transformed tables needs a
    higher propagation priority and interferes more, and below a
    priority threshold the transformation never completes. *)

type point = {
  x : float;
  rel_throughput : float;
  rel_response : float;
  tf_completed : bool;
  tf_done_at : int option;
}

val pp_point : Format.formatter -> point -> unit
(** One table row: x, relative throughput, relative response time and
    the completion status ([done@T] or [still running]). *)

type setup = {
  scale : int;
      (** source-table scale; the paper uses 50 000 T rows (split) and
          50 000 + 20 000 rows (FOJ) *)
  duration : int;
  warmup : int;
  seed : int;
  seeds : int;       (** paired runs averaged per point *)
  priority : float;  (** transformation priority for workload sweeps *)
}

val default_setup : setup
(** Paper-scale tables with a measurement window sized so the
    transformation is still running while we measure. *)

val quick_setup : setup
(** Small tables and window, for tests and smoke runs. *)

(** Figure 4(a)/4(b): interference of the {e initial population} of a
    split transformation on throughput and response time, 20% of
    updates on T, as a function of workload %. One [point] per
    workload. *)
val fig4ab_population : ?setup:setup -> workloads:float list -> unit ->
  point list

(** Same experiment for the FOJ transformation (the paper reports the
    results are "very similar"). *)
val fig4ab_population_foj : ?setup:setup -> workloads:float list -> unit ->
  point list

(** Figure 4(c): interference of {e log propagation} for a given share
    of updates on T (0.2 and 0.8 in the paper). The transformation is
    created before the window so population is done and propagation
    dominates. *)
val fig4c_propagation : ?setup:setup -> source_share:float ->
  workloads:float list -> unit -> point list

val fig4c_propagation_foj : ?setup:setup -> source_share:float ->
  workloads:float list -> unit -> point list

(** Figure 4(d): completion time and throughput interference versus
    transformation priority at a fixed workload (75% in the paper).
    Points with [tf_completed = false] did not converge within the
    simulation horizon — the paper's "never finishes if the priority is
    set too low". *)
val fig4d_priority : ?setup:setup -> workload_pct:float ->
  priorities:float list -> unit -> point list

(** The same sweep with a fresh {!Nbsc_core.Governor} attached to each
    point: the configured priority becomes a floor that the feedback
    loop escalates whenever propagation lag stops shrinking, so every
    point — including those that never converge statically — completes
    within the horizon, at the price of more interference while the
    gain is high. *)
val fig4d_priority_governed : ?setup:setup -> workload_pct:float ->
  priorities:float list -> unit -> point list

(** The synchronization-window measurement backing the "< 1 ms" claim:
    runs a split transformation under load with the non-blocking abort
    strategy and reports the size (log records) and wall-clock time of
    the final latched propagation. *)
type sync_report = {
  final_records : int;
  wall_ns : int option;
  forced_aborts : int;
  strategy_name : string;
}

val sync_window : ?setup:setup -> strategy:Nbsc_core.Options.sync ->
  unit -> (sync_report, Nbsc_error.t) result
(** Errors with [`Invalid] when the configured run never surfaced
    transformation progress (misconfigured horizon or gate) instead of
    crashing the experiment harness. *)

(** Ablation: the framework versus the two comparators — blocking
    [INSERT INTO ... SELECT] (Sec. 1) and trigger-based maintenance
    (Ronström, Sec. 2.1) — under the same workload. The blocking dump
    stalls every source-table transaction for its whole duration; the
    trigger method pays maintenance inside user transactions; the
    log-based framework defers it. *)
type method_row = {
  label : string;
  m_rel_throughput : float;
  m_rel_response : float;
  m_done_at : int option;
  m_retries : int;   (** user operations stalled on latches/freezes *)
}

val method_comparison : ?setup:setup -> workload_pct:float -> unit ->
  method_row list

val pp_method_row : Format.formatter -> method_row -> unit

(** Ablation: the iteration-analysis threshold (paper Sec. 3.3 — "the
    synchronization step should not be started if a significant portion
    of the log remains to be propagated"). Sweeping the lag threshold
    trades the size of the final latched iteration (the blocking
    window) against how eagerly the transformation can finish. *)
type threshold_row = {
  t_threshold : int;
  t_final_records : int;    (** size of the latched final iteration *)
  t_done_at : int option;
  t_rel_response : float;
}

val threshold_sweep : ?setup:setup -> thresholds:int list -> unit ->
  threshold_row list

val pp_threshold_row : Format.formatter -> threshold_row -> unit

(** Ablation: propagation batch size — bigger slices monopolize the
    server longer per grant (burstier response times) but carry less
    per-slice overhead. *)
type batch_row = {
  b_batch : int;
  b_done_at : int option;
  b_rel_response : float;
  b_rel_throughput : float;
}

val batch_sweep : ?setup:setup -> batches:int list -> unit -> batch_row list
val pp_batch_row : Format.formatter -> batch_row -> unit

(** Ablation: the three iteration-analysis bases of paper Sec. 3.3
    compared head-to-head. *)
type policy_row = {
  p_name : string;
  p_final_records : int;
  p_done_at : int option;
  p_iterations : int;
}

val policy_comparison :
  ?setup:setup -> unit -> (policy_row list, Nbsc_error.t) result
(** Errors with [`Invalid] when any point's run never surfaced
    transformation progress (see {!sync_window}). *)

val pp_policy_row : Format.formatter -> policy_row -> unit

(** {1 A traced fixed-seed run}

    The shared harness behind [nbsc trace] and the span-nesting tests:
    a split transformation under 75% workload with every trace event
    captured. Because the registry clock is the simulator's virtual
    time, the same [setup.seed] always produces the same trace. *)

(** One span's lifetime, extracted from the event stream. *)
type phase_timing = {
  ph_name : string;            (** e.g. ["schema_change"], ["populate"] *)
  ph_span : int;
  ph_parent : int option;
  ph_start : float;            (** virtual time *)
  ph_end : float option;       (** [None] if still open at the horizon *)
}

val phases_to_json : phase_timing list -> Nbsc_obs.Json.t
(** The per-phase timing report [nbsc trace] prints:
    [[{"name":..,"span":..,"parent":..?,"start":..,"end":..?}, ...]]. *)

type traced = {
  tr_events : Nbsc_obs.Obs.event list;  (** everything, oldest first *)
  tr_phases : phase_timing list;  (** spans in open order *)
}

val traced_run : ?setup:setup -> ?sink:Nbsc_obs.Obs.sink -> unit -> traced
(** Run with an in-memory capture (always) and [sink] (additionally,
    e.g. a {!Nbsc_obs.Obs.jsonl_sink}) attached before the
    transformation starts. *)
