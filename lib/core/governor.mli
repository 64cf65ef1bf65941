(** Anti-starvation pacing for schema transformations.

    A feedback governor closing the loop the paper's Fig. 4(d) leaves
    open: at a too-low static priority the transformation never
    finishes, because user transactions append log records faster than
    the propagator drains them. The governor watches the propagation
    {e lag} (records logged but not yet propagated) across observation
    windows; when a whole window passes without the lag improving it
    multiplies its {!gain} — the factor schedulers apply to the
    transformation's configured priority — and once the transformation
    has caught up {e and} user response time is back near its
    pre-escalation baseline, it decays the gain toward 1. Geometric
    escalation guarantees convergence: any workload the machine can
    sustain at priority 1 is eventually granted enough capacity.

    The governor holds no clock and drives nothing. Schedulers feed
    {!observe_lag} / {!observe_response} and read {!gain}; one instance
    must not be shared between concurrent runs (it is mutable). Wire it
    into a transformation via [Options.pace]. *)

type config = {
  window : int;         (** lag observations per escalation decision *)
  escalate : float;     (** gain multiplier on a no-progress window *)
  relax : float;        (** gain multiplier ([< 1]) when caught up *)
  max_gain : float;     (** escalation ceiling *)
  lag_slack : int;      (** lag at or below this counts as caught up *)
  rt_tolerance : float;
      (** relax only once response time is within this factor of the
          pre-escalation baseline *)
}

val default_config : config
(** window 6, escalate 2.0, relax 0.5, max_gain 4096, lag_slack 4,
    rt_tolerance 1.5. *)

type t

type stats = {
  current_gain : float;
  escalations : int;
  relaxes : int;
}

val create : ?config:config -> ?obs:Nbsc_obs.Obs.Registry.t -> unit -> t
(** [obs], when given, registers the probes [governor.gain],
    [governor.escalations] and [governor.relaxes] — read-on-demand
    views of this instance's state, so snapshots see the governor
    without it writing anywhere. *)

val observe_lag : t -> lag:int -> unit
(** Feed the current propagation lag. Call on a steady cadence (each
    executor quantum, or on a timer when the transformation is too
    starved to run quanta at all — a starved job cannot report its own
    starvation). *)

val observe_response : t -> rt:float -> unit
(** Feed a user-transaction response time (any consistent unit). While
    the gain is 1 this builds the baseline; during escalation it gates
    the relax step. Optional — without it, relax is gated on lag
    alone. *)

val gain : t -> float
(** Current priority multiplier, [>= 1]. *)

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
