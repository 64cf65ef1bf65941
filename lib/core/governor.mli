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
    into a transformation via [Options.pace].

    The loop's constants: a decision every 6 lag observations; a
    no-progress window doubles the gain, up to 4096; a lag of at most 4
    counts as caught up, and then each observation halves the gain
    toward 1 once response time is within 1.5× its pre-escalation
    baseline. *)

type t

type stats = {
  current_gain : float;
  escalations : int;
  relaxes : int;
}

val create : unit -> t
(** A governor at gain 1. It registers no instrument: {!stats} reads
    its state, and the [transform.quantum] trace point of a paced
    transformation carries the gain. *)

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
