(** The unified observability layer: one metrics registry, one trace
    stream, pluggable sinks.

    Everything measurable in the system — transaction-manager counters,
    lock-contention statistics, schema-change progress,
    fault-injection trips, simulator client metrics — registers here,
    so there is exactly one way to read a number out of a running
    database: {!Registry.snapshot} (or a {!probe}, for values computed
    on demand). Structured {e trace events} (phase spans, per-quantum
    progress records, lock/transaction events) flow through the same
    registry to whatever {e sinks} are attached:

    - none (the default) — tracing is off and {!emit} is one physical
      equality check, so instrumented hot paths cost nothing;
    - {!memory_sink} — a bounded in-memory ring, for tests;
    - {!jsonl_sink} — one compact JSON object per line, for
      [nbsc trace];
    - {!callback_sink} — live subscription ([Db.Observe.subscribe]).

    The registry holds no wall clock: {!Registry.set_clock} injects the
    time source, so the simulator stamps events with {e virtual} time
    and two fixed-seed runs produce byte-identical traces. Instruments
    and registries are single-threaded, like the engine they observe. *)

(** {1 Instruments} *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val name : t -> string
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val value : t -> float
  val name : t -> string
end

module Histogram : sig
  type t

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float

  val buckets : t -> (float * int) list
  (** [(upper_edge, count)] per bucket, in edge order, plus a final
      [(infinity, overflow_count)] bucket. Counts are per-bucket, not
      cumulative. *)

  val quantile : t -> float -> float
  (** Upper-edge estimate of the q-quantile (0 when empty). *)
end

(** {1 Reading} *)

type value =
  | Counter_v of int
  | Gauge_v of float  (** gauges and probes *)
  | Histogram_v of {
      h_edges : float list;
      h_counts : int list;  (** per-bucket, last = overflow *)
      h_sum : float;
      h_count : int;
    }

val pp_value : Format.formatter -> value -> unit

(** {1 Trace events} *)

type span = {
  span_id : int;
  span_parent : int option;
  span_name : string;
}

type event =
  | Span_open of { span : span; at : float; attrs : (string * Json.t) list }
  | Span_close of { span : span; at : float; attrs : (string * Json.t) list }
  | Point of {
      name : string;
      at : float;
      in_span : int option;
      attrs : (string * Json.t) list;
    }

val event_to_json : event -> Json.t
(** One flat object: [{"ev":"span_open"|"span_close"|"point",
    "name":..., "at":..., "span":id?, "parent":id?, "attrs":{...}}]. *)

(** {1 Sinks} *)

type sink

val memory_sink : ?capacity:int -> unit -> sink
(** Bounded ring (default capacity 65536); oldest events drop first. *)

val memory_events : sink -> event list
(** Captured events, oldest first.
    @raise Invalid_argument on a non-memory sink. *)

val jsonl_sink : out_channel -> sink
(** Writes {!event_to_json} of every event as one line. The channel is
    flushed per event (trace files must survive a crash mid-run). *)

val callback_sink : (event -> unit) -> sink

(** {1 The registry} *)

module Registry : sig
  type t

  val create : unit -> t

  val set_clock : t -> (unit -> float) -> unit
  (** Time source stamping trace events. Default: [Sys.time] (seconds
      of CPU time — monotonic and dependency-free). The simulator
      injects virtual time; tests inject fixed stamps. *)

  val now : t -> float

  (** Get-or-create by name. Re-requesting an existing name with the
      same instrument kind returns the existing instrument; a kind
      mismatch raises [Invalid_argument]. *)

  val counter : t -> string -> Counter.t

  val gauge : t -> string -> Gauge.t

  val histogram : ?edges:float list -> t -> string -> Histogram.t
  (** [edges] are fixed upper bucket edges (strictly increasing);
      default: a 1-2-5 geometric ladder from 1 to 1e6. Edges are fixed
      at first creation; a later call with different edges returns the
      existing histogram unchanged. *)

  val probe : t -> string -> (unit -> float) -> unit
  (** Register (or replace) a callback gauge: {!snapshot} reports the
      callback's current value, so derived quantities (propagation lag,
      active-transaction count) need no write-through bookkeeping. *)

  val remove : t -> string -> unit
  (** Drop an instrument or probe (e.g. when its job finishes). *)

  val find : t -> string -> value option

  val snapshot : t -> (string * value) list
  (** Every instrument and probe, {b sorted by name} — Hashtbl iteration
      order never leaks into output, so fixed-seed dumps diff clean. *)

  val zero : t -> unit
  (** Reset counters, gauges and histograms to zero (probes are
      callbacks and have nothing to reset). Instruments stay
      registered. *)

  val attach : t -> sink -> unit
  val detach : t -> sink -> unit

  val tracing : t -> bool
  (** Whether any sink is attached. Hot paths guard attribute building
      with this. *)
end

(** {1 Emitting} *)

val emit : Registry.t -> event -> unit
(** Deliver to every attached sink; a no-op without sinks. Callers on
    hot paths should guard with {!Registry.tracing} so the event (and
    its attribute list) is never even built. *)

val point :
  Registry.t -> ?in_span:span -> string -> (string * Json.t) list -> unit
(** Emit a {!Point} stamped with the registry clock. *)

val span_open :
  Registry.t -> ?parent:span -> ?attrs:(string * Json.t) list -> string -> span
(** Allocate a span id (ids are per-registry and deterministic) and
    emit {!Span_open}. Cheap when not tracing. *)

val span_close :
  Registry.t -> ?attrs:(string * Json.t) list -> span -> unit
