(** The generic schema-change executor (paper, Sec. 3).

    A transformation is an incremental background process, configured
    by one {!Options.t} record. [Db.Schema_change.start] begins one: it
    validates the options and the spec, runs the operator's
    {e preparation step} ({!Transformation.of_spec}: target tables,
    indexes) and hands the operator to {!create}. The caller
    then calls {!step} repeatedly, interleaved with user transactions
    at whatever granularity it (application, test, or the simulator's
    priority scheduler) chooses. Each step performs one bounded
    {e quantum} of work:

    + {e initial population} — fuzzy (lock-free) scan of the sources,
      transformation operator applied, initial image inserted;
    + {e log propagation} — the redo rules of Sections 4 and 5,
      transferring source-transaction locks to the targets as it goes;
    + {e consistency checking} — until the operator's checker clears
      every record (split of possibly-inconsistent data, Sec. 5.3);
    + {e synchronization} — one of the paper's three strategies
      (Sec. 3.4), ending with the source tables dropped.

    The executor owns only this lifecycle state machine; everything
    operator-specific (population, redo rules, lock projection,
    consistency) comes through the {!Transformation.t} contract. Each
    executor also registers itself as a background job on its {!Db}, so
    several in-flight transformations interleave fairly under
    [Db.step_jobs] / [Db.run_jobs]; overlapping synchronizations
    serialize themselves by backing off when a source latch is held by
    another transformation.

    User transactions are never blocked except for the final latched
    propagation iteration, whose size {!progress} reports (the paper
    measures it under 1 ms). *)

open Nbsc_txn
open Nbsc_engine

(** In signatures below, [Db.t] is the engine's {!Nbsc_engine.Db.t} —
    the same type [Nbsc_core.Db.t] re-exports. *)

type phase =
  | Populating
  | Propagating
  | Checking        (** consistency checker active (split, Sec. 5.3) *)
  | Quiescing       (** blocking commit: waiting for old transactions *)
  | Draining        (** switched; old source transactions finishing *)
  | Done
  | Failed of string

type progress = {
  p_phase : phase;
  iterations : int;       (** times the propagator caught up with the log head *)
  scanned : int;          (** fuzzy-scanned source records *)
  produced : int;         (** initial-image rows written *)
  applied : int;          (** redo-rule applications (operator counter) *)
  propagated : int;       (** log records consumed *)
  lag : int;              (** log records still to consume *)
  locks_transferred : int;
  final_records : int;    (** size of the final latched iteration *)
  unknown_flags : int;    (** records the checker has not yet confirmed *)
  forced_aborts : int;    (** transactions killed by non-blocking abort *)
}

type t

val create : Nbsc_engine.Db.t -> ?options:Options.t -> Transformation.t -> t
(** Wrap any {!Transformation.t} operator in an executor and register
    it as a background job on the database. When the operator is
    persistable (its [spec_payload]), the executor also
    journals a [Job_state] record and registers a persist thunk so
    checkpoints keep the durable state current.

    For the paper's operators, [Db.Schema_change.start] is the front
    door: it validates first, refuses an existing target, and builds
    the operator with the same [options] it passes here. Call [create]
    directly for a custom operator, or for an operator a test built
    itself; pass the [options] it was prepared with.

    [options] defaults to {!Options.default}; an invalid record raises
    {!Nbsc_error.Error}. Under [options.strategy = Lazy | Hybrid _] the
    executor runs demand-driven migration: the access callback of its
    interceptor ({!Nbsc_txn.Manager.intercept}) transforms each source
    record on first touch, and each quantum steps the population as a
    background sweep over the cold records ([Lazy]: one per quantum;
    [Hybrid { sweep_quantum }]: that many). The populating phase ends
    when the sweep has visited every record; everything after
    (propagation, synchronization, crash resume) is
    strategy-independent. A lazy job that crashes while
    populating restarts from scratch on resume, exactly like an eager
    one — the sweep is a fuzzy scan and both are idempotent. *)

val step : t -> [ `Running | `Done | `Failed of string ]
(** One bounded quantum of background work. *)

val run : ?between:(unit -> unit) -> t -> (unit, string) result
(** Drive to completion, invoking [between] between steps so callers
    can interleave user transactions. *)

val phase : t -> phase
val progress : t -> progress

val routing : t -> [ `Sources | `Targets ]
(** Which schema version new transactions should use — flips exactly at
    the synchronization point. The targets stay hidden from snapshots
    ({!Nbsc_storage.Table.hide}) until the change is [Done], which makes
    them visible to snapshots that begin after it. *)

val sources : t -> string list
val targets : t -> string list

val name : t -> string
(** The operator's short name ("foj", "split", ...). *)

val job_name : t -> string
(** The unique name this executor registered in the {!Db} job
    registry, e.g. ["foj#1000000001"]. *)

val counters : t -> (string * int) list
(** The operator's labelled counters (see {!Transformation.t}). *)

val migration : t -> Options.migration
(** The migration strategy this executor runs under. *)

val demand_migrations : t -> int
(** Records migrated by the access callback (first-touch demand
    migration) — 0 under [Eager]. *)

val resume :
  ?options:Options.t -> Persist.t -> (t list, Nbsc_error.t) result
(** Rebuild and re-register every schema-change job that was in flight
    when the (re)opened database crashed ({!Persist.pending_jobs}).

    A job whose initial population had finished resumes from its last
    checkpointed propagator position — the source tables are {e not}
    re-scanned; the retained WAL suffix is applied instead (skipping
    recovery's loser transactions). A job still populating, or whose
    durable state cannot cover a resume (targets missing from the
    snapshot, position behind the retained log), drops its half-built
    targets and restarts from scratch. Errors on a payload that cannot
    be decoded, and with [`Invalid] on an invalid [options] record,
    before any job is touched.

    A resumed job hides its targets from snapshots again, until it is
    [Done].

    Pass the same [options] the crashed job ran under: the migration
    strategy is an execution policy, not part of the durable state, so
    the resumed executor re-derives it from [options] (a lazy job that
    crashed mid-sweep restarts its population — sweep and demand
    migration are idempotent, so re-converging is safe). *)

val abort : t -> unit
(** Stop the transformation: log propagation ceases, transformed tables
    are deleted, transferred locks dropped, latches and freezes lifted
    (paper, Sec. 6: "aborting the transformation simply means that log
    propagation is stopped, and the transformed tables are deleted").
    No effect once [Done]. *)

val pp_phase : Format.formatter -> phase -> unit
val pp_progress : Format.formatter -> progress -> unit

(** Access to the underlying machinery, for tests and benches. *)
val manager : t -> Manager.t
val checker : t -> Consistency.t option
