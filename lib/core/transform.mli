(** The generic schema-change executor (paper, Sec. 3).

    A transformation is an incremental background process: build an
    operator with the {!Transformation} builders (the {e preparation
    step} — target tables, indexes, validation), hand it to {!create},
    then call {!step} repeatedly, interleaved with user transactions at
    whatever granularity the caller (application, test, or the
    simulator's priority scheduler) chooses. Each step performs one
    bounded {e quantum} of work:

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
    consistency) comes through the {!Transformation.S} contract. Each
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

(** Synchronization strategy, re-exported from {!Options.sync} so the
    constructors remain addressable as [Transform.Nonblocking_abort]
    etc. (the historical spelling). *)
type strategy = Options.sync =
  | Blocking_commit
      (** block newcomers, let current transactions finish, then switch
          — violates the non-blocking requirement; the paper's foil *)
  | Nonblocking_abort
      (** latch briefly, switch, force transactions that were active on
          the sources to abort *)
  | Nonblocking_commit
      (** latch briefly, switch, let source transactions continue under
          two-schema locking (Fig. 2) until they finish *)

type config = {
  scan_batch : int;       (** source records per population quantum *)
  propagate_batch : int;  (** log records per propagation quantum *)
  analysis : Analysis.policy;
      (** the iteration analysis deciding when to attempt
          synchronization (paper, Sec. 3.3; see {!Analysis.policy}) *)
  strategy : strategy;
  drop_sources : bool;    (** drop source tables when done *)
  sync_gate : unit -> bool;
      (** consulted before entering synchronization; return [false] to
          keep propagating (e.g. the DBA wants the switch-over during
          off-hours, or an experiment wants a steady propagation
          phase). Default: always true. *)
  pace : Governor.t option;
      (** anti-starvation governor (see {!Governor}). The executor
          feeds it the propagation lag each quantum and scales its
          batch limits with the gain; priority schedulers (the
          simulator) additionally multiply the transformation's CPU
          share by [Governor.gain]. One governor per transformation
          run — instances are mutable and must not be shared.
          Default: [None] (static pacing, Fig. 4(d) behaviour). *)
}

val default_config : config
(** [{ scan_batch = 256; propagate_batch = 256;
      analysis = Analysis.default; strategy = Nonblocking_abort;
      drop_sources = true; sync_gate = fun () -> true; pace = None }]

    @deprecated [config] predates {!Options.t}; new code should pass
    [?options] instead. [config] remains as a thin subset — it cannot
    express the migration strategy or the population scan. *)

val config_of_options : Options.t -> config
(** Project the one-record options onto the legacy [config] subset
    (drops [strategy]/[population]). *)

val options_of_config : config -> Options.t
(** Embed a legacy [config] into {!Options.t} with the remaining
    fields at their defaults ([Eager], [Fuzzy]) — the upgrade path for
    callers still building [config] values. *)

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

(** Where a crashed executor left off, per the durable job state the
    recovery report surfaced. Used by {!resume}; exposed for tests. *)
type resume_info = {
  r_phase : [ `Propagating | `Draining ];
      (** [`Propagating]: initial image complete, keep applying the log.
          [`Draining]: already switched to the targets; finish the log
          tail and finalize. (An executor that crashed during population
          restarts from scratch instead — see {!resume}.) *)
  r_position : Nbsc_wal.Lsn.t;
      (** log position the rebuilt propagator reads from *)
  r_skip : Manager.txn_id list;
      (** loser transactions recovery rolled back without logging —
          their records must not be applied to the targets *)
}

val create :
  Nbsc_engine.Db.t -> ?config:config -> ?options:Options.t ->
  ?resume:resume_info -> ?job_name:string -> Transformation.packed -> t
(** Wrap any {!Transformation.S} operator in an executor and register
    it as a background job on the database. When the operator is
    persistable ({!Transformation.S.spec_payload}), the executor also
    journals a [Job_state] record and registers a persist thunk so
    checkpoints keep the durable state current. [resume] starts the
    executor mid-lifecycle instead of at population; [job_name] pins
    the registry name (resume keeps the crashed job's name so the
    durable [Job_state]/[Job_done] chain stays coherent).

    [options] ({!Options.t}) supersedes [config] when given. Under
    [options.strategy = Lazy | Hybrid _] the executor runs
    demand-driven migration: an access hook in the transaction
    manager transforms each source record on first touch, and the
    propagator doubles as a background sweeper over the cold records
    ([Lazy]: one per quantum; [Hybrid { sweep_quantum }]: that many).
    The populating phase ends when the sweep has visited every record;
    everything after (propagation, synchronization, crash resume) is
    strategy-independent. A lazy job that crashes while populating
    restarts from scratch on resume, exactly like an eager one — the
    sweep is a fuzzy scan and both are idempotent. *)

(** {2 Convenience constructors for the paper's operators}

    [foj db spec] = [create db (Transformation.foj db spec)], etc.

    @deprecated These raw constructors predate the managed façade.
    New code should go through [Nbsc_core.Db.Schema_change.start],
    which validates the spec into a [result] instead of raising,
    returns a handle with status/cancel, and keeps error reporting in
    {!Nbsc_error.t}. They remain for tests and for callers that need
    the bare executor. *)

val foj :
  Nbsc_engine.Db.t -> ?config:config -> ?options:Options.t -> Spec.foj -> t

val split :
  Nbsc_engine.Db.t -> ?config:config -> ?options:Options.t -> Spec.split -> t

val hsplit :
  Nbsc_engine.Db.t -> ?config:config -> ?options:Options.t -> Spec.hsplit -> t

val merge :
  Nbsc_engine.Db.t -> ?config:config -> ?options:Options.t -> Spec.merge -> t

val step : t -> [ `Running | `Done | `Failed of string ]
(** One bounded quantum of background work. *)

val run : ?between:(unit -> unit) -> t -> (unit, string) result
(** Drive to completion, invoking [between] between steps so callers
    can interleave user transactions. *)

val phase : t -> phase
val progress : t -> progress

val routing : t -> [ `Sources | `Targets ]
(** Which schema version new transactions should use — flips exactly at
    the synchronization point. *)

val sources : t -> string list
val targets : t -> string list

val name : t -> string
(** The operator's short name ("foj", "split", ...). *)

val job_name : t -> string
(** The unique name this executor registered in the {!Db} job
    registry, e.g. ["foj#1000000001"]. *)

val counters : t -> (string * int) list
(** The operator's labelled counters (see {!Transformation.S.counters}). *)

val migration : t -> Options.migration
(** The migration strategy this executor runs under. *)

val demand_migrations : t -> int
(** Records migrated by the access hook (first-touch demand migration)
    — 0 under [Eager]. *)

val resume :
  ?config:config -> ?options:Options.t -> Persist.t ->
  (t list, Nbsc_error.t) result
(** Rebuild and re-register every schema-change job that was in flight
    when the (re)opened database crashed ({!Persist.pending_jobs}).

    A job whose initial population had finished resumes from its last
    checkpointed propagator position — the source tables are {e not}
    re-scanned; the retained WAL suffix is applied instead (skipping
    recovery's loser transactions). A job still populating, or whose
    durable state cannot cover a resume (targets missing from the
    snapshot, position behind the retained log), drops its half-built
    targets and restarts from scratch. Errors on a payload that cannot
    be decoded.

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
