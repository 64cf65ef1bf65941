(** The pluggable transformation interface.

    The paper's framework is generic: full outer join, vertical split,
    horizontal split and merge all follow the same
    fuzzy-scan -> log-redo -> synchronize lifecycle and differ only in

    + how the initial image is populated ([population]),
    + which redo rules propagate logged operations ([rules]),
    + how a lock on a source record projects onto the transformed
      tables and back ([lock_map] — the two-schema locking of the
      non-blocking commit strategy, Fig. 2),
    + whether a consistency checker must clear every record before
      synchronization (the rules' [cc], split of possibly-inconsistent
      data, Sec. 5.3).

    This module captures exactly that contract as one record, {!t}; the
    generic executor in {!Transform} owns the lifecycle state machine
    and never looks inside. Adding a new schema-change operator
    therefore means building a [t] — the executor, the simulator, the
    SQL front end and the CLI pick it up unchanged. *)

open Nbsc_value
open Nbsc_txn

(** How locks project across the schema change (paper, Sec. 4.3): a
    lock on a source record implicates target records (lock transfer,
    two-schema locking) and a lock on a target record implicates source
    records (the other direction of the Fig. 2 matrix). *)
type lock_map = {
  source_to_targets :
    table:string -> key:Row.Key.t -> (string * Row.Key.t) list;
  target_to_sources :
    table:string -> key:Row.Key.t -> (string * Row.Key.t) list;
}

(** The contract a schema-change operator fulfils. An operator is a
    table rewrite: all of its work happens in its population and its
    rules, and the executor calls it at no synchronization transition.
    Its sources (in provenance order: index [i] maps to
    [Compat.Source i]), its targets and its consistency checker are
    those of its [rules]. *)
type t = {
  name : string;
      (** Short operator name, e.g. ["foj"] — used for job registry ids
          and progress displays. *)
  spec_payload : string option;
      (** The operator's specification, encoded ({!Spec.encode}) so the
          executor can journal it and {!of_payload} can rebuild the
          operator after a crash. [None] marks a custom operator that
          cannot be rebuilt from data — its jobs restart from scratch
          rather than resume. *)
  population : Population.t;
      (** The bounded fuzzy-scan stepper for the initial image. *)
  rules : Propagator.rules;
      (** The redo rules the log propagator applies. *)
  lock_map : lock_map;
  counters : unit -> (string * int) list;
      (** Labelled operator counters ("applied", "ignored", "foreign",
          plus operator-specific ones like "migrations" or
          "collisions") — the uniform replacement for reaching into
          operator internals. *)
}

val start_propagator : Manager.t -> Propagator.rules -> Propagator.t
(** Write a fuzzy mark and open a log cursor at the first record of any
    transaction active at the mark (paper, Sec. 3.2) — the shared
    preparation tail of every transformation and of materialized-view
    maintenance. *)

val counter : t -> string -> int
(** [counter op name] reads one labelled counter, 0 when absent. *)

(** {2 The paper's operators}

    Each builder performs the preparation step (validate the spec,
    create target tables and indexes) and returns the operator.
    [transfer_locks] is true for schema changes and false for
    materialized views (the view never takes over from its sources).

    [options] is the one-record configuration ({!Options.t}): its
    [strategy = Lazy | Hybrid _] replaces the operator's eager
    population with the uniform demand scan — each source record's
    current state replayed through the propagation rules (LSN-gated, so
    double migration is a no-op). *)

val foj :
  ?transfer_locks:bool -> ?options:Options.t -> Nbsc_engine.Db.t ->
  Spec.foj -> t

val split : ?options:Options.t -> Nbsc_engine.Db.t -> Spec.split -> t

val hsplit : ?options:Options.t -> Nbsc_engine.Db.t -> Spec.hsplit -> t

val merge : ?options:Options.t -> Nbsc_engine.Db.t -> Spec.merge -> t

val of_spec : ?options:Options.t -> Nbsc_engine.Db.t -> Spec.any -> t
(** Prepare the spec's operator: {!foj}, {!split}, {!hsplit} or
    {!merge}. *)

val of_payload :
  ?options:Options.t -> Nbsc_engine.Db.t -> string -> (t, string) result
(** Rebuild an operator from an encoded specification ([spec_payload])
    — the crash-resume path. Unlike first-time preparation, the target
    tables may already exist (restored from the snapshot); they are
    reused when their schemas match and rejected otherwise. *)
