(** Schema-change options — the one knob record.

    Every knob of a change lives here: batch sizes, the lag at which
    synchronization starts, the synchronization strategy, and how the
    initial image is built. [Db.Schema_change.start] validates
    one value and hands it to both {!Transformation.of_spec} and
    {!Transform.create}; {!Transform.resume} takes the same record.
    Two orthogonal strategy axes:

    - {!sync} — how the final switch-over synchronizes with in-flight
      transactions (the paper's three strategies, Sec. 3.4);
    - {!migration} — how the initial image reaches the target tables:
      - [Eager]: the classical fuzzy-scan population (paper, Sec. 3.2);
        records are copied up front, at [scan_batch] records per
        quantum.
      - [Lazy]: records migrate on first access under the new schema
        (SLSM-style); the background sweep visits cold records at the
        minimum rate of one per quantum so the change still completes
        on an idle system.
      - [Hybrid { sweep_quantum }]: lazy demand migration plus a
        background sweep of [sweep_quantum] cold records per quantum —
        the dial between "all cost up front" and "all cost on access".

    Migration strategy choice never changes the final relational
    contents — only {e when} each record pays its transformation cost.
    Under [Lazy]/[Hybrid] the executor's interceptor carries an access
    callback while the change is populating; a record touched by any
    transaction then is transformed immediately (idempotently — the
    log propagation re-applies at the same LSN and is ignored). *)

(** The paper's three synchronization strategies (Sec. 3.4). *)
type sync =
  | Blocking_commit
      (** block newcomers, let current transactions finish, then switch
          — violates the non-blocking requirement; the paper's foil *)
  | Nonblocking_abort
      (** latch briefly, switch, force transactions that were active on
          the sources to abort *)
  | Nonblocking_commit
      (** latch briefly, switch, let source transactions continue under
          two-schema locking (Fig. 2) until they finish *)

type migration = Eager | Lazy | Hybrid of { sweep_quantum : int }

type t = {
  scan_batch : int;       (** source records per eager population quantum *)
  propagate_batch : int;  (** log records per propagation quantum *)
  sync_lag : int;
      (** the iteration analysis (paper, Sec. 3.3): synchronization
          starts once the propagator is at most this many log records
          behind the head. The paper also names the last iteration's
          time and an estimated remaining time as bases; a decision
          record (EXPERIMENTS.md, "Ablations") found that neither
          latches a shorter interval than this count. *)
  sync : sync;            (** switch-over synchronization strategy *)
  strategy : migration;   (** initial-image migration strategy *)
  drop_sources : bool;    (** drop source tables when done *)
  sync_gate : unit -> bool;
      (** consulted before entering synchronization; return [false] to
          keep propagating (e.g. to hold the switch-over for off-hours,
          or to keep an experiment in steady propagation) *)
}

val default : t
(** [{ scan_batch = 256; propagate_batch = 256;
      sync_lag = 8; sync = Nonblocking_abort;
      strategy = Eager; drop_sources = true;
      sync_gate = (fun () -> true) }] — the paper's eager
    fuzzy population, synchronized by non-blocking abort. *)

val validate : t -> (t, Nbsc_error.t) result
(** Reject records whose numeric knobs cannot drive the quantum loop:
    [scan_batch] and [propagate_batch] must be at least 1, and a
    [Hybrid] sweep quantum must be at least 1. Also reject a negative
    [sync_lag]: lag is never negative, so synchronization would never
    start. String parsers catch bad values at the parse boundary, but
    options records built with record update syntax bypass the
    parsers, so [Db.Schema_change.start], {!Transform.create} and
    {!Transform.resume} call this before they build anything. *)

val check : t -> t
(** [validate], raising {!Nbsc_error.Error} on rejection. *)

val migration_of_string : string -> migration option
(** ["eager"], ["lazy"], ["hybrid"] (sweep quantum 32) or ["hybrid:N"]. *)

val migration_to_string : migration -> string
