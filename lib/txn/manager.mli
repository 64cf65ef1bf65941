(** The transaction manager.

    Strict two-phase locking over {!Nbsc_lock.Lock_table}, write-ahead
    logging of every operation with redo+undo information, rollback via
    compensating log records (CLRs) per ARIES — the substrate the paper
    assumes (Sec. 1). The manager is cooperative: a conflicting lock
    makes an operation return [`Blocked] instead of sleeping; callers
    (tests, the simulator) decide whether to retry or abort. Deadlock
    handling is the engine's, not the caller's: every block is
    registered in a waits-for graph ({!Nbsc_lock.Wait_graph}) covering
    the {e whole} atomic multi-resource request (base lock plus all
    extra-lock-hook requests — so Fig. 2 two-schema cycles are seen),
    and the configured victim policy ({!set_contention}) either lets
    the wait stand ([`Blocked]), sentences the requester ([`Deadlock],
    the transaction turns abort-only), or wounds another transaction —
    which the manager rolls back on the spot via the CLR machinery
    before retrying the request. Per-resource FIFO wait queues
    additionally refuse barging (a request conflicting with an earlier
    live waiter's pending lock blocks behind it), which keeps hot-spot
    retries from starving the longest waiter.

    Three hooks exist solely for the synchronization strategies:
    - {!mark_abort_only} — non-blocking abort forces transactions that
      were active on the source tables to roll back;
    - {!add_extra_lock_hook} — non-blocking commit requires each lock
      on a source record to also be taken on the implicated records of
      the transformed table and vice versa (Sec. 4.3);
    - {!freeze_tables} — blocking-commit synchronization refuses table
      access to transactions begun after the freeze point.

    Hooks and freezes compose: each in-flight transformation registers
    its own lock hook under a distinct id and freezes only its own
    source tables, so several schema changes can synchronize
    independently. *)

open Nbsc_value
open Nbsc_wal
open Nbsc_lock
open Nbsc_storage

type t

type txn_id = Log_record.txn_id

type status = Active | Committed | Aborted

type error =
  [ `Blocked of txn_id list   (** conflicting lock owners *)
  | `Deadlock of txn_id list
      (** this transaction was chosen as deadlock victim (payload: the
          cycle, or the blockers under wait-die); it is now abort-only
          — roll it back and retry from the top *)
  | `Latched of string        (** table latched by the transformation *)
  | `Frozen of string         (** table frozen for new transactions *)
  | `Duplicate_key
  | `Not_found
  | `No_table of string
  | `Txn_not_active
  | `Abort_only               (** transaction must roll back *)
  | `Key_update               (** update touches a primary-key column *)
  | `Disk_full ]
      (** the engine is degraded: a durable append hit [ENOSPC].
          Writes and commits are refused; reads and aborts proceed.
          Clears automatically once an append succeeds
          ({!clear_disk_full}, driven by the persist sink). *)

val create : ?log:Log.t -> ?obs:Nbsc_obs.Obs.Registry.t -> Catalog.t -> t
(** All manager counters ([txn.ops], [txn.commits], [txn.aborts],
    [txn.blocked], [txn.deadlocks], [txn.victims], the [txn.active],
    [wal.records], [wal.segments] and [wal.truncated_total] probes, the
    [storage.versions_live] probe and [storage.versions_reclaimed]
    counter, the [wal.low_water] gauge, and the wait graph's [lock.*]
    set) register
    in [obs] when given, or in a private registry otherwise. With a trace sink
    attached, the manager also emits [lock.wait], [txn.deadlock],
    [txn.wound], [txn.commit] and [txn.abort] points. *)

val obs : t -> Nbsc_obs.Obs.Registry.t
(** The registry the manager's instruments live in. *)

val log : t -> Log.t
val locks : t -> Lock_table.t
val latches : t -> Latch.t
val catalog : t -> Catalog.t

val wait_graph : t -> Wait_graph.t
(** The engine's waits-for graph and wait queues (stats, tests). *)

val set_contention :
  ?policy:Wait_graph.policy -> ?fairness:bool -> t -> unit
(** Tune deadlock handling: victim [policy] (default
    {!Wait_graph.Youngest_in_cycle} — pure detection, no aborts unless
    an actual cycle forms) and queue [fairness] (default [true]; set
    [false] to restore first-come-retry barging). *)

val is_victim : t -> txn_id -> bool
(** Whether this transaction was ever sentenced by deadlock handling —
    either told [`Deadlock] directly or wounded while holding a lock
    another transaction deadlocked on. Lets clients distinguish "my
    transaction died under me" from ordinary failures. *)

type isolation = [ `Read_committed | `Snapshot ]

val begin_txn : ?isolation:isolation -> t -> txn_id
(** Ids are strictly increasing — age for wait-die. Under [`Snapshot]
    (default [`Read_committed]) the transaction's reads resolve against
    the MVCC version chains as of its Begin LSN: no S locks, and
    latches/freezes — the blocking edges of every synchronization
    strategy — do not apply to its reads. Its writes still go through
    ordinary 2PL. *)

val bump_txn_ids : t -> above:txn_id -> unit
(** Ensure future ids are strictly greater than [above]. A database
    reopened over a retained log suffix must not hand out ids that
    collide with the previous incarnation's transactions (recovery and
    the resumed propagators group log records by id). *)

val status : t -> txn_id -> status
val is_active : t -> txn_id -> bool

val active_snapshot : t -> (txn_id * Lsn.t) list
(** Active transactions with the LSN of their first log record — the
    payload of a fuzzy mark (paper, Sec. 3.2). *)

val active_count : t -> int

(** {2 WAL retention}

    The in-memory log is kept bounded by truncating everything no one
    can still reach. Three constituencies hold references into the log:
    active transactions (rollback walks the undo chain back to the
    transaction's first LSN), long-lived cursors (a propagator catching
    a new table up from the recovery log — these must register via
    {!pin_wal}), and crash recovery (the suffix above the last durable
    checkpoint, {!set_durable_floor}). {!wal_low_water} is the minimum
    over all three; {!truncate_wal} cuts the log there. The manager
    re-checks automatically on the commit/abort path every few thousand
    live records, and {!Nbsc_engine.Persist} calls {!truncate_wal}
    after each checkpoint. An unregistered cursor gets no protection:
    its next access below the cut raises {!Log.Truncated}. *)

type pin

val pin_wal : t -> (unit -> Lsn.t) -> pin
(** Register a position callback (typically [Log.Cursor.position] of a
    live cursor). Records at or above the reported LSN survive
    truncation for as long as the pin is registered. *)

val unpin_wal : t -> pin -> unit
(** Drop a pin (idempotent). *)

val set_durable_floor : t -> Lsn.t -> unit
(** Records at or below [lsn] are durable on disk (snapshot +
    checkpoint) and not needed for crash recovery. Without a durable
    floor the log is treated as expendable history: an in-memory
    database keeps only what actives and pins require. *)

val wal_low_water : t -> Lsn.t
(** The first LSN that must be retained; [Lsn.next (Log.head log)]
    when nothing constrains truncation. *)

val truncate_wal : t -> Lsn.t
(** Truncate the log to {!wal_low_water} (freeing whole segments),
    update the [wal.low_water] gauge, run {!gc_versions}, and return
    the mark. *)

(** {2 MVCC} *)

val track_table : t -> Table.t -> unit
(** Wire the table's version-retention hint ({!Table.set_retain_hint})
    to this manager's "any snapshot transaction active?" state, so
    system overwrites on it skip version pushes while no snapshot
    could resolve them. [create] wires every table already in the
    catalog; the engine facade calls this for tables created later. *)

val oldest_snapshot : t -> Lsn.t option
(** The lowest snapshot LSN among active [`Snapshot] transactions. *)

val classify_version : t -> txn:int -> lsn:Lsn.t ->
  [ `At of Lsn.t | `Dead | `Live ]
(** Resolve a version stamp: [`At commit_lsn] for committed state
    (stamp 0 — system writes — commits at its own [lsn]), [`Live] for
    a still-active writer, [`Dead] for aborted or unknown writers. *)

val gc_versions : t -> int
(** Reclaim version-chain entries no active snapshot can reach, from
    every table in the catalog. The horizon is {!oldest_snapshot}, or
    the LSN past the log head when no snapshot is active.
    {!wal_low_water} does not enter it: only snapshot reads walk a
    chain, while rollback and recovery rebuild state from the WAL and
    checkpoint images. A propagator's pin therefore keeps log records,
    not versions. Returns the number of entries reclaimed (also
    accumulated in the [storage.versions_reclaimed] counter; live
    entries are visible via the [storage.versions_live] probe). Runs
    automatically with every {!truncate_wal}. *)

val insert : t -> txn:txn_id -> table:string -> Row.t -> (unit, error) result
val update : t -> txn:txn_id -> table:string -> key:Row.Key.t ->
  (int * Value.t) list -> (unit, error) result
val delete : t -> txn:txn_id -> table:string -> key:Row.Key.t ->
  (unit, error) result
val read : t -> txn:txn_id -> table:string -> key:Row.Key.t ->
  (Row.t option, error) result
(** Takes an S lock; [Ok None] if no record has this key. For a
    [`Snapshot] transaction: lock-free, resolves the committed version
    visible at the transaction's snapshot LSN (own writes included). *)

val read_dirty : t -> table:string -> key:Row.Key.t -> Row.t option
(** Lock-free read, for fuzzy scans and the consistency checker. *)

val commit : t -> txn_id -> (unit, error) result
val abort : t -> txn_id -> (unit, error) result
(** Rolls back by walking the undo chain, emitting CLRs; releases
    locks; writes Abort_begin / Abort_done. *)

(** {2 Group commit}

    The persist sink buffers encoded records; {!Log.sync} is the
    durability barrier that flushes them. [commit] raises the barrier
    once every [window] commits, so a batch shares one write+flush
    (and one low-water/truncation re-check) instead of paying one per
    record. The default window of 1 syncs at every commit — each ack
    implies durability, the classical contract. A larger window trades
    the durability of the last < window acked commits on a crash for
    throughput; recovery semantics are otherwise unchanged (the
    on-disk log is always a prefix of the in-memory log, and a lost
    suffix only ever holds records of unsynced transactions). *)

(** {2 Degraded mode: disk full}

    Set by the persist sink when a physical WAL append fails with
    [ENOSPC]; cleared by it when an append succeeds again. While the
    flag is up, {!insert}/{!update}/{!delete}/{!commit} return
    [`Disk_full] (before taking any lock) and the transformation
    executor pauses its quanta; {!read}, {!read_dirty} and {!abort}
    proceed — rollback only needs the in-memory log. *)

val set_disk_full : t -> unit
val clear_disk_full : t -> unit
val disk_full : t -> bool

val set_group_commit : t -> int -> unit
(** Set the batch window (>= 1). Shrinking it below the pending count
    flushes immediately. *)

val group_commit_window : t -> int

val flush_commits : t -> unit
(** Force the durability barrier now, regardless of the window — the
    explicit drain for quiesce points (shutdown, checkpoint, end of a
    bench phase). Observes the [engine.commit_batch_size] histogram. *)

val synced_commits : t -> int
(** Number of acknowledged commits known to be durable: total commits
    minus those still waiting for the group barrier. Commits become
    durable in commit order, so every commit whose ordinal is at or
    below this count survives a crash; the ones above it are the
    legal < window loss. *)

val mark_abort_only : t -> txn_id -> unit
val is_abort_only : t -> txn_id -> bool

val add_extra_lock_hook :
  t ->
  id:int ->
  (txn:txn_id -> table:string -> key:Row.Key.t -> mode:Compat.mode ->
   Lock_table_many.request list) ->
  unit
(** Register a lock hook under [id] (replacing any hook with the same
    id). Every record lock an operation takes is extended with the
    extra requests of all registered hooks; the whole set is acquired
    atomically or the operation blocks. *)

val remove_extra_lock_hook : t -> id:int -> unit

val freeze_tables : t -> string list -> unit
(** Transactions begun after this call get [`Frozen] on these tables;
    already-running ones proceed. Additive: freezes from several
    callers coexist; lift a freeze with {!unfreeze_tables}. *)

val unfreeze_tables : t -> string list -> unit
(** Lift the freeze on exactly these tables. *)

val add_post_op_hook :
  t -> id:int -> (txn:txn_id -> lsn:Lsn.t -> Log_record.op -> unit) -> unit
(** Register a post-op hook under [id] (replacing any hook with the
    same id). Hooks are called synchronously after every successful
    write operation — including the compensating inverses applied
    during rollback — the trigger mechanism of the Ronström-style
    comparator and the shadow-table audit log (the extra work runs
    inside the user transaction, which is exactly the overhead the
    paper's log-based method avoids). Several consumers may register
    concurrently; each removes only its own id. *)

val remove_post_op_hook : t -> id:int -> unit

val add_access_hook :
  t -> id:int -> (table:string -> key:Row.Key.t -> unit) -> unit
(** Register an access hook under [id] (replacing any hook with the
    same id). Called synchronously after every {e successful} keyed
    operation — reads included — with the table and key touched. The
    lazy-migration machinery uses this to migrate records on first
    access under the new schema. *)

val remove_access_hook : t -> id:int -> unit

(** Operation counts, for metrics. *)
module Stats : sig
  type counters = {
    ops : int;
    commits : int;
    aborts : int;
    blocked : int;
    deadlocks : int;   (** requests sentenced with [`Deadlock] *)
    victims : int;     (** transactions wounded (rolled back) for others *)
    lock_waits : int;  (** block events registered in the wait graph *)
  }

  val get : t -> counters
end

val pp_error : Format.formatter -> error -> unit
