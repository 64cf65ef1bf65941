(** The transaction manager.

    Strict two-phase locking over {!Nbsc_lock.Lock_table}, write-ahead
    logging of every operation with redo+undo information, rollback via
    compensating log records (CLRs) per ARIES — the substrate the paper
    assumes (Sec. 1). The manager is cooperative: a conflicting lock
    makes an operation return [`Blocked] instead of sleeping; callers
    (tests, the simulator) decide whether to retry or abort. Deadlock
    handling is the engine's, not the caller's: every block is
    registered in a waits-for graph ({!Nbsc_lock.Wait_graph}) covering
    the {e whole} atomic multi-resource request (base lock plus every
    interceptor's extra requests — so Fig. 2 two-schema cycles are
    seen). A wait that closes no cycle stands ([`Blocked]). One that
    closes a cycle kills the cycle's youngest member: the requester
    itself ([`Deadlock], the transaction turns abort-only), or another
    transaction, which the manager wounds — rolls back on the spot via
    the CLR machinery — before retrying the request. Per-resource FIFO
    wait queues always refuse barging (a request conflicting with an
    earlier live waiter's pending lock blocks behind it), which keeps
    hot-spot retries from starving the longest waiter.

    Changes reach into user operations only through {e interceptors}
    ({!intercept}): one record per in-flight change, registered under
    that change's holder id. A record may freeze tables for
    newcomers (blocking-commit synchronization, and every strategy
    once routing has switched), extend each record lock with the
    implicated records of the other schema (non-blocking commit's
    two-schema locking, Sec. 4.3), observe every write (the Ronström
    trigger and shadow-table baselines) and observe every keyed access
    (first-touch migration under the lazy strategies). Each change
    installs, replaces and {!release}s only its own record, so several
    changes synchronize independently, even over a shared source
    table: one change's finish never lifts another's freeze.
    {!mark_abort_only} (non-blocking abort forces transactions that
    were active on the sources to roll back) acts on a transaction,
    not an operation, and stays a plain call. *)

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
    [txn.blocked], [txn.deadlocks], [txn.victims], the [txn.active] and
    [txn.tracked] probes, the [wal.records], [wal.segments] and
    [wal.truncated_total] probes, the [storage.versions_live] and
    [storage.versions_pending] probes and [storage.versions_reclaimed]
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
(** Exact for every id this manager began, though finished transactions
    leave its transaction table: an aborted id is remembered as such,
    and any other finished id committed. An id it never began reads
    [Aborted]. *)

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
    update the [wal.low_water] gauge, and return the mark. It reclaims
    no version. *)

(** {2 MVCC} *)

val track_table : t -> Table.t -> unit
(** Wire the table's version policy ({!Table.set_version_policy}) to
    this manager: system overwrites on it skip version pushes while no
    snapshot transaction is active, and its chains queue for
    reclamation here. [create] wires every table already in the
    catalog; the engine facade calls this for tables created later. *)

val oldest_snapshot : t -> Lsn.t option
(** The lowest snapshot LSN among active [`Snapshot] transactions. *)

val reclaim_budget : int
(** Queue entries a writer's commit may drain per key it pushed
    versions on ({!gc_versions}). *)

val gc_versions : t -> int
(** Drain every queued chain whose queue LSN the horizon has passed,
    with no budget. The horizon is {!oldest_snapshot}, or the LSN past
    the log head when no snapshot is active. {!wal_low_water} does not
    enter it: only snapshot reads walk a chain, while rollback and
    recovery rebuild state from the WAL and checkpoint images. A
    propagator's pin therefore keeps log records, not versions.

    Versions are reclaimed as their writers finish; this call only
    hurries the queue. A writer's commit or abort prunes the chains of
    the keys it updated or deleted: with no snapshot active it drops
    them whole; otherwise an abort prunes its dead entries and a commit
    queues the keys at its commit LSN. System overwrites queue their
    keys at their own LSN, once per key while queued. Each later
    commit that pushed versions prunes up to {!reclaim_budget} queued
    keys per key it pushed on, in queue order, while the front entry's
    LSN is below the horizon; a chain a prune leaves non-empty is
    queued again at the log head. A read-only commit reclaims nothing.
    Returns the number of entries reclaimed (also accumulated in the
    [storage.versions_reclaimed] counter; live entries are visible via
    the [storage.versions_live] probe, queued keys via
    [storage.versions_pending]). {!Nbsc_engine.Persist} calls it after
    each checkpoint. *)

val insert : t -> txn:txn_id -> table:string -> Row.t -> (unit, error) result
val update : t -> txn:txn_id -> table:string -> key:Row.Key.t ->
  (int * Value.t) list -> (unit, error) result
val delete : t -> txn:txn_id -> table:string -> key:Row.Key.t ->
  (unit, error) result
val read : t -> txn:txn_id -> table:string -> key:Row.Key.t ->
  (Row.t option, error) result
(** Takes an S lock; [Ok None] if no record has this key. For a
    [`Snapshot] transaction: lock-free, resolves the committed version
    visible at the transaction's snapshot LSN (own writes included),
    and [`No_table] for a table not visible at that LSN
    ({!Table.visible_at}: a change's target, to a snapshot begun before
    the change was done). *)

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

val flush_commits : t -> unit
(** Force the durability barrier now, regardless of the window — the
    explicit drain for quiesce points (shutdown, checkpoint, end of a
    bench phase). Observes the [engine.commit_batch_size] histogram. *)

val synced_commits : t -> int
(** Number of acknowledged commits past the group barrier: total
    commits minus those still waiting for it. The barrier hands a
    batch to the OS and does not fsync it. Commits pass it in commit
    order, so every commit whose ordinal is at or below this count
    survives a process crash; the ones above it are the legal < window
    loss. An OS crash or a power loss can lose commits below the count
    too. *)

val mark_abort_only : t -> txn_id -> unit
val is_abort_only : t -> txn_id -> bool

(** {2 Interceptors} *)

type interceptor = {
  frozen : string list;
      (** Tables refused with [`Frozen] to transactions begun after
          this record's freeze began; transactions already running
          proceed, and snapshot reads ignore freezes. The cutoff is
          fixed when [frozen] becomes non-empty under an id, and kept
          by every replacement that still freezes something. *)
  extra_locks :
    (txn:txn_id -> table:string -> key:Row.Key.t -> mode:Compat.mode ->
     Lock_table_many.request list)
      option;
      (** Extra requests for every record lock an operation takes.
          The base lock and the extra requests of every interceptor
          are acquired atomically or the operation blocks, and the
          wait graph registers the whole set. *)
  on_write : (txn:txn_id -> lsn:Lsn.t -> Log_record.op -> unit) option;
      (** Called after every successful write, including the
          compensating inverses applied during rollback, and before
          any [on_access]. The extra work runs inside the user
          transaction, which is the overhead the paper's log-based
          method avoids. *)
  on_access : (table:string -> key:Row.Key.t -> unit) option;
      (** Called after every successful keyed operation, snapshot
          reads included, with the table and key touched; never
          during rollback. *)
}

val empty_interceptor : interceptor
(** Freezes nothing, adds no locks, observes nothing. *)

val intercept : t -> id:int -> interceptor -> unit
(** Install the interceptor under [id], replacing any record with the
    same id. Installing a record with no freeze and no callback
    releases [id]: an empty record counts as none, so an operation
    pays nothing for it. *)

val release : t -> id:int -> unit
(** Remove the interceptor under [id] (idempotent). Other ids'
    records, their freezes included, stay. *)

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
