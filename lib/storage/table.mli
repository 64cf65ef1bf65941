(** Heap tables.

    A table is a heap of {!Record.t} keyed by primary key, plus any
    number of secondary indexes kept in sync on every mutation. All
    mutators take the LSN of the log record that caused them — storage
    itself never talks to the log.

    The {b fuzzy cursor} implements the lock-free scan of Hvasshovd et
    al. used by the initial population step: it walks the heap in
    insertion order in bounded batches so user transactions can
    interleave; concurrent updates may or may not be observed, which is
    exactly the fuzziness the log propagation must absorb. *)

open Nbsc_value
open Nbsc_wal

type t

val create : ?size:int -> ?indexes:(string * string list) list ->
  name:string -> Schema.t -> t
(** [create ~name schema ~indexes] where each index is
    [(index_name, column_names)]. A name whose columns resolve to the
    same positions, in the same order, as an earlier name's shares that
    name's index: T's [by_s_key] and [by_join] are one index whenever
    S's key is the join column. Every name answers lookups and stays in
    {!index_definitions}.

    [size] is a capacity hint, like [Hashtbl.create]'s argument: the
    heap, the arrival array and every index start with room for about
    that many rows, so filling the table up to it never rehashes or
    regrows. A schema change passes an upper bound of each target's
    final size, read from its sources when it starts. The heap and
    arrival array start at 1 024 and each index at 256 buckets, or at
    [size] when it is larger; user tables, bulk loads and snapshot
    restore pass none.
    @raise Invalid_argument on unknown index columns. *)

val name : t -> string
val schema : t -> Schema.t
val cardinality : t -> int

val key_of_row : t -> Row.t -> Row.Key.t

val find : t -> Row.Key.t -> Record.t option
val mem : t -> Row.Key.t -> bool

val insert : t -> lsn:Lsn.t -> ?txn:int -> ?counter:int -> ?flag:Record.flag ->
  ?aux:int -> Row.t -> (unit, [ `Duplicate_key ]) result
(** [txn] stamps the record's writer for MVCC visibility; the default 0
    means "committed at [lsn]" (system, bulk-load and restore writes). *)

val update : t -> lsn:Lsn.t -> ?txn:int -> key:Row.Key.t ->
  (int * Value.t) list -> (Record.t, [ `Not_found ]) result
(** Returns the {e new} record. Updating key columns re-keys the heap
    (fails [`Duplicate_key] is impossible here: callers that change key
    columns must delete+insert instead — the engine enforces this; the
    transformation rules never update T's key columns in place except
    through their own delete/insert logic).
    @raise Invalid_argument if the changes touch a key column. *)

val set_record : t -> key:Row.Key.t -> Record.t ->
  (unit, [ `Not_found ]) result
(** Replace a record wholesale, preserving the key (used by the split
    rules to adjust counter/flag/LSN in one step).
    @raise Invalid_argument if the new row has a different key. *)

val delete : t -> lsn:Lsn.t -> ?txn:int -> Row.Key.t ->
  (Record.t, [ `Not_found ]) result
(** Returns the deleted record. [lsn]/[txn] stamp the delete tombstone
    pushed onto the key's version chain. *)

(** {2 Version chains (MVCC)}

    Every mutation pushes the overwritten record state onto the key's
    version chain (deletes additionally push a tombstone), so snapshot
    readers can resolve the row image as of an older LSN without any
    lock. Storage records stamps verbatim; commit-LSN resolution — which
    transaction stamp means "committed where" — belongs to the caller
    ({!Nbsc_txn.Manager}), which supplies it to {!prune_versions} as a
    classifier. Nothing here walks every chain: the manager prunes one
    key's chain at a time, when the transaction that pushed on it
    finishes or when the key's queue entry drains. A table's chains are
    reclaimed from the time a manager sets its policy
    ({!set_version_policy}); a bare table keeps every version. *)

val set_version_policy :
  t -> retain:(unit -> bool) -> defer:(Row.Key.t -> Lsn.t -> unit) -> unit
(** [retain] is the version-retention hint for {e system} (txn = 0)
    overwrites, which commit at their own LSN: when it returns [false]
    the overwritten state is not pushed — a snapshot beginning later
    pins at a higher LSN and reads the new heap record directly, so only
    a snapshot already active at overwrite time could need it. The
    transaction manager wires it to "is any snapshot transaction
    active?", which makes bulk population/propagation writes free of
    version churn on a snapshot-less system. User-transaction
    overwrites always push regardless of the hint (their heap record
    stays invisible until commit), as do deletes of keys that already
    carry a chain (the tombstone must shadow stale entries). A hidden
    table ({!hide}) ignores the hint: its system overwrites never
    push.

    [defer key lsn] asks the caller to queue [key] for pruning once no
    snapshot below [lsn] is live. The table calls it when a system
    overwrite pushes onto a chain (with the write's LSN), when
    {!defer_versions} asks, and when {!prune_versions} leaves entries
    behind — in each case only while the chain is not queued already,
    so each key has at most one queue entry. The caller must hand
    every entry back to {!prune_versions} with [~dequeued:true].
    Defaults: retain everything, queue nothing. *)

val hide : t -> unit
(** Hide the table from snapshot readers until {!reveal}. A change's
    targets are hidden from the start of the change until it is
    done. While hidden, system (txn = 0) overwrites push no
    version, whatever [retain] says: no snapshot can read the table
    before the reveal, and a snapshot that begins after it finds every
    earlier write stamped below its begin, so it never needs a state
    one of them overwrote. User writes and deletes over an existing
    chain push as on any table. *)

val reveal : t -> from:Lsn.t -> unit
(** Make the table visible to snapshots whose begin LSN is [from] or
    higher, and lift {!hide}'s version gate. *)

val visible_at : t -> Lsn.t -> bool
(** Whether a snapshot that began at this LSN sees the table: always
    for a table never hidden, never while it is hidden. *)

(** One superseded row state. [v_row = None] is a delete tombstone. *)
type version = {
  v_row : Row.t option;
  v_lsn : Lsn.t;
  v_txn : int;
}

val versions : t -> Row.Key.t -> version list
(** The key's superseded states, newest first. The current heap record
    ({!find}) is not duplicated here — a visibility walk consults it
    first, then this chain. *)

val versions_count : t -> int
(** Total chain entries across all keys (the [storage.versions_live]
    gauge reads this). *)

val drop_versions : t -> Row.Key.t -> int
(** Reclaim the key's whole chain; returns the number of entries
    reclaimed. Only for a caller that knows no snapshot is live and no
    active transaction's stamp is on the chain or its heap record: a
    finishing writer, which held the key's write lock, with no snapshot
    open. *)

val defer_versions : t -> Row.Key.t -> lsn:Lsn.t -> unit
(** Queue the key's chain through the policy's [defer] at [lsn], unless
    it has no entries or is queued already. *)

val prune_versions :
  t ->
  Row.Key.t ->
  horizon:Lsn.t ->
  classify:(txn:int -> lsn:Lsn.t -> [ `At of Lsn.t | `Dead | `Live ]) ->
  dequeued:bool ->
  requeue:Lsn.t ->
  int
(** Reclaim the key's chain entries no snapshot at or above [horizon]
    can reach: entries of dead (aborted) transactions, and everything
    covered by a newer state committed at or below the horizon.
    [classify] resolves a stamp to [`At commit_lsn] (committed), [`Dead]
    or [`Live] (still active — always retained). [dequeued] says the
    call consumes the key's queue entry. Entries left behind queue the
    key at [requeue] unless it is queued already. Returns the number of
    entries reclaimed. The caller must pick [horizon] at or below the
    oldest active snapshot LSN. *)

val index_definitions : t -> (string * string list) list
(** Name and column list of every hash index (snapshots rebuild them
    from this — in full, so a restored index is always filled). *)

val ordered_index_definitions : t -> (string * string list) list

val add_ordered_index : t -> name:string -> columns:string list -> unit
(** Create an ordered (range-capable) index and backfill it. No-op if
    one with this name exists. @raise Not_found on unknown columns. *)

val ordered_range :
  t -> index:string -> ?lo:Row.Key.t * bool -> ?hi:Row.Key.t * bool -> unit ->
  Row.Key.t list
(** Primary keys whose indexed values lie within the bounds, ascending.
    @raise Not_found if the ordered index does not exist. *)

val add_index : t -> name:string -> columns:string list -> unit
(** Create a secondary index, sized from the table's cardinality, and
    fill it from current contents in this one call: a blocking build,
    as the blocking baselines use. A filled index over the same
    positions serves the new name instead, as in {!create}; snapshot
    restore comes through here, so a restored table shares indexes as
    the saved one did. No-op if a filled index with this name already
    exists; an index an abandoned {!Index_build} left partial is filled
    here. Schema changes build theirs online with {!Index_build}
    instead.
    @raise Not_found on unknown columns. *)

val index_lookup : t -> index:string -> Row.Key.t -> Row.Key.t list
(** Primary keys matching the given indexed values.
    @raise Not_found if the index does not exist.
    @raise Invalid_argument if an online build has not filled it yet:
    a partial index never answers. *)

val index_lookup_records : t -> index:string -> Row.Key.t ->
  (Row.Key.t * Record.t) list

val index_entries : t -> index:string -> (Row.Key.t * Row.Key.t) list
(** Every (indexed values, primary key) pair, sorted ({!Index.entries}):
    equal to a blocking build's exactly when the index is exact. Raises
    like {!index_lookup}. *)

val iter : t -> (Row.Key.t -> Record.t -> unit) -> unit
val fold : t -> init:'a -> f:('a -> Row.Key.t -> Record.t -> 'a) -> 'a
val to_rows : t -> Row.t list

val max_lsn : t -> Lsn.t
(** Highest record LSN in the table ([Lsn.zero] when empty). *)

val buckets : t -> (string * int) list
(** Current bucket counts: ["heap"] first, then every hash index by
    name. Read-only; tests use it to check that a sized table never
    rehashes. *)

val physical_indexes : t -> int
(** Number of hash indexes writes maintain: names that share an index
    count once. Read-only, for tests. *)

(** {2 Unknown-flagged records}

    The keys whose record carries {!Record.Unknown} (the split of
    possibly inconsistent data, paper Sec. 5.3). Every insert,
    set_record and delete keeps the set exact, so both reads are
    O(1). *)

val unknown_count : t -> int

val first_unknown : t -> (Row.Key.t * Record.t) option
(** One flagged record, [None] when none is flagged. Deterministic for
    a given history of writes, but not tied to arrival or hash order. *)

val arrival_length : t -> int
(** Length of the arrival-order scan array, stale entries included.
    Kept within a constant factor of {!cardinality} under churn by
    opportunistic compaction, which runs only while no fuzzy cursor is
    live — an unclosed cursor blocks reclamation. *)

(** Lock-free incremental scan. *)
module Fuzzy_cursor : sig
  type table = t
  type t

  val make : table -> t
  (** Also marks the table as having a live cursor, which suspends
      arrival-array compaction until {!close}. The set of keys already
      reported starts with room for the table's current arrival
      length. *)

  val next_batch : t -> limit:int -> Record.t list
  (** Up to [limit] more records, walking at most [4 * limit] arrival
      slots: slots of deleted keys yield nothing, so a batch may be
      short, or empty, before the end. Records inserted after the
      cursor's position may or may not be seen; each key is reported
      at most once per scan. Only {!finished} says the scan is
      complete. *)

  val finished : t -> bool

  val position : t -> int
  (** Arrival slots walked so far, stale ones included. *)

  val scanned : t -> int

  val close : t -> unit
  (** Release the cursor (idempotent). Every cursor must be closed when
      its scan ends or is abandoned, or the table can never compact its
      arrival array. The cursor must not be used afterwards. *)
end

(** Online index build (Mohan & Narang, SIGMOD 1992), the paper's fuzzy
    read applied to an index: register the index empty, so that every
    write from then on maintains it, and fill it from a fuzzy scan in
    bounded steps. Each step inserts the current projection of the live
    records it reaches; on one thread a set insert commutes with write
    maintenance, so when the scan finishes the index equals a blocking
    build. Until then {!index_lookup} refuses it. *)
module Index_build : sig
  type table = t
  type t

  val start : table -> name:string -> columns:string list -> t
  (** Register the index, sized from the table's cardinality, and open
      the scan. The build fills an index of its own, never one that
      another name's index already serves. Adopts an existing index of
      that name: a partial one is filled again by this build; a filled
      one leaves nothing to do.
      @raise Not_found on unknown columns. *)

  val step : t -> limit:int -> bool
  (** Insert the current projections of up to [limit] more live
      records, walking at most [4 * limit] arrival slots, like
      {!Fuzzy_cursor.next_batch}; [true] once the index is filled. *)

  val close : t -> unit
  (** Release the scan (idempotent). Closing before the fill finishes
      leaves the index partial: maintained, but refused to readers
      until another build or {!add_index} fills it. *)
end