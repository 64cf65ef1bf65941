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

val create : ?indexes:(string * string list) list -> name:string ->
  Schema.t -> t
(** [create ~name schema ~indexes] where each index is
    [(index_name, column_names)].
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
    ({!Nbsc_txn.Manager}), which supplies it to {!gc_versions} as a
    classifier. *)

val set_retain_hint : t -> (unit -> bool) -> unit
(** Version-retention hint for {e system} (txn = 0) overwrites, which
    commit at their own LSN: when the hint returns [false] the
    overwritten state is not pushed — a snapshot beginning later pins
    at a higher LSN and reads the new heap record directly, so only a
    snapshot already active at overwrite time could need it. The
    transaction manager wires this to "is any snapshot transaction
    active?", which makes bulk population/propagation writes free of
    version churn on a snapshot-less system. User-transaction
    overwrites always push regardless of the hint (their heap record
    stays invisible until commit), as do deletes of keys that already
    carry a chain (the tombstone must shadow stale entries). Default:
    always retain. *)

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

val gc_versions :
  t ->
  horizon:Lsn.t ->
  classify:(txn:int -> lsn:Lsn.t -> [ `At of Lsn.t | `Dead | `Live ]) ->
  int
(** Reclaim chain entries no snapshot at or above [horizon] can reach:
    entries of dead (aborted or unknown) transactions, and everything
    covered by a newer state committed at or below the horizon.
    [classify] resolves a stamp to [`At commit_lsn] (committed), [`Dead]
    or [`Live] (still active — always retained). Returns the number of
    entries reclaimed. The caller must pick [horizon] at or below the
    oldest active snapshot LSN. *)

val index_definitions : t -> (string * string list) list
(** Name and column list of every hash index (snapshots rebuild them
    from this). *)

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
(** Create a secondary index and backfill it from current contents
    (the transformation's preparation step adds a split-column index to
    the source table this way). No-op if an index with this name
    already exists.
    @raise Not_found on unknown columns. *)

val index_lookup : t -> index:string -> Row.Key.t -> Row.Key.t list
(** Primary keys matching the given indexed values.
    @raise Not_found if the index does not exist. *)

val index_lookup_records : t -> index:string -> Row.Key.t ->
  (Row.Key.t * Record.t) list

val iter : t -> (Row.Key.t -> Record.t -> unit) -> unit
val fold : t -> init:'a -> f:('a -> Row.Key.t -> Record.t -> 'a) -> 'a
val to_rows : t -> Row.t list

val max_lsn : t -> Lsn.t
(** Highest record LSN in the table ([Lsn.zero] when empty). *)

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
      arrival-array compaction until {!close}. *)

  val next_batch : t -> limit:int -> Record.t list
  (** Up to [limit] more records. Records inserted after the cursor's
      position may or may not be seen; each key is reported at most
      once per scan. An empty list means the scan is complete. *)

  val finished : t -> bool
  val scanned : t -> int

  val close : t -> unit
  (** Release the cursor (idempotent). Every cursor must be closed when
      its scan ends or is abandoned, or the table can never compact its
      arrival array. The cursor must not be used afterwards. *)
end
