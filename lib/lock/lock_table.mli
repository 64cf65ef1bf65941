(** Record-lock table.

    Tracks granted record locks per (table, key) resource. The engine
    is cooperative (single OS thread, interleaving driven by callers or
    the simulator), so [acquire] never sleeps: it either grants or
    reports the blockers, and the caller decides to retry, wait in the
    simulator, or die (wait-die is implemented by {!Nbsc_txn}).

    Lock {e transfer} for the non-blocking synchronization strategies is
    [acquire] with a [Source _] provenance — compatibility then follows
    the Figure 2 matrix (see {!Compat.compatible}).

    Layout (the textbook lock manager: Gray & Reuter, {e Transaction
    Processing}, ch. 8): one {e entry} per locked resource, found by a
    single hash and holding that resource's grant list, plus one list
    of entries per owner. Invariant: an owner's list names exactly the
    entries where it holds at least one grant, each once; an entry
    joins the list with the owner's first grant on it (read off the
    entry's own grants) and leaves it with the owner's last, and the
    entry itself leaves the table with its last grant. Costs: [acquire],
    [transfer], [holds], [holds_any] and [holders] hash the resource
    once and cost O(grants on that resource); [release] adds
    O(resources the owner holds) to keep the owner's list exact;
    [release_owner] and [release_owner_where] cost O(resources the
    owner holds) and rehash nothing; [locked_resources],
    [locked_resources_in] and [count] walk the whole table. *)

open Nbsc_value

type owner = int
(** Transaction id. *)

type t

type outcome =
  | Granted
  | Blocked of owner list  (** distinct conflicting owners *)

val create : unit -> t

val acquire :
  t -> owner:owner -> table:string -> key:Row.Key.t -> Compat.lock -> outcome
(** Re-acquiring an equal-or-weaker lock already held is a no-op grant;
    S-to-X upgrade succeeds iff no other owner holds a conflicting
    lock. A transaction's own locks never block it. *)

val transfer :
  t -> owner:owner -> table:string -> key:Row.Key.t -> Compat.lock -> bool
(** Unconditional grant, used only for lock {e transfer} by the log
    propagator: a transferred lock logically predates any native lock
    (the source operation executed first), so compatibility is not
    re-checked. Outside the narrow case of a compensating operation
    materializing a record a new transaction already locked, this is
    equivalent to [acquire] returning [Granted]. Returns [true] iff the
    call added coverage — the owner did not already hold a lock of the
    same provenance at least as strong (repeated transfers during
    re-propagation return [false] without rewriting the grant). *)

val holds :
  t -> owner:owner -> table:string -> key:Row.Key.t -> Compat.lock -> bool
(** Whether [owner] already holds a lock at least as strong (same
    provenance class, mode >= requested). *)

val holds_any : t -> owner:owner -> table:string -> key:Row.Key.t -> bool
(** Whether [owner] holds {e any} lock on the resource, of any mode or
    provenance — used by the wait-queue fairness check to exempt
    re-acquisition and upgrades from queueing behind other waiters. *)

val holders : t -> table:string -> key:Row.Key.t -> (owner * Compat.lock) list

val release : t -> owner:owner -> table:string -> key:Row.Key.t -> unit
(** Drop all locks [owner] has on the resource. *)

val release_owner : t -> owner:owner -> unit
(** Drop every lock of this owner (commit/abort). *)

val release_owner_where :
  t -> owner:owner -> (table:string -> lock:Compat.lock -> bool) -> unit
(** Selective release, e.g. dropping only the transferred locks a
    propagated abort record frees (paper, Sec. 3.4). *)

val locks_of_owner : t -> owner:owner -> (string * Row.Key.t * Compat.lock) list

val locked_resources : t -> table:string -> (Row.Key.t * owner * Compat.lock) list
(** Every granted lock on [table] (for tests and for lock transfer). *)

val locked_resources_in :
  t -> tables:string list -> (string * Row.Key.t * owner * Compat.lock) list
(** Every granted lock on any of [tables], gathered in a single pass
    over the grants table — callers with several tables of interest
    (lock transfer across a transformation's sources) must not pay one
    full fold per table. *)

val count : t -> int
(** Total granted locks (for metrics). *)

(** {2 One lookup per request}

    For callers that check a resource and then grant on it
    ({!Lock_table_many.acquire_all}): look the entry up once, then test
    and grant through it. An entry stays valid until the next release
    touching its resource. *)

type entry

val entry : t -> table:string -> key:Row.Key.t -> entry
(** The resource's entry, or a detached empty one that joins the table
    with its first grant. Two lookups of one resource made before
    either is granted on must not both be granted on: reuse the
    first. *)

val entry_blockers : entry -> owner:owner -> Compat.lock -> owner list
(** The owners whose grants conflict with the lock, unsorted and
    possibly repeated; empty iff {!acquire_entry} would grant. *)

val entry_holds_any : entry -> owner:owner -> bool
(** {!holds_any} through a looked-up entry. *)

val acquire_entry : t -> entry -> owner:owner -> Compat.lock -> outcome
(** {!acquire} through a looked-up entry. *)

val release_entry : t -> entry -> owner:owner -> unit
(** {!release} through a looked-up entry. *)
