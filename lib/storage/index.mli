(** Secondary (non-unique) hash indexes.

    An index maps the projection of a row onto some column positions to
    the primary keys of the rows having that projection. The FOJ rules
    depend on an index over T's join attributes and over the S-key
    columns of T ("these indexes provide fast lookup on all T-records
    that are affected by an operation on an S-record", paper Sec. 4.1).

    Representation: one hash table from each indexed value to its keys.
    A value's keys sit in a list, at most 8 of them, that its entry
    updates in place, so adding a key to a value already indexed hashes
    the projection once and allocates one list cell. A ninth key moves
    them all to a hash set sized like a 4-element [Hashtbl] (16
    buckets), which the value keeps until its last key goes. An index
    has no name: a table may serve several index names with one index
    ({!Table.create}). *)

open Nbsc_value

type t

val create : size:int -> positions:int list -> t
(** [size] is a capacity hint, as for [Hashtbl.create]: about the
    number of distinct projections the index holds before it first
    rehashes. *)

val positions : t -> int list

val touches : t -> (int * Value.t) list -> bool
(** Whether a change list mentions any indexed column. An update whose
    changes don't touch the index leaves both projection and key
    unchanged, so maintenance can be skipped. *)

val insert : t -> key:Row.Key.t -> Row.t -> unit
(** Register [row] (whose primary key is [key]). Idempotent: a key
    already registered under the row's projection is not added
    twice. *)

val remove : t -> key:Row.Key.t -> Row.t -> unit
(** Unregister; must be called with the row as indexed. *)

val lookup : t -> Row.Key.t -> Row.Key.t list
(** Primary keys of all rows whose projection equals the given values,
    each once, in no specified order. For a value with at most 8 keys
    this is the index's own list, not a copy. *)

val entries : t -> (Row.Key.t * Row.Key.t) list
(** Every (projection, primary key) pair, sorted: two indexes over the
    same rows are equal exactly when their entries are. *)

val cardinality : t -> int
(** Number of distinct indexed values (for stats/tests). *)

val buckets : t -> int
(** Current bucket count of the projection table (tests check that a
    sized index never grows). *)
