(** Ordered (range-capable) secondary indexes.

    The hash indexes of {!Index} answer equality probes — all the
    propagation rules need. An ordered index additionally answers range
    queries in key order (balanced-tree map underneath), which the SQL
    layer uses for range predicates. Same non-unique semantics:
    projection of the row onto the indexed columns maps to the set of
    primary keys carrying it. *)

open Nbsc_value

type t

val create : name:string -> positions:int list -> t
val name : t -> string
val positions : t -> int list

val touches : t -> (int * Value.t) list -> bool
(** Whether a change list mentions any indexed column (see
    {!Index.touches}). *)

val insert : t -> key:Row.Key.t -> Row.t -> unit
val remove : t -> key:Row.Key.t -> Row.t -> unit

val lookup : t -> Row.Key.t -> Row.Key.t list

val range :
  t -> ?lo:Row.Key.t * bool -> ?hi:Row.Key.t * bool -> unit -> Row.Key.t list
(** Primary keys of rows whose projection lies within the bounds, in
    ascending projection order. Each bound is [(value, inclusive)];
    omitted bounds are open-ended. *)

val cardinality : t -> int
