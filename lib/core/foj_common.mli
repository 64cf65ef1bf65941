(** Shared machinery for the FOJ propagation rules.

    T rows are assembled from an R part, an S part, and the shared join
    attributes. A record that lacks one side stores NULLs in that
    side's carried columns — the paper's r-null / s-null records — and
    remembers which sides are real in the record's [aux] presence
    bitmap (bit 0: has an R part, bit 1: has an S part).

    All helpers work through a {!ctx}: the layout's positional mappings
    and projections compiled once (see {!Plan}) at operator
    construction, so the per-record rules do no name lookup and rebuild
    no lists. *)

open Nbsc_value
open Nbsc_wal
open Nbsc_storage

val r_bit : int
val s_bit : int

(** The compiled rule plan plus T-table handle. [layout] and [t_tbl]
    stay exposed: the lock maps and population scans reach through
    them. *)
type ctx = {
  layout : Spec.foj_layout;
  t_tbl : Table.t;
  route_r : Plan.route;
  route_s : Plan.route;
  route_r_join : Plan.route;
  p_r_carry : Plan.proj;
  p_s_carry : Plan.proj;
  p_s_carry_key : Plan.proj;
  p_t_r_key : Plan.proj;
  p_t_s_key : Plan.proj;
  p_t_join : Plan.proj;
  p_t_key : Plan.proj;
  p_r_key_in_r : Plan.proj;
  p_join_in_r : Plan.proj;
  p_s_key_in_s : Plan.proj;
  p_join_in_s : Plan.proj;
  t_arity : int;
}

val make_ctx : Catalog.t -> Spec.foj_layout -> ctx

val presence : ctx -> Record.t -> int
(** The record's presence bitmap; if [aux] is unset (a row inserted
    natively, not by the framework), derived from NULL-ness of the key
    columns. *)

val has_r : ctx -> Record.t -> bool
val has_s : ctx -> Record.t -> bool

val t_row_of_sources : ctx -> r:Row.t option -> s:Row.t option -> Row.t * int
(** Build a T row (and its presence) from source rows. Join columns
    come from whichever side is present (they agree when both are). *)

val strip_r : ctx -> Row.t -> Row.t
(** NULL out the R-carried columns (join columns keep the S side's
    value, which is equal). *)

val strip_s : ctx -> Row.t -> Row.t

val graft_r : ctx -> r:Row.t -> onto:Row.t -> Row.t
(** Copy an R source row's carried and join values onto a T row. *)

val graft_s : ctx -> s:Row.t -> onto:Row.t -> Row.t

val graft_s_from_t : ctx -> src:Row.t -> onto:Row.t -> Row.t
(** Copy the S part (carried columns) of T row [src] onto [onto]
    (used when a new R record joins an S part already present in T). *)

val graft_s_with_key : ctx -> src:Row.t -> onto:Row.t -> Row.t
(** {!graft_s_from_t} that also refreshes the S-key columns sitting in
    T — the many-to-many fill path. *)

val r_changes_to_t : ctx -> (int * Value.t) list -> (int * Value.t) list
(** Re-express positional changes on R in T coordinates (carried and
    join columns only; changes to columns not in T vanish). *)

val s_changes_to_t : ctx -> (int * Value.t) list -> (int * Value.t) list

val drop_t_key_changes : ctx -> (int * Value.t) list -> (int * Value.t) list
(** Drop changes landing on T's own key columns (rule 7's no-op join
    rewrites). *)

val r_join_dst : ctx -> int -> int option
(** Where an R join column lands in T, if it is a join column. *)

val r_join_changed : ctx -> (int * Value.t) list -> bool
(** Whether an R-side update touches a join column (rule 5 vs 7). *)

val s_join_changed : ctx -> (int * Value.t) list -> bool

(** {1 Key projections} *)

val r_key_of_r_row : ctx -> Row.t -> Row.Key.t
val join_of_r_row : ctx -> Row.t -> Row.Key.t
val s_key_of_s_row : ctx -> Row.t -> Row.Key.t
val join_of_s_row : ctx -> Row.t -> Row.Key.t
val t_key : ctx -> Row.t -> Row.Key.t
val r_key_of_t_row : ctx -> Row.t -> Row.Key.t
val s_key_of_t_row : ctx -> Row.t -> Row.Key.t
val join_of_t_row : ctx -> Row.t -> Row.Key.t

(** {1 T-table access}

    All mutators run at a given LSN and return the T keys they touched
    (the lock-transfer set for the synchronization strategies). *)

val by_r_key : ctx -> Row.Key.t -> (Row.Key.t * Record.t) list
val by_s_key : ctx -> Row.Key.t -> (Row.Key.t * Record.t) list
val by_join : ctx -> Row.Key.t -> (Row.Key.t * Record.t) list

val put : ctx -> lsn:Lsn.t -> presence:int -> Row.t -> Row.Key.t
(** Insert; raises on duplicate key (rule bugs must not pass silently). *)

val drop : ctx -> lsn:Lsn.t -> Row.Key.t -> Row.Key.t

val rekey : ctx -> lsn:Lsn.t -> old_key:Row.Key.t -> presence:int -> Row.t ->
  Row.Key.t list
(** Replace a record wholesale (delete + insert — T's heap key may
    change when a side is filled in or stripped). Returns both keys. *)
