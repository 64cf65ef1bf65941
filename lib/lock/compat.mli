(** Lock modes and compatibility, including the paper's Figure 2.

    During the non-blocking synchronization strategies, locks held on
    the source tables R and S are {e transferred} to the transformed
    table T. Two transferred locks never conflict with each other —
    their conflicts were already resolved by the concurrency controller
    of the source tables, and operations on R and S touch disjoint
    attributes of T. They do conflict with locks taken natively on T by
    new transactions (paper, Sec. 4.3, Fig. 2). We model this with a
    {e provenance} on every lock. *)

type mode = S | X

(** Where a lock on a record came from. [Source i] marks a lock
    transferred from source table number [i] (0 for R, 1 for S; the
    index only matters for printing — all transferred locks are
    mutually compatible). *)
type provenance = Native | Source of int

type lock = {
  mode : mode;
  provenance : provenance;
}

val standard : mode -> mode -> bool
(** The ordinary S/X matrix: only S/S is compatible. *)

val compatible : lock -> lock -> bool
(** The Figure 2 matrix, generalized: transferred locks are mutually
    compatible; a native lock and a transferred lock are compatible
    only if both are shared; two native locks follow {!standard}. *)

val pp_lock : Format.formatter -> lock -> unit

val figure2_cells : unit -> bool list list
(** The 6x6 matrix of {!compatible} over the six lock classes in the
    paper's row/column order, R.r, S.r, T.r, R.w, S.w, T.w — tests
    check this equals the 36 cells printed in the paper. *)

val pp_figure2 : Format.formatter -> unit -> unit
(** Render the matrix like the paper's Figure 2. *)
