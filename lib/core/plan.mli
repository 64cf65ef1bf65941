(** Schema-compiled propagation plans.

    Every operator's propagation rules reduce to two positional
    primitives: a {e route} (a [(src_pos, dst_pos)] mapping that
    re-expresses rows or change lists of a source table in target
    coordinates) and a {e projection} (a position set used to extract
    keys, test membership, or NULL out one side's columns). The layouts
    in {!Spec} resolve column {e names} once; this module compiles the
    resulting position lists once more — at operator construction —
    into int arrays, so the per-record loop does no [List.assoc], no
    list rebuilding, and no redundant row copies.

    Each primitive behaves exactly as its list-walking definition over
    the position list it was compiled from ([List.assoc_opt] for a
    route, [List.mem] for a projection, [Row.update] for the fresh
    rows), results in the same order. Those definitions are written out
    in [test/test_plan.ml], whose property checks every primitive
    against them. *)

open Nbsc_value

(** {1 Routes} *)

type route

val route : (int * int) list -> route
(** Compile a [(src_pos, dst_pos)] mapping. On duplicate source
    positions the first pair wins (matching [List.assoc]). *)

val dst_of_src : route -> int -> int option

val changes_through : route -> (int * Value.t) list -> (int * Value.t) list
(** Re-express positional changes in destination coordinates, dropping
    changes whose position is not routed. Change order is preserved. *)

val graft : route -> src:Row.t -> onto:Row.t -> Row.t
(** Fresh row: [onto] with every routed position overwritten from
    [src], in pair order. *)

val blit : route -> src:Row.t -> dst:Value.t array -> unit
(** In-place variant of {!graft} for rows still under construction. *)

(** {1 Projections} *)

type proj

val proj : int list -> proj

val project : proj -> Row.t -> Row.Key.t
(** The row's values at the projected positions, in position order. *)

val touches : proj -> (int * Value.t) list -> bool
(** Whether any change lands on a projected position. *)

val filter_out : proj -> (int * Value.t) list -> (int * Value.t) list
(** Drop changes that land on a projected position. *)

val covered_by : proj -> (int * Value.t) list -> bool
(** Whether every projected position appears in the change list. *)

val null_out : proj -> Row.t -> Row.t
(** Fresh row with the projected positions set to NULL. *)

val any_non_null : proj -> Row.t -> bool

val graft_self : proj -> src:Row.t -> onto:Row.t -> Row.t
(** Fresh row: [onto] with the projected positions copied from [src]
    (same coordinates on both sides). *)
