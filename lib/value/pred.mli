(** Row predicates.

    A small, serializable predicate language over named columns, used
    by the horizontal-split transformation (the "other relational
    operators" the paper's conclusion calls for), by selections in the
    SQL front end, and by tests. Compile against a schema once, then
    evaluate per row at array-index speed. *)

type op = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | True
  | False
  | Cmp of string * op * Value.t   (** column op constant *)
  | Is_null of string
  | And of t * t
  | Or of t * t
  | Not of t

val compile : Schema.t -> t -> (Row.t -> bool)
(** Resolve column names to positions.
    @raise Not_found on unknown columns.

    Comparison semantics are SQL-ish three-valued collapsed to bool:
    any [Cmp] against NULL (either side) is false; use [Is_null] to
    test for NULL explicitly. *)

val eval : Schema.t -> t -> Row.t -> bool
(** One-shot [compile] + apply (tests, small inputs). *)

val columns : t -> string list
(** Column names mentioned, without duplicates. *)

val encode : t -> string
(** Compact tagged encoding, exact inverse of {!decode}. Lets a
    predicate ride inside a durable resume payload (the horizontal
    split's partition predicate must survive a crash). *)

val decode : string -> t
(** @raise Failure on malformed input. *)

val pp : Format.formatter -> t -> unit
