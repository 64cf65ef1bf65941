(** The table catalog.

    Name -> table mapping with create/drop/rename. The final step of a
    transformation drops the source tables and (for the rename-based
    split variant of Sec. 5.2) renames tables; new transactions resolve
    names through the catalog, which is how the switch-over to the
    transformed tables happens. *)

open Nbsc_value

type t

val create : unit -> t

val create_table :
  t -> ?size:int -> ?indexes:(string * string list) list -> name:string ->
  Schema.t -> Table.t
(** [size] is {!Table.create}'s capacity hint.
    @raise Invalid_argument if the name is taken. *)

val add : t -> Table.t -> unit
(** Register an externally created table.
    @raise Invalid_argument if the name is taken. *)

val find : t -> string -> Table.t
(** @raise Not_found *)

val find_opt : t -> string -> Table.t option
val mem : t -> string -> bool

val drop : t -> string -> unit
(** @raise Not_found *)

val rename : t -> old_name:string -> new_name:string -> unit
(** The table keeps answering to its internal name for log purposes;
    only the catalog binding moves.
    @raise Not_found / Invalid_argument on missing source / taken
    target. *)

val names : t -> string list
val tables : t -> Table.t list
