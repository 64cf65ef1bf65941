(** Table latches.

    The synchronization step latches the source tables for one final
    log propagation iteration (paper, Sec. 3.4): while a table is
    latched, ongoing transactions attempting to operate on it pause.
    Latches are short-lived, exclusive and cover the whole table; they
    are held by a process id (the transformation), not by a
    transaction. *)

type t

type holder = int

val create : unit -> t

val try_latch : t -> holder:holder -> table:string -> bool
(** [true] if acquired (or already held by [holder]). *)

val try_latch_all : t -> holder:holder -> string list -> bool
(** Latch every table in the list, or none: on the first table held by
    another holder, the latches this call acquired are released again
    and the result is [false]. Tables [holder] already held before the
    call stay latched either way. *)

val unlatch : t -> holder:holder -> table:string -> unit
(** @raise Invalid_argument if [holder] does not hold the latch. *)

val unlatch_all : t -> holder:holder -> string list -> unit
(** Release the latches [holder] holds among the listed tables; the
    others, unlatched or held by another holder, stay as they are. *)

val is_latched : t -> table:string -> bool

val latched_by : t -> table:string -> holder option

val latched_tables : t -> holder:holder -> string list
(** Tables on which [holder] holds the latch. *)
