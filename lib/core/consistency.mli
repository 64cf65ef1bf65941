(** The consistency checker (CC) for split of possibly-inconsistent
    data (paper, Sec. 5.3).

    When the DBMS does not enforce the functional dependency
    (split key -> other S columns), the initial image and concurrent
    updates can leave S records whose true value is ambiguous (the
    paper's Example 1: two customers with postal code 7050 but
    different city spellings). Such records carry an Unknown flag.

    The checker picks a U-flagged record s{_v}, logs "CC-begin v",
    dirty-reads every T record contributing to s{_v} (via the split
    index on T), and — if they agree — logs "CC-ok v" with the correct
    image. The {e propagator} applies the image only if nothing touched
    s{_v} between the two log records; otherwise the check is void and
    retried. Because T has to be read, split of inconsistent data is
    not self-maintainable (paper's closing remark of Sec. 5.3). *)

open Nbsc_value
open Nbsc_wal
open Nbsc_storage

type t

val create : Catalog.t -> Split.t -> log:Log.t -> t

val unknown_flags : t -> int
(** Records still flagged Unknown; the change may not synchronize until
    this reaches 0. *)

val step : t -> bool
(** Run one unit of checker work: either begin a check on some
    U-flagged record (logging CC-begin and performing the dirty read)
    or complete the previously begun check (logging CC-ok). Returns
    false when there was nothing to do (no U records and no check in
    flight). *)

(** {1 Propagator callbacks} *)

val note_touched : t -> (string * Row.Key.t) list -> unit
(** The propagator reports every target key its rules touched; a
    pending check on a touched key of the S table is invalidated. *)

val on_cc_begin : t -> Row.Key.t -> unit
val on_cc_ok : t -> lsn:Lsn.t -> Row.Key.t -> Row.t -> unit
(** Called when the propagator reaches the corresponding log records.
    [on_cc_ok] installs the image iff the check is still clean. *)

type stats = {
  mutable started : int;
  mutable confirmed : int;   (** image installed, flag now C *)
  mutable invalidated : int; (** dirtied between begin and ok *)
  mutable disagreed : int;   (** T records did not agree; retry later *)
}

val stats : t -> stats
