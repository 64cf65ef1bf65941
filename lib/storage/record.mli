(** Stored records.

    Besides the row itself, a stored record carries:
    - its {b LSN}: the LSN of the log record that produced its current
      state (used as the idempotence state identifier by fuzzy copy and
      by the split rules 8–11);
    - a {b counter}: the number of source rows a split S-record stands
      for (paper, Sec. 5, after Gupta et al.) — 1 for ordinary records;
    - a {b consistency flag}: Consistent/Unknown, used by the split of
      possibly-inconsistent data (paper, Sec. 5.3);
    - an {b aux} bitmap: opaque to storage; the FOJ transformation uses
      it to record which side(s) of the join a transformed record
      carries (r-part / s-part), disambiguating "joined with the NULL
      record" from an S record whose non-key attributes are genuinely
      NULL — a corner the paper leaves implicit. 0 means "unset";
    - a {b txn} stamp: the transaction that wrote this version, used by
      MVCC visibility. 0 is the committed-system sentinel — the version
      counts as committed at its own [lsn] (bulk loads, records restored
      from a snapshot, propagator/population writes, CLR restores). *)

open Nbsc_value
open Nbsc_wal

type flag = Consistent | Unknown

type t = {
  row : Row.t;
  lsn : Lsn.t;
  txn : int;
  counter : int;
  flag : flag;
  aux : int;
}

val make :
  ?txn:int -> ?counter:int -> ?flag:flag -> ?aux:int -> lsn:Lsn.t -> Row.t -> t
val with_row : t -> Row.t -> t
val with_lsn : t -> Lsn.t -> t
val with_txn : t -> int -> t
val with_counter : t -> int -> t
val with_flag : t -> flag -> t
val pp : Format.formatter -> t -> unit
