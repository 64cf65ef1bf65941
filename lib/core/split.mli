(** Split log propagation — the paper's Rules 8–11 (Sec. 5.2) with the
    consistency-flag maintenance of Sec. 5.3.

    Unlike FOJ, split uses record LSNs as state identifiers: the LSNs
    R records inherit from the fuzzy read of T identify exactly which
    logged operations are already reflected. Each S record carries a
    reference counter (after Gupta et al.) counting the T rows it
    stands for, and — when the DBMS does not guarantee consistency — a
    C/U flag driven by the events of Sec. 5.3. *)

open Nbsc_value
open Nbsc_wal
open Nbsc_storage

type t

val create : Catalog.t -> Spec.split_layout -> t
(** Compile the layout's rule plan (see {!Plan}) against the catalog's
    R and S tables. *)

val layout : t -> Spec.split_layout
val r_table : t -> Table.t
val s_table : t -> Table.t

val apply : t -> lsn:Lsn.t -> Log_record.op -> (string * Row.Key.t) list
(** Propagate one logged operation on the source table T into R and S.
    Returns the (table, key) pairs touched — the lock-transfer set. *)

val ingest_initial : t -> Record.t -> unit
(** Feed one fuzzily-read T record to the initial population: inserts
    the R part (inheriting the record's LSN — the state identifier the
    rules need) and upserts the S part, maintaining counter and flag. *)

val unknown_count : t -> int
(** Number of U-flagged S records (must reach 0 before sync when
    consistency is not assumed). O(1): S tracks its flagged keys. *)

val first_unknown : t -> (Row.Key.t * Record.t) option
(** The U-flagged S record the consistency checker clears next
    ({!Table.first_unknown}). O(1). *)

(** Counters, for ablation benches. *)
type stats = {
  mutable applied : int;
  mutable ignored : int;
  mutable foreign : int;
}

val stats : t -> stats
