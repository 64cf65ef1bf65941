(** Horizontal (selection) split propagation.

    T's rows are routed into [h_true_table] or [h_false_table] by the
    predicate; the propagation rules follow the split transformation's
    LSN discipline (target records inherit the fuzzy scan's LSNs, and a
    logged operation applies only if newer than the target record).
    An update that flips the predicate migrates the row between the
    targets in one rule application. *)

open Nbsc_value
open Nbsc_wal
open Nbsc_storage

type t

val create : Catalog.t -> Spec.hsplit_layout -> t

val layout : t -> Spec.hsplit_layout
val true_table : t -> Table.t
val false_table : t -> Table.t

val ingest_initial : t -> Record.t -> unit
(** Route one fuzzily-scanned source record (keeps its LSN). *)

val apply : t -> lsn:Lsn.t -> Log_record.op -> (string * Row.Key.t) list

type stats = {
  mutable applied : int;
  mutable ignored : int;
  mutable foreign : int;
  mutable migrations : int;  (** rows moved between targets by updates *)
}

val stats : t -> stats
