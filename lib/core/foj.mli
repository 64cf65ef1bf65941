(** FOJ log propagation — the paper's Rules 1–7 (Sec. 4.2).

    One-to-many: the join attribute is unique in S. The rules are
    idempotent and use no state identifiers; convergence rests on
    Theorem 1 (records in the transformed table are always in the same
    or a newer state than the log record being propagated, provided the
    log is applied in sequential order starting from the first record
    of any transaction active at the fuzzy mark).

    Note on Rule 5: the paper's text reads "If t{^y}{_w} is not found in
    Ti, or if w = x, the log record is ignored", which contradicts both
    the sentence that follows ("Assuming that t{^y}{_x} is found …") and
    the rule's justification. We implement the evident intent: ignore
    when w <> x, i.e. when T already reflects a state newer than the
    update being propagated. *)

open Nbsc_value
open Nbsc_wal
open Nbsc_storage

type t

val create : Catalog.t -> Spec.foj_layout -> t
(** Compile the layout's rule plan (see {!Foj_common.make_ctx}). *)

val ctx : t -> Foj_common.ctx

val apply : t -> lsn:Lsn.t -> Log_record.op -> Row.Key.t list
(** Propagate one logged source-table operation into T. Operations on
    unrelated tables are ignored. Returns the T keys the rule touched
    or corresponds to — the lock-transfer set. *)

(** Rule-level counters, for ablation benches. *)
type stats = {
  mutable applied : int;
  mutable ignored : int;   (** ops already reflected (Theorem 1 path) *)
  mutable foreign : int;   (** ops on unrelated tables *)
}

val stats : t -> stats
