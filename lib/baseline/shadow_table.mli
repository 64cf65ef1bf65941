(** The shadow-table comparator: trigger-captured audit log plus a
    latched chunked backfill, cut over atomically at the end.

    This is the classical online-reorganization recipe (Ronström's
    trigger method industrialized by tools like pt-online-schema-change
    and gh-ost): create the target tables, install a trigger that
    captures every concurrent source write into an audit log, copy the
    source in small latched chunks, replay the audit log until it
    drains, then latch once more and switch. Compared head-to-head with
    the paper's log-redo method, its costs are the synchronous trigger
    work inside user transactions and the repeated latched windows the
    backfill needs; compared with {!Insert_into_select}, it never holds
    a latch for more than one chunk.

    Built generically over {!Nbsc_core.Transformation.t}: the
    operator supplies target tables, the population scan (used
    as the backfill, one latched chunk at a time) and the propagation
    rules (used to replay the audit log, LSN-gated so replay converges
    regardless of interleaving). *)

open Nbsc_core

type t

val create : Db.t -> ?drop_sources:bool -> ?chunk:int -> Transformation.t -> t
(** Install the audit trigger and prepare the backfill.
    [chunk] (default 256) bounds both the rows scanned per latched
    window and the audit entries applied per step; [drop_sources]
    (default true) drops the source tables at cutover. *)

val step : t -> limit:int -> bool
(** One quantum: a latch acquisition, one latched backfill chunk, or a
    bounded audit replay — then, once the audit log drains, the final
    latch-and-cutover. Returns true when done. Consults the standard
    [quantum_end] / [sync_commit] fault-injection sites. *)

(** {1 Counters} *)

val captured : t -> int
(** Source writes the audit trigger captured. *)

val backfilled : t -> int
(** Source rows copied by the latched backfill. *)

val audit_pending : t -> int
(** Captured writes still waiting for replay (the catch-up lag). *)

val latched_windows : t -> int
(** Latched windows taken so far (incl. the final cutover latch). *)
