(** The log propagator (paper, Sec. 3.3).

    Reads the log forward from the first record that might not be
    reflected in the initial image (the oldest record of any
    transaction active at the first fuzzy mark) and applies each
    operation through the transformation's rules. Along the way it

    - {e transfers locks}: every target record a rule touches is locked
      on behalf of the source transaction with [Source] provenance, and
      those locks are released when the transaction's commit / abort
      record is reached (paper, Sec. 3.3 and 4.3) — exactly the
      machinery the non-blocking synchronization strategies rely on;
    - drives the {e consistency checker} callbacks when it encounters
      CC-begin / CC-ok records (split of inconsistent data, Sec. 5.3);
    - exposes its {e lag} (remaining log records), the quantity the
      iteration analysis compares with [Options.sync_lag] to decide
      when to synchronize. *)

open Nbsc_value
open Nbsc_wal
open Nbsc_txn

(** How the propagator talks to a concrete transformation. *)
type rules = {
  sources : string list;
      (** source tables, in provenance order (index i -> [Source i]) *)
  targets : string list;
  apply : lsn:Lsn.t -> Log_record.op -> (string * Row.Key.t) list;
      (** apply one operation; returns touched (target table, key) *)
  cc : Consistency.t option;
      (** the operator's consistency checker, if it needs one before
          it may synchronize *)
  transfer_locks : bool;
      (** schema transformations transfer source-transaction locks to
          the targets (paper, Sec. 3.3); materialized-view maintenance
          does not — the view never takes over from its sources *)
}

val rules :
  ?cc:Consistency.t -> ?transfer_locks:bool ->
  sources:string list -> targets:string list ->
  apply:(lsn:Lsn.t -> Log_record.op -> (string * Row.Key.t) list) -> unit ->
  rules
(** Convenience constructor; [transfer_locks] defaults to true. *)

type t

val create :
  ?skip:Log_record.txn_id list -> Manager.t -> rules -> from:Lsn.t -> t
(** [skip] lists transactions whose log records the propagator ignores
    entirely. Crash recovery rolls losers back {e without logging} the
    compensation, so a propagator resumed over a retained log suffix
    must not apply their operations (no Abort record will ever undo the
    effect on the targets).

    The cursor is pinned in the manager's WAL-retention registry so log
    truncation never reclaims records the propagator has yet to read;
    call {!close} when the propagator is done or abandoned, or the pin
    keeps the log suffix alive forever.

    @raise Nbsc_wal.Log.Truncated if [from] is at or below the log's
    base — the saved position refers to records already truncated, so
    the catch-up cannot resume from it (restart the population from
    scratch instead of silently replaying the wrong suffix). *)

val close : t -> unit
(** Unpin the cursor from the manager's WAL-retention registry
    (idempotent). The propagator must not be stepped afterwards. *)

val step : t -> limit:int -> int
(** Process up to [limit] log records; returns how many were consumed. *)

val run_to_head : t -> int
(** The final, latched propagation: consume everything. Returns the
    number of records consumed — the paper's claim is that this is tiny
    (sub-millisecond) when synchronization started at a small lag. *)

val lag : t -> int
val position : t -> Lsn.t
val records_processed : t -> int
val locks_transferred : t -> int

val transfer_current_source_locks :
  t -> (table:string -> key:Row.Key.t -> (string * Row.Key.t) list) -> unit
(** Non-blocking-commit synchronization: transfer every lock currently
    held on a source table to the target records the given map
    implicates (the operator's [source_to_targets]; paper, Sec. 3.4 /
    4.3). Requires lag = 0. *)
