(** ARIES-light crash recovery.

    Rebuilds database state from the log alone: analysis finds loser
    transactions, redo replays every operation in LSN order with the
    standard record-LSN idempotence check, undo rolls losers back.
    This exists (a) because the paper assumes an ARIES-style recoverable
    substrate, and (b) as the strongest possible test of the log's
    completeness: tests compare a recovered database against the live
    one after arbitrary histories.

    The log carries no DDL, so callers supply the table definitions.
    Operations on tables not (re)defined are skipped — in particular the
    framework's own writes to a transformed table are not logged. A
    transformation interrupted by a crash is not rebuilt here: recovery
    reports its latest [Job_state] in the report's [jobs], and
    [Nbsc_core.Transform.resume] continues it from that checkpointed
    position (see DESIGN.md, "Resume"). *)

open Nbsc_value
open Nbsc_wal
open Nbsc_storage

type table_def = {
  def_name : string;
  def_schema : Schema.t;
  def_indexes : (string * string list) list;
}

val table_def :
  ?indexes:(string * string list) list -> string -> Schema.t -> table_def

type report = {
  redo_applied : int;
  redo_skipped : int;   (** ops on unknown tables *)
  losers : Log_record.txn_id list;
  undo_applied : int;
  jobs : (string * string) list;
      (** background jobs still in flight at the crash: latest
          [Job_state] payload per job name, in first-seen order, minus
          any job with a [Job_done]. The payload is opaque here; the
          transformation executor ({!Nbsc_core.Transform}) decodes it
          and resumes the job. *)
}

val recover : table_defs:table_def list -> Log.t -> Catalog.t * report
(** Fresh catalog containing the recovered tables. *)

val replay_into : Catalog.t -> Log.t -> report
(** Redo + undo into an {e existing} catalog (e.g. one restored from a
    snapshot, with the log holding only the records since). Redo uses
    the standard record-LSN idempotence check, so replaying overlapping
    history is safe. *)

val check_fits : Catalog.t -> Log.t -> (unit, Lsn.t * string) result
(** Whether every operation ([Op] or [Clr]) on a table of the catalog
    fits that table's schema: rows of its arity, keys of its key's
    arity, changes to non-key columns it has. [Error] carries the first
    record that does not, and what did not fit. Run before
    {!replay_into}, which would raise on it. *)

val pp_report : Format.formatter -> report -> unit
