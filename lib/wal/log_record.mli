(** Log record types.

    The log follows ARIES conventions (paper assumption, Sec. 1): every
    transaction writes redo+undo information for each operation, undo
    during rollback produces compensating log records (CLRs), and each
    record carries the LSN of the transaction's previous record
    ([prev_lsn]) so rollback can walk the chain.

    The transformation framework adds three record kinds of its own:
    fuzzy marks delimiting log propagation iterations (Sec. 3.2–3.3)
    and the consistency checker's begin/ok pair (Sec. 5.3). *)

open Nbsc_value

type txn_id = int

val system_txn : txn_id
(** Pseudo transaction id used by framework records (fuzzy marks, CC
    records, checkpoints). *)

(** A physiological operation on one record of one table. [Update]
    carries only the changed columns — the paper's rules are designed
    around exactly this (Sec. 4.2, "update log records are less
    informative"), reading the rest from the transformed table. The
    [before] sides support undo and are what a real DBMS would log. *)
type op =
  | Insert of { table : string; row : Row.t }
  | Delete of { table : string; key : Row.Key.t; before : Row.t }
  | Update of {
      table : string;
      key : Row.Key.t;
      changes : (int * Value.t) list;   (** redo: position, new value *)
      before : (int * Value.t) list;    (** undo: position, old value *)
    }

val op_table : op -> string
val op_key : Schema.t -> op -> Row.Key.t
(** The primary key of the record the op touches ([Insert] projects the
    row through the schema's key positions). *)

val invert : key:Row.Key.t -> op -> op
(** [invert ~key op] is the undo of [op] (the redo part of its CLR);
    [key] is the primary key of the touched record, needed because an
    [Insert] inverts to a [Delete] identified by key. *)

type body =
  | Begin
  | Commit
  | Abort_begin      (** transaction started rolling back *)
  | Abort_done       (** rollback complete; locks may be released *)
  | Op of op
  | Clr of { undo_next : Lsn.t; op : op }
      (** compensating record: [op] is the inverse already applied;
          [undo_next] is the next record to undo (ARIES). *)
  | Fuzzy_mark of { active : (txn_id * Lsn.t) list }
      (** snapshot of the active-transaction table: each active
          transaction with the LSN of its first log record. *)
  | Cc_begin of { table : string; key : Row.Key.t }
  | Cc_ok of { table : string; key : Row.Key.t; image : Row.t }
  | Checkpoint of { active : (txn_id * Lsn.t) list }
  | Job_state of { job : string; state : string }
      (** a registered background job (schema change) exists with the
          given opaque serialized state — written at job creation and
          re-emitted by every durability checkpoint, so crash recovery
          can rebuild and resume the job (see {!Nbsc_engine.Recovery}) *)
  | Job_done of { job : string }
      (** the job was cancelled (aborted); recovery forgets it. Normal
          completion writes no record — it becomes durable at the next
          checkpoint, which finds the job gone and drops its
          [Job_state] from the WAL (a job's final target writes are
          unlogged, so a completion marker could otherwise outlive
          them). *)
  | Watermark of { job : string; high : bool }
      (** Inert: nothing writes it any more. An earlier DBLog-style
          populator bracketed its chunk scans with low ([high = false])
          and high watermarks, so a WAL of the current format may still
          hold them. Decoding them keeps such a WAL readable: dropping
          the lines would leave LSN gaps, which {!Log.of_records}
          rejects. Replay, rollback and recovery skip watermarks, and
          they round-trip unchanged, so the format needs no bump. *)

type t = {
  lsn : Lsn.t;
  txn : txn_id;
  prev_lsn : Lsn.t;  (** previous record of the same transaction *)
  body : body;
}

val encode_into : scratch:Buffer.t -> Buffer.t -> t -> unit
(** Append the record's single-line, self-delimiting encoding (the
    inverse of {!decode}) to the second buffer without materializing
    intermediate strings. [scratch] is clobbered (holds one nested
    composite at a time); a long-lived sink passes the same two buffers
    for every record. test_wal pins the exact bytes of every record
    kind. *)

val encode : t -> string
(** {!encode_into} into fresh buffers, as a string. *)

val decode : string -> t
(** @raise Failure on malformed input. *)

val pp : Format.formatter -> t -> unit
