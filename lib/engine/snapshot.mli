(** Database snapshots — the sharp checkpoint that lets the log be
    truncated.

    A snapshot serializes the entire catalog (schemas, indexes) and
    every record (row, LSN, counter, flag, aux) into text lines; loading
    one yields a database whose fresh log continues at the snapshot
    LSN, so record LSNs stay monotonic and the split rules' LSN
    discipline keeps working across restarts. Recovery after a crash is
    then: load the latest snapshot, replay the retained log suffix with
    {!Recovery.recover}-style redo (records at or below the snapshot
    LSN are skipped by the ordinary record-LSN idempotence check).

    Snapshots are {e sharp}: the database must have no active
    transactions (quiesce first, or take it from a freshly recovered
    state). A fuzzy checkpointing scheme would reuse the paper's own
    fuzzy machinery but is out of scope. *)

type error = Nbsc_error.t
(** [write] and [save] produce [`Active_transactions]; [load] produces
    [`Corrupt]. One rendering for all of it: {!Nbsc_error.to_string}. *)

val write :
  ?without_rows:string list -> Db.t ->
  ((Buffer.t -> unit) -> unit, error) result
(** [write db] refuses [`Active_transactions] up front; otherwise it
    returns the snapshot's producer. [produce emit] calls [emit] once
    per payload line, in file order, with a buffer holding that line
    and nothing else. The buffer is reused for the next line, so
    [emit] must consume it before returning. No line is ever built as
    a string: {!Persist} frames each one straight onto its file.

    The tables named in [without_rows] (default none) get their [T:],
    [I:] and [O:] lines but no [R:] line: {!Persist.checkpoint} names
    the tables a resume would drop and rebuild ({!Db.job_persist}), so
    it writes no rows that recovery would discard. Such a snapshot
    loads them empty.

    Each run of the producer emits the same lines while [db] is not
    modified, so a writer may run it again (to retry, or to count the
    lines first). *)

val save : Db.t -> (string list, error) result
(** The lines {!write} emits, collected as strings — the input
    {!load} takes. For round trips and tests; the durable path streams
    with {!write}. *)

val load : string list -> (Db.t, error) result
(** The returned database has an empty log based at the snapshot LSN.
    A [`Corrupt] names the offending line as the file numbers it, after
    its header line; the caller knows the file ({!Nbsc_error.in_file}). *)

val pp_error : Format.formatter -> error -> unit
