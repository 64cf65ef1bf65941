(** Durability: a database directory with a snapshot file and a
    continuously-appended write-ahead-log file.

    Layout (on-disk format v2 — see {!Disk_format}):
    {v
      <dir>/snapshot.nbsc   line 1 the format magic; then one
                            CRC-framed snapshot line each; last a
                            framed @end:<count> trailer
      <dir>/wal.nbsc        line 1 the format magic; then one
                            CRC-framed log record per line, appended
                            and flushed synchronously on every append
    v}

    {!open_dir} sweeps orphaned [*.tmp] files, reads both files through
    {!Disk_format.read} — the reader {!Scrub} uses, so the two judge the
    files alike — and refuses the store as [`Corrupt] on the first
    problem that reader reports. It then restores the snapshot, replays
    the WAL (redo of completed work, rollback of transactions that were
    in flight at the crash), and re-attaches the WAL sink so new work
    keeps being journaled. {!checkpoint} rewrites the snapshot and
    truncates the WAL down to the suffix still needed by in-flight
    schema changes.

    Crash-safety protocol: both files are replaced atomically (temp
    file + [Sys.rename]); the WAL alone is appended in place, so only
    its final line can be torn by a crash — an unterminated final line
    is dropped and physically trimmed on reopen, while
    newline-terminated garbage, a checksum failure, a missing or
    miscounting snapshot trailer, a snapshot that ends mid-line, or a
    missing file is reported as [`Corrupt] with file/line/checksum
    context. A missing [wal.nbsc] is never replaced by a new one: the
    commits it held would be lost without a word. {!create_dir} writes
    the WAL before the snapshot's rename publishes the store, so a
    published store always has both files. Fault injection ({!Fault}) is wired
    into every durability step: sites [wal_append], [snapshot_write],
    [snapshot_rename] and [wal_rewrite] fire on the write paths, and
    [snapshot_load], [recovery_truncate] and [recovery_replay] inside
    {!open_dir} itself (crash-during-recovery). A transient [EIO] is
    retried at once, up to four times, each retry counted in
    [storage.io_retries]; a persistent one surfaces as [`Io]. [ENOSPC]
    puts the transaction manager into degraded mode
    ({!Nbsc_txn.Manager.disk_full}) instead of failing the engine. *)

(** {b DDL durability caveat}: the WAL journals data operations only
    (the paper's log carries no DDL either); table definitions are
    persisted by snapshots. Run {!checkpoint} after creating or
    dropping tables, or records written to a table created since the
    last checkpoint cannot be replayed after a crash. *)

type t

type error = Nbsc_error.t
(** The durability layer produces [`Io], [`Corrupt], [`Disk_full] and
    [`Active_transactions]; the unified type means callers render any
    of it with {!Nbsc_error.to_string} and need no per-module
    plumbing. *)

val create_dir : dir:string -> (t, error) result
(** Initialize an empty database directory (creates it if missing;
    refuses a directory that already holds a snapshot). It writes the
    header-only WAL first and the snapshot second, whose rename
    publishes the store; a WAL without a snapshot, which a crash
    before that rename leaves, is replaced. *)

val open_dir : dir:string -> (t, error) result
(** Open an existing directory, running crash recovery if the WAL holds
    unfinished transactions. A directory missing either file is
    [`Corrupt], naming the file. The parsed WAL becomes the live in-memory
    log (fresh appends continue its LSN sequence), so a resumed
    transformation's propagator can re-read the retained records.
    Fresh transaction ids are bumped above every id the retained WAL
    mentions. *)

val retained_log :
  path:string -> Db.t -> Nbsc_wal.Log_record.t list ->
  (Nbsc_wal.Log.t option, error) result
(** [retained_log ~path db records] checks the WAL at [path] against
    the snapshot-loaded [db] as {!open_dir} does before replay, and
    returns the log the records form ([None] when there are none). The
    records must form a log ({!Disk_format.wal_log}), and when there
    are any, no record of [db]'s tables may carry an LSN beyond its
    head: a snapshot that does reflects commits the WAL lost. Every
    operation on one of [db]'s tables must fit its schema
    ({!Recovery.check_fits}), or replay would raise on it. The offline
    {!Scrub} runs the same function, so the two agree on a spliced
    store and on a record that does not fit. *)

val db : t -> Db.t

val checkpoint : t -> (unit, error) result
(** Rewrite the snapshot at the current state and truncate the WAL.
    Requires no active transactions (sharp, like {!Snapshot.write}).

    Every persistable background job ({!Db.register_job}'s [persist])
    first gets a fresh [Job_state] record appended, then the WAL is
    truncated only down to the oldest job's [low_water] position — the
    retained suffix plus the snapshot is exactly what {!open_dir} needs
    to rebuild and resume the jobs. With no persistable jobs the WAL
    empties, as a classical checkpoint would.

    It writes only what recovery reads. The tables a job names in
    [rebuilt] (a resume would drop and refill them) are written
    without their rows. The retained suffix is copied from the framed
    lines already in wal.nbsc and in the sink's buffer, each checked
    against its CRC and LSN on the way; a line that fails is written
    again from its in-memory record, so the new file equals a fresh
    encoding of the suffix and damage in the old one is not carried
    over. So the WAL step reads and writes the retained bytes and
    encodes no record that is sound on disk; with nothing retained it
    writes the header alone without reading the old file. If that
    rewrite fails the old file stays, and the lines still buffered
    stay buffered for it. *)

val crash : t -> unit
(** Simulate a process crash: detach the WAL sink and drop the channel
    without flushing. The in-memory database must be discarded; the
    only legal continuation is {!open_dir} on the same directory. Used
    by the fault-injection harness after catching {!Fault.Injected}. *)

val close : t -> unit
(** Flush and close the WAL channel. The [t] must not be used after. *)

val last_recovery : t -> Recovery.report option
(** The report from recovery at [open_dir] time, if any replay ran. *)

val pending_jobs : t -> (string * string) list
(** Background jobs that were in flight at the crash, per the recovery
    report: [(job name, opaque resume payload)] in first-seen order.
    Empty if no recovery ran. [Nbsc_core.Transform.resume] consumes
    this. *)

val pp_error : Format.formatter -> error -> unit
