(** Offline storage-integrity verification — the engine behind
    [nbsc scrub] and [make scrub].

    Walks a database directory {e without opening it}: no replay, no
    write, no channel kept open. Both files go through
    {!Disk_format.read}, the reader {!Persist.open_dir} uses, so the
    two judge the files alike: the scrub reports every problem that
    reader finds, where reopening refuses on the first. That covers the
    version header, per-line CRC-32, the snapshot trailer (truncation
    at a line boundary), a missing file, a snapshot cut mid-line and
    WAL record decodability. Once a file's lines are all sound it runs
    reopening's own checks: the snapshot must load ({!Snapshot.load},
    in memory), and the WAL goes through {!Persist.retained_log}: its
    records' LSN chain and, when the snapshot loaded, that no snapshot
    record's LSN exceeds the WAL's head (a spliced store, an older WAL
    beside a newer snapshot). A torn (unterminated) final WAL line is
    tolerated and noted — that is the legitimate signature of a crash
    mid-append, which reopening trims. Every problem carries
    file/line/checksum context.

    Checksum failures found here count into the same
    [storage.crc_failures] instrument ({!Disk_format.obs}) that reopen
    verification uses. *)

type file_report = {
  f_path : string;
  f_lines : int;           (** payload lines that verified *)
  f_torn_tail : bool;      (** the file ended in an unterminated line *)
  f_errors : Nbsc_error.corruption list;
}

type report = { dir : string; files : file_report list }

val verify_dir : dir:string -> (report, Nbsc_error.t) result
(** Verify [snapshot.nbsc] and [wal.nbsc] under [dir]. [Error] only for
    directory-level I/O trouble; per-file damage lands in the report. *)

val ok : report -> bool
(** No file reported any error. *)

val errors : report -> Nbsc_error.corruption list
(** All errors across files, in file order. *)

val pp_report : Format.formatter -> report -> unit
