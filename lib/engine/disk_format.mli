(** The shared on-disk format: versioned headers, per-line CRC framing,
    the snapshot trailer, and the one reader that judges store files.
    {!Persist} writes the format; {!Persist.open_dir} and the offline
    {!Scrub} both read it through {!read}, so they judge its files
    alike.

    Layout (format version 2, the PR-8 bump):
    - [snapshot.nbsc] — line 1 the unframed magic {!snapshot_magic};
      then one framed line per snapshot payload line; last a framed
      trailer [@end:<payload line count>]. Written whole and
      rename-swapped, so it is always complete.
    - [wal.nbsc] — line 1 the unframed magic {!wal_magic}; then one
      framed line per log record, appended in place.

    A framed line is [<8 lowercase hex chars>:<payload>], the hex field
    being the CRC-32 ({!Nbsc_value.Crc32}) of the payload bytes. The
    fixed-width field keeps the separator unambiguous: payloads may
    contain ':'. Pre-v2 directories have no header line and are
    rejected with a clear message rather than misread.

    The reading rules, by file kind:
    - Only the WAL, which is appended in place, may end in an
      unterminated line: a torn append, dropped on reading (and trimmed
      by reopen). A snapshot that does was cut.
    - A missing file is damage. {!Persist.create_dir} writes the WAL
      before the snapshot's rename publishes the store, so a published
      store always has both.
    - Every complete line after the header must pass its checksum; a
      snapshot's last line must be the trailer, counting the lines
      between. *)

val version : int

val snapshot_magic : string
val wal_magic : string

val snapshot_path : string -> string
val wal_path : string -> string

val obs : unit -> Nbsc_obs.Obs.Registry.t
(** Process-global registry for the storage-integrity instruments:
    [storage.crc_failures] (lines that failed verification, counted by
    {!read}), [storage.io_retries] (transient-EIO retries performed
    by the persist layer) and [storage.disk_full_stalls] (ENOSPC events
    that put the engine into degraded mode). *)

val crc_failures : unit -> Nbsc_obs.Obs.Counter.t
val io_retries : unit -> Nbsc_obs.Obs.Counter.t
val disk_full_stalls : unit -> Nbsc_obs.Obs.Counter.t

val frame : string -> string
(** Frame one payload line. *)

val frame_into : Buffer.t -> Buffer.t -> unit
(** [frame_into out payload] appends the framed form of [payload]'s
    contents to [out] without materialising intermediate strings. Every
    writer frames this way: the WAL sink per appended record, and a
    checkpoint per snapshot line and per retained WAL record whose
    line on disk fails its check (sound lines are copied). *)

val trailer : int -> string
(** The snapshot trailer payload for [n] payload lines. *)

(** A store file's kind, which fixes what its payloads decode to. *)
type _ kind =
  | Snapshot : string kind  (** snapshot lines, as {!Snapshot.load} takes *)
  | Wal : Nbsc_wal.Log_record.t kind  (** log records *)

type 'a contents = {
  payloads : 'a list;
      (** the decoded payloads of the lines that verified, in file
          order; a snapshot's trailer is not among them *)
  torn : int;
      (** the length in bytes of the unterminated final line, which was
          not read; 0 when the file ends in a newline *)
  problems : Nbsc_error.corruption list;
      (** every problem found, in file order: one per fault *)
}

val read : 'a kind -> string -> ('a contents, [> `Io of string ]) result
(** [read kind path] reads the store file [path] line by line, holding
    only the decoded payloads. Each line after the header is unframed
    (a failure counts into [storage.crc_failures]) and its payload
    decoded; a payload that does not decode is a problem at its line.
    A missing file, an unterminated snapshot, a wrong or missing header
    and a missing or miscounting snapshot trailer are problems too;
    nothing after a wrong header is read. [Error] only for other I/O
    trouble. *)

val wal_log :
  path:string -> Nbsc_wal.Log_record.t list ->
  (Nbsc_wal.Log.t, [> `Corrupt of Nbsc_error.corruption ]) result
(** Rebuild the log a WAL's records form ({!Nbsc_wal.Log.of_records}):
    contiguous LSNs and well-formed back-pointer chains, the structure
    replay relies on. *)
