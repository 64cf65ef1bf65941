(** The shared on-disk format: versioned headers, per-line CRC framing,
    and the snapshot trailer. {!Persist} writes and reads it; {!Scrub}
    verifies it offline — this module is the single definition both
    trust.

    Layout (format version 2, the PR-8 bump):
    - [snapshot.nbsc] — line 1 the unframed magic {!snapshot_magic};
      then one framed line per snapshot payload line; last a framed
      trailer [@end:<payload line count>]. Written whole and
      rename-swapped, so it is always complete — a missing trailer
      means truncation.
    - [wal.nbsc] — line 1 the unframed magic {!wal_magic}; then one
      framed line per log record, appended in place. A crash can leave
      an {e unterminated} final line (torn append — dropped on reopen);
      any {e terminated} line that fails its checksum is corruption and
      is reported, never trusted.

    A framed line is [<8 lowercase hex chars>:<payload>], the hex field
    being the CRC-32 ({!Nbsc_value.Crc32}) of the payload bytes. The
    fixed-width field keeps the separator unambiguous: payloads may
    contain ':'. Pre-v2 directories have no header line and are
    rejected with a clear message rather than misread. *)

val version : int

val snapshot_magic : string
val wal_magic : string

val snapshot_path : string -> string
val wal_path : string -> string

val obs : unit -> Nbsc_obs.Obs.Registry.t
(** Process-global registry for the storage-integrity instruments:
    [storage.crc_failures] (lines that failed verification, counted by
    {!unframe}), [storage.io_retries] (transient-EIO retries performed
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

val unframe :
  path:string -> line:int -> ?lsn:int -> string ->
  (string, Nbsc_error.t) result
(** Verify and strip one framed line, returning the payload. On any
    failure — missing frame, non-hex checksum field, checksum mismatch
    — returns [`Corrupt] carrying the file, line number, optional LSN
    and both checksums, and counts [storage.crc_failures]. *)

val check_header :
  magic:string -> path:string -> string option ->
  (unit, Nbsc_error.t) result
(** Validate a file's first line against the expected magic. [None]
    (empty file), a different version's magic, and a header-less pre-v2
    file each get a distinct clear [`Corrupt]. *)

val trailer : int -> string
(** The snapshot trailer payload for [n] payload lines. *)

val trailer_count : string -> int option
(** [Some n] iff the payload is a well-formed trailer. *)
