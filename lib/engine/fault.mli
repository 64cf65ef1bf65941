(** Fault injection for crash and disk-error testing.

    A process-wide registry of named {e injection sites}. Durability
    code (snapshot writes, the WAL sink, checkpointing, recovery) and
    the transformation executor consult the registry at each site; when
    a site is armed the consultation raises {!Injected} or
    {!Io_injected}, or silently damages the bytes in flight
    ([Bit_flip]). The crash-matrix suite iterates every site × every
    transformation operator and checks that reopening the store
    converges to the relational oracle; the integrity suite checks that
    damaged bytes are always detected, never trusted.

    Modes:
    - [Crash] — raise before the guarded effect happens (the record /
      file never reaches disk);
    - [Torn] — run a caller-supplied partial effect first (e.g. half a
      WAL line, flushed), then raise: the torn-write case the
      atomic-rename protocol and WAL-tail truncation must absorb;
    - [Io_error {errno; transient}] — a failing syscall at a physical
      write boundary. [EIO] with [transient = true] models a blip the
      persist layer retries at once, a bounded number of times;
      [transient = false] models a condition (dead or full disk): the
      arming {e stays armed}, firing on every consultation until
      {!disarm} — [ENOSPC] puts the transaction manager into degraded
      mode instead of failing the engine;
    - [Bit_flip] — flip one byte of the framed line {e after} its CRC
      was computed, then continue normally: silent media corruption
      that only checksum verification (reopen, [nbsc scrub]) can catch.

    The registry is deliberately global and single-threaded, like the
    in-memory engine it tests. Production builds never arm anything,
    so the per-site cost is one hashtable lookup guarded by a single
    [enabled] flag check. *)

type errno = EIO | ENOSPC

type mode =
  | Crash
  | Torn
  | Io_error of { errno : errno; transient : bool }
  | Bit_flip

exception Injected of { site : string; mode : mode }
(** The simulated crash. Test drivers catch it at top level, abandon
    the in-memory database, and reopen from disk. *)

exception Io_injected of { site : string; errno : errno; transient : bool }
(** The simulated failing syscall. Unlike {!Injected} this is {e not} a
    crash: the persist layer catches it at the write boundary and
    retries (transient [EIO]), degrades (["ENOSPC"]), or surfaces a
    typed error (persistent [EIO]). *)

val all_sites : string list
(** The documented injection points, in rough lifecycle order:

    - ["wal_append"] — in the WAL sink, per appended record (Torn: half
      the framed line is written and flushed first; Bit_flip: one byte
      of the framed line is damaged), and at the physical buffer flush
      ([Io_error] armings fire there, via {!io});
    - ["snapshot_write"] — while streaming snapshot lines into the
      temporary file, before the atomic rename;
    - ["snapshot_rename"] — after the temporary snapshot is complete,
      before [Sys.rename] publishes it;
    - ["wal_rewrite"] — after a checkpoint wrote the new snapshot,
      before the retained WAL suffix atomically replaces the old file;
    - ["quantum_end"] — in the executor, after a transformation quantum
      completed;
    - ["sync_commit"] — in the executor, after routing switched to the
      targets, before finalization (source drop, job deregistration);
    - ["snapshot_load"] — in [Persist.open_dir], before the snapshot
      lines are decoded (crash-during-recovery);
    - ["recovery_replay"] — in [Persist.open_dir], before the retained
      WAL replays into the loaded snapshot;
    - ["recovery_truncate"] — in [Persist.open_dir], before a torn WAL
      tail is physically trimmed. *)

val arm : ?mode:mode -> ?after:int -> string -> unit
(** [arm site] makes the next capable consultation of [site] raise (or
    flip); [~after:n] lets [n] capable consultations pass first.
    Re-arming replaces the previous setting. Every arming fires exactly
    once, except [Io_error {transient = false; _}], which keeps firing
    until {!disarm}. *)

val disarm : string -> unit

val reset : unit -> unit
(** Disarm every site and zero all hit counters. *)

val obs : unit -> Nbsc_obs.Obs.Registry.t
(** The registry holding the per-site hit counters
    ([fault.hits.<site>], [fault.io_hits.<site>]). Process-global, like
    the fault machinery itself; {!hits} and {!reset} read/zero through
    it. *)

val hit : string -> unit
(** Count a pass through [site]; fire if armed and due. [Torn] and
    [Bit_flip] armings degrade to a clean crash here — there is no byte
    stream at a plain hit point. *)

val write_record : string -> partial:(unit -> unit) -> flip:(unit -> unit) -> unit
(** The WAL sink's per-record consultation. [Crash] raises; [Torn] runs
    [partial] (the half-written line) then raises; [Bit_flip] runs
    [flip] (damage the framed bytes in place) and {e continues} —
    silent corruption. [Io_error] armings do not fire here (and their
    countdown does not advance): syscall failures belong to the
    physical write boundary, {!io}. *)

val file_write : string -> flip:(unit -> unit) -> unit
(** Consultation guarding a whole-file write (snapshot / WAL rewrite
    temp files). [Crash]/[Torn] raise (the rename never happens, so the
    old file survives intact — torn has no distinct effect under
    atomic replacement); [Bit_flip] runs [flip] and continues;
    [Io_error] raises {!Io_injected}. *)

val io : string -> unit
(** The physical write boundary consultation: fires [Io_error] armings
    only — other modes neither fire nor advance their countdown here.
    Counted separately ([fault.io_hits.<site>]) so dry-run
    planning of record-level armings stays unskewed. *)

val hits : string -> int
(** How many times [site]'s record-level consultations ran since the
    last {!reset} — the crash matrix dry-runs a scenario (with
    {!set_tracking}) to learn each site's hit count, then arms
    mid-range offsets. *)

val set_tracking : bool -> unit
(** Count hits even with nothing armed (dry runs). Off after {!reset}. *)
