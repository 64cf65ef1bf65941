open Nbsc_wal
module Obs = Nbsc_obs.Obs

type error = Nbsc_error.t

type t = {
  dir : string;
  mutable pdb : Db.t;
  mutable out : out_channel;
  buf : Buffer.t;  (* framed lines awaiting the group-commit barrier *)
  rbuf : Buffer.t;  (* one record being encoded (reused per append) *)
  fbuf : Buffer.t;  (* the framed form of rbuf (reused per append) *)
  scratch : Buffer.t;  (* composite scratch for [Log_record.encode_into] *)
  mutable wal_first : Lsn.t;
      (* LSN of wal.nbsc's first record line (of the next append while
         it holds none): the file and then [buf] hold one line per
         record from here to the log head *)
  mutable report : Recovery.report option;
  mutable closed : bool;
}

let snapshot_path = Disk_format.snapshot_path
let wal_path = Disk_format.wal_path

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

let io f = try Ok (f ()) with Sys_error m -> Error (`Io m)

(* A transient EIO is a blip: rerun the write at once, up to this many
   times, counting each retry in [storage.io_retries]. The engine is
   cooperative and single-threaded, so there is nothing to wait for.
   Anything else (persistent EIO, ENOSPC, a real [Sys_error]) goes to
   the caller's handling; so does the blip that outlasts the budget. *)
let io_retry_budget = 4

let with_transient_retries f =
  let rec go attempt =
    match f () with
    | v -> v
    | exception Fault.Io_injected { errno = Fault.EIO; transient = true; _ }
      when attempt < io_retry_budget ->
      Obs.Counter.incr (Disk_format.io_retries ());
      go (attempt + 1)
  in
  go 0

(* Flip one byte in the middle of a framed line — the [Bit_flip] fault
   effect. Applied {e after} the CRC was computed, exactly like media
   bit rot: the damage is silent at write time and only checksum
   verification (reopen, scrub) can catch it. *)
let flip_byte_of_buffer buf =
  let b = Buffer.to_bytes buf in
  let i = Bytes.length b / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
  Buffer.clear buf;
  Buffer.add_bytes buf b

(* Frame [payload] ([Disk_format.frame_into], through the reused
   [framed]) and write it to [oc] as one line; [flip] damages it after
   its CRC. *)
let output_framed oc framed ?(flip = false) payload =
  Buffer.clear framed;
  Disk_format.frame_into framed payload;
  if flip then flip_byte_of_buffer framed;
  Buffer.add_char framed '\n';
  Buffer.output_buffer oc framed

(* Atomic file replacement: write a temp file in the same directory,
   then rename over the destination. A crash at any point leaves either
   the complete old file or the complete new file — never a torn mix.

   [body oc ~flip_at] writes the framed lines after the header, damaging
   line [flip_at] (0-based) after its CRC; [flip_at] is [-1] unless a
   bit flip is armed at [fault_write], and then [count () / 2], the
   middle line. [body] runs again for every retry, so it must write the
   same lines on every run.

   [Fault.Injected] deliberately escapes [io]'s Sys_error net: a
   simulated crash propagates to the harness, which then reopens the
   directory. [Fault.Io_injected] is handled here: transient EIO
   retries the whole write (fresh temp file), ENOSPC becomes a typed
   [`Disk_full], persistent EIO a [`Io]. The temp channel is closed on
   every way out. *)
let write_atomic ?fault_write ?fault_rename ~magic ~count path body =
  let run () =
    io (fun () ->
        let tmp = path ^ ".tmp" in
        let flip_at = ref (-1) in
        (match fault_write with
         | Some site ->
           Fault.file_write site ~flip:(fun () -> flip_at := count () / 2)
         | None -> ());
        let oc = open_out tmp in
        (match
           output_string oc magic;
           output_char oc '\n';
           body oc ~flip_at:!flip_at
         with
         | () -> close_out oc
         | exception e ->
           close_out_noerr oc;
           raise e);
        (match fault_rename with Some site -> Fault.hit site | None -> ());
        Sys.rename tmp path)
  in
  match with_transient_retries run with
  | r -> r
  | exception Fault.Io_injected { errno = Fault.ENOSPC; site; _ } ->
    Obs.Counter.incr (Disk_format.disk_full_stalls ());
    Error
      (`Disk_full (Printf.sprintf "no space writing %s (site %s)" path site))
  | exception Fault.Io_injected { errno = Fault.EIO; site; _ } ->
    Error (`Io (Printf.sprintf "persistent I/O error writing %s (site %s)" path site))

(* Drop the last [n] bytes of [path], the torn tail of the WAL, through
   a temp file and a rename like every rewrite: the complete lines are
   copied as they are. The caller must trim before the append channel
   reopens, or the next append would fuse with the torn prefix into a
   newline-terminated garbage line. *)
let trim_tail path n =
  io (fun () ->
      let tmp = path ^ ".tmp" in
      let ic = open_in_bin path and oc = open_out_bin tmp in
      let blk = Bytes.create 65536 in
      let rec copy left =
        if left > 0 then begin
          let k = min left (Bytes.length blk) in
          really_input ic blk 0 k;
          output oc blk 0 k;
          copy (left - k)
        end
      in
      copy (in_channel_length ic - n);
      close_in ic;
      close_out oc;
      Sys.rename tmp path)

(* Physical write of the buffered sink lines — the durability barrier's
   bottom half, and the one place the engine meets a failing disk.
   A transient EIO is retried at once ([storage.io_retries]);
   ENOSPC keeps the bytes buffered and puts the manager into degraded
   mode ([storage.disk_full_stalls]) instead of failing the caller —
   the buffered suffix only ever holds records not yet promised
   durable, and the refusal of further writes keeps it that way. Any
   successful physical append clears the degraded flag: recovery from
   a transient full disk is automatic. *)
let flush_buf t =
  let mgr = Db.manager t.pdb in
  if Buffer.length t.buf > 0 || Nbsc_txn.Manager.disk_full mgr then begin
    let attempt () =
      Fault.io "wal_append";
      if Buffer.length t.buf > 0 then begin
        Buffer.output_buffer t.out t.buf;
        Buffer.clear t.buf;
        flush t.out
      end
    in
    match with_transient_retries attempt with
    | () ->
      if Nbsc_txn.Manager.disk_full mgr then
        Nbsc_txn.Manager.clear_disk_full mgr
    | exception Fault.Io_injected { errno = Fault.ENOSPC; _ } ->
      if not (Nbsc_txn.Manager.disk_full mgr) then begin
        Obs.Counter.incr (Disk_format.disk_full_stalls ());
        Nbsc_txn.Manager.set_disk_full mgr
      end
    | exception Fault.Io_injected { errno = Fault.EIO; site; _ } ->
      Nbsc_error.fail
        (`Io (Printf.sprintf "wal append failed with persistent EIO at %s" site))
  end

(* The sink buffers framed lines; they reach disk at the group-commit
   barrier ([Log.sync] -> the syncer below), so a transaction's worth of
   appends costs one write+flush instead of one per record. Records of
   the system transaction (fuzzy marks, job state, checkpoint marks)
   write through immediately: they are rare, and recovery anchors on
   them being durable independently of any commit. The on-disk log is
   always a strict prefix of the in-memory log, and the buffered suffix
   only ever holds records of transactions that have not synced — a
   crash losing it replays idempotently. Each line is framed
   ([Disk_format.frame_into]: CRC-32 over the encoded payload) straight
   out of the reusable buffers — no intermediate strings. *)
let attach_sink t =
  let log = Db.log t.pdb in
  Log.set_sink log
    (Some
       (fun record ->
          Buffer.clear t.rbuf;
          Log_record.encode_into ~scratch:t.scratch t.rbuf record;
          Buffer.clear t.fbuf;
          Disk_format.frame_into t.fbuf t.rbuf;
          (* A torn append first makes the buffered complete lines
             durable, then leaves a prefix of this framed line,
             unterminated — exactly what [Disk_format.read] tolerates in
             a WAL. A bit flip damages the framed bytes after their
             CRC was computed and continues silently. *)
          Fault.write_record "wal_append"
            ~partial:(fun () ->
                flush_buf t;
                output_string t.out
                  (Buffer.sub t.fbuf 0 (Buffer.length t.fbuf / 2));
                flush t.out)
            ~flip:(fun () -> flip_byte_of_buffer t.fbuf);
          Buffer.add_buffer t.buf t.fbuf;
          Buffer.add_char t.buf '\n';
          if record.Log_record.txn = Log_record.system_txn then flush_buf t));
  Log.set_syncer log (Some (fun () -> flush_buf t))

(* Open the WAL append channel. The file always exists by now, header
   included: [create_dir] writes it first, [open_dir] refuses a WAL
   without one, and a checkpoint's rewrite publishes a whole file. *)
let open_wal_channel path =
  io (fun () -> open_out_gen [ Open_append; Open_creat ] 0o644 path)

(* The snapshot's payload lines are streamed: [produce emit] hands each
   one to [emit] in a buffer, framed onto the temp file at once, so no
   line is ever built as a string and the file never exists as a list.
   They are counted on the way for the trailer. A bit flip needs the
   count first: [produce] then runs once more, only counting. *)
let write_snapshot ~dir produce =
  let count () =
    let n = ref 0 in
    produce (fun _ -> incr n);
    !n
  in
  write_atomic ~fault_write:"snapshot_write" ~fault_rename:"snapshot_rename"
    ~magic:Disk_format.snapshot_magic ~count (snapshot_path dir)
    (fun oc ~flip_at ->
       let framed = Buffer.create 256 and n = ref 0 in
       produce (fun payload ->
           output_framed oc framed ~flip:(!n = flip_at) payload;
           incr n);
       let trailer = Buffer.create 16 in
       Buffer.add_string trailer (Disk_format.trailer !n);
       output_framed oc framed trailer)

(* {2 The checkpoint's WAL copy} *)

let hex_digits = "0123456789abcdef"

(* Whether [b.[pos..stop)] is a sound framed line as
   [Disk_format.frame_into] writes it: the payload's CRC-32 in eight
   lowercase hex digits, ':', the payload. *)
let frame_ok b ~pos ~stop =
  stop - pos >= 9
  && Bytes.get b (pos + 8) = ':'
  &&
  let crc =
    Int32.to_int
      (Nbsc_value.Crc32.of_substring (Bytes.unsafe_to_string b) ~pos:(pos + 9)
         ~len:(stop - pos - 9))
  in
  let ok = ref true in
  for i = 0 to 7 do
    if Bytes.get b (pos + i) <> hex_digits.[(crc lsr (4 * (7 - i))) land 0xf]
    then ok := false
  done;
  !ok

(* The LSN a record's payload [b.[pos..stop)] starts with: the first
   chunk [Log_record.encode_into] writes, ["<length>:<digits>"], read in
   place. 0, which no record carries, when the payload does not start
   that way. *)
let payload_lsn b ~pos ~stop =
  let i = ref pos and width = ref 0 and lsn = ref 0 and ok = ref true in
  while !ok && !i < stop && Bytes.get b !i <> ':' do
    let d = Char.code (Bytes.get b !i) - 48 in
    if d < 0 || d > 9 then ok := false else width := (10 * !width) + d;
    incr i
  done;
  let start = !i + 1 in
  if (not !ok) || !width = 0 || start + !width > stop then 0
  else begin
    for j = start to start + !width - 1 do
      let d = Char.code (Bytes.get b j) - 48 in
      if d < 0 || d > 9 then ok := false else lsn := (10 * !lsn) + d
    done;
    if !ok then !lsn else 0
  end

(* The index of the first newline in [b.[i..stop)], [stop] if none. *)
let rec newline b i stop =
  if i < stop && Bytes.get b i <> '\n' then newline b (i + 1) stop else i

(* Write the retained records [first..head] onto [oc] from the framed
   lines already written, not by encoding them again: wal.nbsc streamed
   through one block buffer, then the lines still in the sink's buffer —
   together one line per record from [t.wal_first] to the head. The
   header and the lines below [first] are skipped by counting newlines.

   Each copied line must pass its CRC and carry the LSN due at its
   place. A line that fails its CRC is replaced by the framed encoding
   of its in-memory record ([Log.get]). A sound line carrying another
   LSN means the stream no longer lines up with the log (damage gained
   or lost a newline), so every record from there on is encoded from
   memory. Either way the lines equal the framed encoding of
   [first..head], byte for byte, and damage in the old file is not
   carried over. *)
let copy_retained t oc ~first ~head ~flip_at =
  let log = Db.log t.pdb in
  let first = Lsn.to_int first and head = Lsn.to_int head in
  let ic = open_in_bin (wal_path t.dir) in
  let blk = ref (Bytes.create 65536) in
  let pos = ref 0 and len = ref 0 in (* unread bytes: [!pos, !len) *)
  let fed = ref 0 in (* bytes of [t.buf] already in [blk] *)
  (* Move the unread bytes to the front (doubling [blk] when they fill
     it: one line longer than the block) and read more behind them, from
     the file until it ends, then from [t.buf]. False at the end. *)
  let refill () =
    let rest = !len - !pos in
    let b =
      if rest = Bytes.length !blk then Bytes.create (2 * rest) else !blk
    in
    Bytes.blit !blk !pos b 0 rest;
    blk := b;
    pos := 0;
    let room = Bytes.length b - rest in
    let n =
      match input ic b rest room with
      | 0 ->
        let m = min room (Buffer.length t.buf - !fed) in
        Buffer.blit t.buf !fed b rest m;
        fed := !fed + m;
        m
      | n -> n
    in
    len := rest + n;
    n > 0
  in
  (* The index of the newline ending the line at [!pos]; -1 when the
     stream ends first. *)
  let rec line_end i =
    let e = newline !blk i !len in
    if e < !len then e
    else
      let scanned = e - !pos in
      if refill () then line_end scanned else -1
  in
  let rec skip k =
    if k > 0 then
      match line_end !pos with
      | -1 -> ()
      | e ->
        pos := e + 1;
        skip (k - 1)
  in
  let framed = Buffer.create 256 and record = Buffer.create 256 in
  let scratch = Buffer.create 256 in
  let encode lsn =
    Buffer.clear record;
    Log_record.encode_into ~scratch record (Log.get log (Lsn.of_int lsn));
    output_framed oc framed ~flip:(lsn - first = flip_at) record
  in
  let from_memory lsn = for l = lsn to head do encode l done in
  let rec copy lsn =
    if lsn <= head then
      match line_end !pos with
      | -1 -> from_memory lsn
      | e ->
        let s = !pos in
        pos := e + 1;
        if not (frame_ok !blk ~pos:s ~stop:e) then begin
          encode lsn;
          copy (lsn + 1)
        end
        else if payload_lsn !blk ~pos:(s + 9) ~stop:e = lsn then begin
          if lsn - first = flip_at then begin
            let i = s + ((e - s) / 2) in
            Bytes.set !blk i (Char.chr (Char.code (Bytes.get !blk i) lxor 0x01))
          end;
          output oc !blk s (e - s + 1);
          copy (lsn + 1)
        end
        else from_memory lsn
  in
  match
    skip (1 + Stdlib.max 0 (first - Lsn.to_int t.wal_first));
    copy first
  with
  | () -> close_in ic
  | exception e ->
    close_in_noerr ic;
    raise e

(* The checkpoint's WAL: the records [first..head] that recovery will
   read. With none retained the header-only file is written without
   reading the old one. *)
let rewrite_wal t ~first =
  let head = Log.head (Db.log t.pdb) in
  let count = Lsn.to_int head - Lsn.to_int first + 1 in
  write_atomic ~fault_write:"wal_rewrite" ~magic:Disk_format.wal_magic
    ~count:(fun () -> count) (wal_path t.dir)
    (fun oc ~flip_at ->
       if count > 0 then copy_retained t oc ~first ~head ~flip_at)

let make_t ~dir ~pdb ~out ~report =
  let wal_first = Lsn.next (Log.base (Db.log pdb)) in
  { dir; pdb; out; buf = Buffer.create 4096; rbuf = Buffer.create 256;
    fbuf = Buffer.create 256; scratch = Buffer.create 256; wal_first; report;
    closed = false }

let create_dir ~dir =
  let* () =
    io (fun () -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755)
  in
  if Sys.file_exists (snapshot_path dir) then
    Error (`Io (dir ^ " already holds a database"))
  else
    (* The WAL first, so the snapshot's rename publishes a store that
       has both files. A WAL found here was left by a [create_dir] that
       crashed before that rename; it holds no record and is replaced. *)
    let* () =
      write_atomic ~magic:Disk_format.wal_magic
        ~count:(fun () -> 0)
        (wal_path dir)
        (fun _ ~flip_at:_ -> ())
    in
    let pdb = Db.create () in
    let* produce = Snapshot.write pdb in
    let* () = write_snapshot ~dir produce in
    let* out = open_wal_channel (wal_path dir) in
    let t = make_t ~dir ~pdb ~out ~report:None in
    attach_sink t;
    Nbsc_txn.Manager.set_durable_floor (Db.manager pdb) (Log.base (Db.log pdb));
    Ok t

(* Read a store file through the one reader [Scrub] uses too, refusing
   on the first problem it found. *)
let read_checked kind path =
  let* contents = Disk_format.read kind path in
  match contents.Disk_format.problems with
  | [] -> Ok contents
  | c :: _ -> Error (`Corrupt c)

let load_snapshot ~dir =
  let* snapshot = read_checked Disk_format.Snapshot (snapshot_path dir) in
  (* Crash-during-recovery site: before the decoded snapshot state is
     built. Nothing was written yet, so a crash here is trivially
     idempotent — the matrix proves it. *)
  Fault.hit "snapshot_load";
  Snapshot.load snapshot.Disk_format.payloads

(* A crash between writing a temp file and renaming it over its
   destination strands a [*.tmp]; it carries no durable state (the
   rename is the publish point), so reopening deletes any found. *)
let remove_orphan_tmps dir =
  io (fun () ->
      Array.iter
        (fun f ->
           if Filename.check_suffix f ".tmp" then
             Sys.remove (Filename.concat dir f))
        (Sys.readdir dir))

(* Group-commit recovery invariant: the snapshot must not reflect an
   LSN the durable log does not cover. The only way to violate it is a
   checkpoint that published its snapshot while acked-but-unflushed
   commit records sat in the sink buffer and were then lost with a
   crash — the checkpoint-side [flush_commits] exists precisely to rule
   that out, and recovery asserts it held. Checked against the
   {e snapshot-loaded} state, before replay: replay only applies record
   LSNs the log covers, but the loser rollback stamps its inverse
   operations one past the head, so the post-recovery state may
   legitimately exceed it. An empty retained WAL is trivially covered:
   the snapshot's own head anchors the log. *)
let retained_log ~path db records =
  match records with
  | [] -> Ok None
  | records ->
    let* wal = Disk_format.wal_log ~path records in
    let durable_head = Log.head wal in
    let* () =
      List.fold_left
        (fun acc tbl ->
           let* () = acc in
           let m = Nbsc_storage.Table.max_lsn tbl in
           if Lsn.(m > durable_head) then
             Error
               (Nbsc_error.corrupt ~path ~lsn:(Lsn.to_int m)
                  (Printf.sprintf
                     "table %s reflects lsn %s beyond the durable log head \
                      %s: a group-commit suffix acked before the snapshot \
                      was lost"
                     (Nbsc_storage.Table.name tbl) (Lsn.to_string m)
                     (Lsn.to_string durable_head)))
           else Ok ())
        (Ok ())
        (Nbsc_storage.Catalog.tables (Db.catalog db))
    in
    let* () =
      match Recovery.check_fits (Db.catalog db) wal with
      | Ok () -> Ok ()
      | Error (lsn, why) ->
        Error
          (Nbsc_error.corrupt ~path ~lsn:(Lsn.to_int lsn)
             ("record does not fit its table: " ^ why))
    in
    Ok (Some wal)

let open_dir ~dir =
  let* () = remove_orphan_tmps dir in
  let* pdb = load_snapshot ~dir in
  let wpath = wal_path dir in
  let* wal = read_checked Disk_format.Wal wpath in
  (* Physically trim a torn tail before the append channel reopens.
     Crash-during-recovery site: the trim is atomic, so a crash before
     or after it reopens into the same decision. *)
  let* () =
    if wal.Disk_format.torn > 0 then begin
      Fault.hit "recovery_truncate";
      trim_tail wpath wal.Disk_format.torn
    end
    else Ok ()
  in
  (* Crash recovery over the retained log suffix. The parsed WAL
     becomes the {e live} in-memory log: a resumed transformation's
     propagator must be able to re-read the retained records, and new
     appends must continue the same LSN sequence. *)
  (* Crash-during-recovery site: snapshot loaded, before redo/undo
     mutate the freshly loaded catalog (consulted even when the
     retained log is empty — the replay step still happens). Replay is
     idempotent, so a second crash mid-recovery reopens into the same
     replay. *)
  Fault.hit "recovery_replay";
  let* retained = retained_log ~path:wpath pdb wal.Disk_format.payloads in
  let report, log =
    match retained with
    | None -> (None, Db.log pdb) (* empty log based at the snapshot head *)
    | Some wal -> (Some (Recovery.replay_into (Db.catalog pdb) wal), wal)
  in
  let pdb = Db.of_parts (Db.catalog pdb) ~log in
  (* Retained records carry transaction ids from the previous life;
     fresh ids must not collide with them (a resumed propagator skips
     loser ids, and recovery groups records by id). *)
  let max_txn = ref Log_record.system_txn in
  Log.iter log (fun r -> max_txn := Stdlib.max !max_txn r.Log_record.txn);
  Nbsc_txn.Manager.bump_txn_ids (Db.manager pdb) ~above:!max_txn;
  let* out = open_wal_channel wpath in
  let t = make_t ~dir ~pdb ~out ~report in
  attach_sink t;
  (* Everything below the retained WAL's first record is durable in the
     snapshot; the retained suffix itself must stay in memory until the
     jobs it carries are resumed (their propagators then pin their own
     positions) and a new checkpoint advances the floor. *)
  Nbsc_txn.Manager.set_durable_floor (Db.manager pdb) (Log.base log);
  Ok t

let db t = t.pdb

let checkpoint t =
  let log = Db.log t.pdb in
  (* Group-commit barrier first: the snapshot below reflects every
     acknowledged commit, including those whose records still sit in
     the buffered sink. Publishing it without flushing them would let a
     crash at either snapshot fault site keep the {e old} snapshot with
     an on-disk WAL missing the acked suffix — a durability violation
     the ack already promised away. *)
  Nbsc_txn.Manager.flush_commits (Db.manager t.pdb);
  if Nbsc_txn.Manager.disk_full (Db.manager t.pdb) then
    (* The barrier could not reach disk: publishing a snapshot that
       reflects unflushed commits would violate the coverage invariant
       recovery checks. Refuse; the checkpoint can rerun once space
       returns. *)
    Error (`Disk_full "checkpoint refused: the WAL flush found no space")
  else begin
    (* The snapshot's coverage point: everything at or below this LSN is
       reflected in the snapshot once it publishes (the [Job_state]
       records appended below land above it). Becomes the manager's new
       durable floor for in-memory truncation. *)
    let snap_head = Log.head log in
    let persists =
      List.map (fun (name, thunk) -> (name, thunk ())) (Db.job_persists t.pdb)
    in
    let rebuilt = List.concat_map (fun (_, p) -> p.Db.rebuilt) persists in
    match Snapshot.write ~without_rows:rebuilt t.pdb with
    | Error e -> Error e
    | Ok produce ->
      (* Snapshot first, WAL second: a crash between the two leaves the
         new snapshot with the old (longer) WAL, which replays
         idempotently. The reverse order could pair a truncated WAL with
         the old snapshot and lose records. *)
      let* () = write_snapshot ~dir:t.dir produce in
      (* Only now re-emit every persistable job's resume state. The
         ordering is load-bearing: a [Job_state] on disk must imply the
         published snapshot already reflects the job's work up to that
         position — resuming from a position {e ahead} of the targets
         would silently skip log records. The other direction is safe: a
         crash leaving an older [Job_state] with a newer snapshot merely
         replays an overlap, and replay is idempotent. The records land
         in the current WAL via the sink and — having LSNs above every
         low-water mark — survive the rewrite below. *)
      List.iter
        (fun (name, (p : Db.job_persist)) ->
           ignore
             (Log.append log ~txn:Log_record.system_txn ~prev_lsn:Lsn.zero
                (Log_record.Job_state { job = name; state = p.Db.job_state })))
        persists;
      (* Truncate the WAL down to the suffix in-flight jobs still need:
         every live record at or above the oldest propagator position
         (low watermark — the {e next} record that job will read, so the
         record at the watermark itself must survive). With no
         persistable jobs the WAL empties, as a classical checkpoint
         would. *)
      let first =
        List.fold_left
          (fun acc (_, (p : Db.job_persist)) ->
             if Lsn.(p.Db.low_water < acc) then p.Db.low_water else acc)
          (Lsn.next (Log.head log)) persists
        |> Lsn.max (Lsn.next (Log.base log))
      in
      let* () = io (fun () -> close_out t.out) in
      let rewritten = rewrite_wal t ~first in
      (* The lines still buffered (the [Job_state] records above, when
         the disk refused their flush) are in the new file once it
         publishes. Until then they stay buffered: dropping them would
         leave a gap in the old file that later appends cannot close. *)
      if Result.is_ok rewritten then begin
        Buffer.clear t.buf;
        t.wal_first <- first
      end;
      (* Reopen the append channel whether or not the rewrite published.
         A rewrite that failed ([`Disk_full], [`Io]) never renamed, so the
         old wal.nbsc is intact, and the snapshot just published with the
         old WAL is a pair recovery accepts (replay is LSN-idempotent): the
         store stays writable and the error goes back to the caller. *)
      let* out = open_wal_channel (wal_path t.dir) in
      t.out <- out;
      attach_sink t;
      let* () = rewritten in
      (* Mirror the on-disk trim in memory: with the snapshot durable,
         records at or below its head are only needed by whoever pinned
         them (active transactions cannot exist here — [Snapshot.write]
         refuses them — but propagators can). *)
      let mgr = Db.manager t.pdb in
      Nbsc_txn.Manager.set_durable_floor mgr snap_head;
      ignore (Nbsc_txn.Manager.truncate_wal mgr);
      ignore (Nbsc_txn.Manager.gc_versions mgr);
      Ok ()
  end

let crash t =
  if not t.closed then begin
    t.closed <- true;
    let log = Db.log t.pdb in
    Log.set_sink log None;
    Log.set_syncer log None;
    (* No flush: the buffered suffix is lost, which is the point — the
       on-disk log ends at the last group-commit barrier (or torn tail,
       injected explicitly). *)
    Buffer.clear t.buf;
    close_out_noerr t.out
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    let log = Db.log t.pdb in
    Log.set_sink log None;
    Log.set_syncer log None;
    flush_buf t;
    close_out t.out
  end

let last_recovery t = t.report

let pending_jobs t =
  match t.report with Some r -> r.Recovery.jobs | None -> []

let pp_error = Nbsc_error.pp
