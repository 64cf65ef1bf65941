open Nbsc_wal
module Crc32 = Nbsc_value.Crc32
module Obs = Nbsc_obs.Obs

let version = 2

let snapshot_magic = "nbsc:snapshot:v2"
let wal_magic = "nbsc:wal:v2"

let snapshot_path dir = Filename.concat dir "snapshot.nbsc"
let wal_path dir = Filename.concat dir "wal.nbsc"

(* Storage-integrity instruments live in a registry of their own:
   corruption is detected while opening a directory, i.e. before any
   per-db registry exists, and [nbsc scrub] runs without a db at all. *)
let registry = Obs.Registry.create ()

let obs () = registry

let crc_failures () = Obs.Registry.counter registry "storage.crc_failures"
let io_retries () = Obs.Registry.counter registry "storage.io_retries"
let disk_full_stalls () = Obs.Registry.counter registry "storage.disk_full_stalls"

(* {2 Line framing}

   Every payload line is stored as [<8 hex chars>:<payload>] — the
   CRC-32 of the payload in a fixed-width field, so the separator
   cannot be confused with payload bytes (payloads may contain ':').
   The first line of each file is an unframed magic string naming the
   format version; framing the version marker would be circular (you
   need the format to know the framing). *)

let frame_into out payload =
  Crc32.add_hex out (Crc32.of_buffer payload);
  Buffer.add_char out ':';
  Buffer.add_buffer out payload

let frame payload =
  Crc32.to_hex (Crc32.of_string payload) ^ ":" ^ payload

let unframe ~path ~line s =
  let fail ?expected_crc ?actual_crc reason =
    Obs.Counter.incr (crc_failures ());
    Error (Nbsc_error.corruption ~path ~line ?expected_crc ?actual_crc reason)
  in
  if String.length s < 9 || s.[8] <> ':' then
    fail "malformed line: missing checksum frame"
  else
    let hex = String.sub s 0 8 in
    match Crc32.of_hex hex with
    | None -> fail "malformed line: checksum field is not hex"
    | Some expected ->
      let payload = String.sub s 9 (String.length s - 9) in
      let actual = Crc32.of_string payload in
      if Crc32.equal actual expected then Ok payload
      else
        fail ~expected_crc:hex ~actual_crc:(Crc32.to_hex actual)
          "checksum mismatch"

(* {2 Reading a store file} *)

let looks_versioned l =
  String.length l >= 5 && String.equal (String.sub l 0 5) "nbsc:"

let header_problem ~magic ~path l =
  Nbsc_error.corruption ~path ~line:1
    (if looks_versioned l then
       Printf.sprintf
         "on-disk format %S is not supported by this build (expects %S)" l
         magic
     else
       Printf.sprintf
         "missing format header (expected %S): this looks like a pre-v%d \
          database directory, which this build does not read"
         magic version)

(* The WAL detects truncation structurally (prev-LSN chain + the
   snapshot coverage check), but a snapshot truncated at an exact line
   boundary would simply look shorter — every surviving line still
   checksums. A framed trailer recording the payload line count closes
   that hole: rename-swapped files are written in one piece, so a
   complete snapshot always carries its trailer. *)

let trailer_tag = "@end:"

let trailer n = trailer_tag ^ string_of_int n

let trailer_count payload =
  let tl = String.length trailer_tag in
  if
    String.length payload > tl
    && String.equal (String.sub payload 0 tl) trailer_tag
  then int_of_string_opt (String.sub payload tl (String.length payload - tl))
  else None

type _ kind = Snapshot : string kind | Wal : Log_record.t kind

type 'a contents = {
  payloads : 'a list;
  torn : int;
  problems : Nbsc_error.corruption list;
}

(* One pass, one line at a time: only the decoded payloads are kept,
   never the file. The last byte, read first, tells whether the final
   line is complete; [input_line] cannot. *)
let read : type a. a kind -> string -> (a contents, _) result =
 fun kind path ->
  let corruption = Nbsc_error.corruption ~path in
  let magic, (decode : string -> a), snapshot =
    match kind with
    | Snapshot -> (snapshot_magic, Fun.id, true)
    | Wal -> (wal_magic, Log_record.decode, false)
  in
  if not (Sys.file_exists path) then
    Ok { payloads = []; torn = 0; problems = [ corruption "file missing" ] }
  else
    try
      let ic = open_in_bin path in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      let len = in_channel_length ic in
      let unterminated =
        len > 0
        && (seek_in ic (len - 1);
            input_char ic <> '\n')
      in
      seek_in ic 0;
      let torn = ref 0 and payloads = ref [] and problems = ref [] in
      let problem c = problems := c :: !problems in
      (* The next complete line; [None] at the end of the file or at its
         unterminated final line, whose length lands in [torn]. *)
      let next () =
        let start = pos_in ic in
        match input_line ic with
        | exception End_of_file -> None
        | _ when unterminated && pos_in ic = len ->
          torn := len - start;
          None
        | l -> Some l
      in
      (* [last_ok]: the last line that passed its check; [trailer]: the
         line and count of a snapshot trailer. *)
      let last_ok = ref 1 and trailer = ref None in
      let rec lines n =
        match next () with
        | None -> n - 1
        | Some l ->
          (match unframe ~path ~line:n l with
           | Error c -> problem c
           | Ok p ->
             last_ok := n;
             (match trailer_count p with
              | Some count when snapshot -> trailer := Some (n, count)
              | _ ->
                (match decode p with
                 | v -> payloads := v :: !payloads
                 | exception Failure m -> problem (corruption ~line:n m))));
          lines (n + 1)
      in
      (* One fault, one problem: a snapshot cut mid-line is reported as
         that, not also for the header or trailer the cut took; nothing
         after a wrong header is read, since the file is not in this
         format; and a last line that failed its check is not also a
         missing trailer. *)
      let cut line =
        problem
          (corruption ~line "unterminated final line in a rename-swapped file")
      in
      (match next () with
       | None when snapshot && !torn > 0 -> cut 1
       | None -> problem (corruption "empty file: missing format header")
       | Some l when not (String.equal l magic) ->
         problem (header_problem ~magic ~path l)
       | Some _ ->
         let last = lines 2 in
         (match !trailer with
          | _ when not snapshot -> ()
          | _ when !torn > 0 -> cut (last + 1)
          | Some (line, count) when line = last ->
            if count <> last - 2 then
              problem
                (corruption ~line
                   (Printf.sprintf
                      "snapshot trailer records %d payload lines but %d are \
                       present — file truncated or spliced"
                      count (last - 2)))
          | _ ->
            if !last_ok = last then
              problem
                (corruption ~line:last
                   "snapshot trailer missing — file truncated at a line \
                    boundary?")));
      Ok
        { payloads = List.rev !payloads;
          torn = !torn;
          problems = List.rev !problems }
    with Sys_error m -> Error (`Io m)

let wal_log ~path records =
  match Log.of_records records with
  | log -> Ok log
  | exception Failure m -> Error (Nbsc_error.corrupt ~path m)
