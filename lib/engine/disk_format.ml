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

let unframe ~path ~line ?lsn s =
  let corrupt = Nbsc_error.corrupt ~path ~line ?lsn in
  if String.length s < 9 || s.[8] <> ':' then begin
    Obs.Counter.incr (crc_failures ());
    Error (corrupt "malformed line: missing checksum frame")
  end
  else
    let hex = String.sub s 0 8 in
    match Crc32.of_hex hex with
    | None ->
      Obs.Counter.incr (crc_failures ());
      Error (corrupt "malformed line: checksum field is not hex")
    | Some expected ->
      let payload = String.sub s 9 (String.length s - 9) in
      let actual = Crc32.of_string payload in
      if Crc32.equal actual expected then Ok payload
      else begin
        Obs.Counter.incr (crc_failures ());
        Error
          (Nbsc_error.corrupt ~path ~line ?lsn ~expected_crc:hex
             ~actual_crc:(Crc32.to_hex actual) "checksum mismatch")
      end

(* {2 File headers} *)

let looks_versioned l =
  String.length l >= 5 && String.equal (String.sub l 0 5) "nbsc:"

let check_header ~magic ~path = function
  | Some l when String.equal l magic -> Ok ()
  | Some l when looks_versioned l ->
    Error
      (Nbsc_error.corrupt ~path ~line:1
         (Printf.sprintf
            "on-disk format %S is not supported by this build (expects %S)" l
            magic))
  | Some _ ->
    Error
      (Nbsc_error.corrupt ~path ~line:1
         (Printf.sprintf
            "missing format header (expected %S): this looks like a pre-v%d \
             database directory, which this build does not read"
            magic version))
  | None ->
    Error (Nbsc_error.corrupt ~path "empty file: missing format header")

(* {2 Snapshot trailer}

   The WAL detects truncation structurally (prev-LSN chain + the
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
