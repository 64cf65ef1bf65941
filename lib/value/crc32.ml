(* CRC-32 (IEEE 802.3 polynomial, reflected), the checksum every
   durable line carries. Table-driven: 256-entry table computed once at
   module initialisation, one lookup + xor per byte. Implemented here
   rather than pulled in as a dependency — the container toolchain is
   frozen, and the algorithm is 20 lines.

   The running value is a native [int] (63 bits hold the 32 easily), so
   the per-byte loop allocates nothing; only the finished checksum is
   boxed as the [int32] of the interface. *)

type t = int32

let poly = 0xEDB88320

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then (!c lsr 1) lxor poly else !c lsr 1
      done;
      !c)

let update crc byte =
  (crc lsr 8) lxor Array.unsafe_get table ((crc lxor byte) land 0xff)

let start = 0xffffffff

let finish crc = Int32.of_int (crc lxor 0xffffffff)

let of_substring s ~pos ~len =
  let crc = ref start in
  for i = pos to pos + len - 1 do
    crc := update !crc (Char.code (String.unsafe_get s i))
  done;
  finish !crc

let of_string s = of_substring s ~pos:0 ~len:(String.length s)

(* Over a [Buffer.t] without materialising its contents — the WAL sink
   and the checkpoint writers checksum each encoded line straight out
   of a reused buffer. [Buffer.nth] is O(1). *)
let of_buffer b =
  let crc = ref start in
  for i = 0 to Buffer.length b - 1 do
    crc := update !crc (Char.code (Buffer.nth b i))
  done;
  finish !crc

let equal = Int32.equal

let hex_digits = "0123456789abcdef"

(* Bits 0-31 of [Int32.to_int c] are the checksum's bits whatever its
   sign, so each nibble can be read off the native int. *)
let hex_digit c i = hex_digits.[(Int32.to_int c lsr (4 * (7 - i))) land 0xf]

let add_hex buf c =
  for i = 0 to 7 do
    Buffer.add_char buf (hex_digit c i)
  done

let to_hex c = String.init 8 (hex_digit c)

let of_hex s =
  if String.length s <> 8 then None
  else
    let ok = ref true in
    String.iter
      (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> () | _ -> ok := false)
      s;
    if not !ok then None
    else
      (* [Int32.of_string] accepts the full unsigned 32-bit range for
         hexadecimal literals. *)
      match Int32.of_string ("0x" ^ s) with
      | c -> Some c
      | exception Failure _ -> None
