(** CRC-32 (IEEE 802.3), the per-line checksum of the on-disk format.

    Every WAL line and snapshot line is framed as
    [<8 lowercase hex chars>:<payload>]; the hex field is the CRC-32 of
    the payload bytes. A single flipped bit anywhere in a line — payload
    or checksum field — is guaranteed to be detected; longer burst
    errors are detected with probability [1 - 2{^-32}]. *)

type t = int32

val of_string : string -> t

val of_substring : string -> pos:int -> len:int -> t

val of_buffer : Buffer.t -> t
(** Checksum a buffer's current contents without copying them out.
    The WAL sink and the checkpoint writers frame every line this way,
    straight out of a reused buffer; equal to {!of_string} of
    [Buffer.contents]. *)

val equal : t -> t -> bool

val add_hex : Buffer.t -> t -> unit
(** Append {!to_hex}'s 8 characters without building the string. *)

val to_hex : t -> string
(** Always exactly 8 lowercase hex characters (zero-padded). *)

val of_hex : string -> t option
(** Inverse of {!to_hex}; [None] unless given exactly 8 hex digits. *)
