(** Wire codec for rows and row fragments.

    The write-ahead log stores rows and partial-row updates as strings
    so a log can be serialized, shipped or replayed byte-for-byte (the
    paper's method works from the log alone, so the log must be
    self-contained). Every encoding is a sequence of length-prefixed
    chunks, ["<len>:<bytes>"], and every encoder has an exact inverse.

    Chunks, rows and change lists have one encoder each, written
    straight into a caller-supplied buffer: the WAL sink encodes one
    record per write operation and the snapshot one line per row, and
    neither must build nested composite strings just to copy them.
    Their decoders read the bytes back from a string.

    Every encoder takes an {e integer writer} as its first argument and
    writes each integer of the encoding through it: the length
    prefixes, [Int] values and [Text] lengths. The two writers append
    the same bytes, so an encoding does not depend on the writer; they
    differ only in what they cost. *)

val decode_row : string -> Row.t
(** Inverse of {!encode_row_into}. *)

val decode_changes : string -> (int * Value.t) list
(** Inverse of {!encode_changes_into}. *)

val encode_string_list : string list -> string
val decode_string_list : string -> string list

(** {2 Integer writers} *)

val add_int : Buffer.t -> int -> unit
(** Append the decimal digits of an integer: exactly the bytes of
    [string_of_int n], a ['-'] first for a negative one, [min_int]
    included. Allocates nothing. The snapshot writer's. *)

val add_string_of_int : Buffer.t -> int -> unit
(** [Buffer.add_string buf (string_of_int n)]: the same bytes as
    {!add_int}, through one fresh string per call. The WAL sink's. *)

(** {2 Buffer-direct encoding} *)

val add_chunk : (Buffer.t -> int -> unit) -> Buffer.t -> string -> unit
(** Append one length-prefixed chunk. *)

val add_chunk_of_buffer :
  (Buffer.t -> int -> unit) -> Buffer.t -> Buffer.t -> unit
(** Append the contents of the second buffer as one chunk. *)

val add_int_chunk : (Buffer.t -> int -> unit) -> Buffer.t -> int -> unit
(** [add_chunk w buf (string_of_int n)], the digits written by [w]. *)

val add_value_chunk : (Buffer.t -> int -> unit) -> Buffer.t -> Value.t -> unit
(** [add_chunk w buf (Value.encode v)] minus the intermediate string. *)

val encode_row_into : (Buffer.t -> int -> unit) -> Buffer.t -> Row.t -> unit
(** Append one value chunk per column. The appended bytes are the
    {e chunks} of the row, so wrap them with {!add_chunk_of_buffer}
    where the row is itself one field of a composite. *)

val encode_changes_into :
  (Buffer.t -> int -> unit) -> Buffer.t -> (int * Value.t) list -> unit
(** Positional updates, as carried by update log records: a position
    chunk then a value chunk per change. *)
