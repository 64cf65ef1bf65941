(** Wire codec for rows and row fragments.

    The write-ahead log stores rows and partial-row updates as strings
    so a log can be serialized, shipped or replayed byte-for-byte (the
    paper's method works from the log alone, so the log must be
    self-contained). Every encoding is a sequence of length-prefixed
    chunks, ["<len>:<bytes>"], and every encoder has an exact inverse.

    Rows and change lists have one encoder each, written straight into
    a caller-supplied buffer: the WAL sink encodes one record per write
    operation and must not build nested composite strings just to copy
    them. Their decoders read the bytes back from a string. *)

val decode_row : string -> Row.t
(** Inverse of {!encode_row_into}. *)

val decode_changes : string -> (int * Value.t) list
(** Inverse of {!encode_changes_into}. *)

val encode_string_list : string list -> string
val decode_string_list : string -> string list

(** {2 Buffer-direct encoding} *)

val add_chunk : Buffer.t -> string -> unit
(** Append one length-prefixed chunk. *)

val add_chunk_of_buffer : Buffer.t -> Buffer.t -> unit
(** Append the contents of the second buffer as one chunk. *)

val add_value_chunk : Buffer.t -> Value.t -> unit
(** [add_chunk buf (Value.encode v)] minus the intermediate string. *)

val encode_row_into : Buffer.t -> Row.t -> unit
(** Append one value chunk per column. The appended bytes are the
    {e chunks} of the row, so wrap them with {!add_chunk_of_buffer}
    where the row is itself one field of a composite. *)

val encode_changes_into : Buffer.t -> (int * Value.t) list -> unit
(** Positional updates, as carried by update log records: a position
    chunk then a value chunk per change. *)
