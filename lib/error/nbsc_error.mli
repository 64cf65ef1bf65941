(** The one error currency of the engine and the transformation layer.

    Before this module, failures crossed layer boundaries in three
    disguises: [Failure _] exceptions (decode problems), [(_, string)
    result] (executor and job boundaries), and per-module polymorphic
    variants ([Persist.error], [Snapshot.error]). One caller-facing
    surface means one [to_string], one [pp], and pattern matches that
    keep working as modules narrow the set they can actually produce —
    every per-module error type is a subset of this variant.

    Exceptions still exist at the edges: [Invalid_argument] for
    programming-contract violations, and {!Error} to tunnel a [t]
    through code that cannot return a [result]. *)

type corruption = {
  c_path : string option;      (** which on-disk file *)
  c_line : int option;         (** 1-based line number in that file *)
  c_lsn : int option;          (** log sequence number, when decodable *)
  c_expected_crc : string option;  (** checksum the frame claimed (hex) *)
  c_actual_crc : string option;    (** checksum the payload has (hex) *)
  c_reason : string;
}
(** Structured context for a corruption report: enough to point a human
    (or [nbsc scrub]) at the exact damaged line. Every field except the
    reason is optional — corruption detected above the framing layer
    (e.g. a snapshot referencing an unknown table) has no CRC to cite. *)

type t =
  [ `Io of string             (** filesystem / WAL channel trouble *)
  | `Corrupt of corruption    (** undecodable or checksum-failed durable state *)
  | `Disk_full of string
      (** a durable append hit [ENOSPC]; the engine is degraded — reads
          and aborts proceed, new writes are refused until an append
          succeeds again *)
  | `Active_transactions of int list
      (** a sharp operation (snapshot, checkpoint) refused because
          these transactions are still running *)
  | `Invalid of string        (** rejected specification or argument *)
  | `Conflict of string       (** transaction-level refusal, rendered *)
  | `Job_failed of string * string  (** background job name, reason *)
  | `Msg of string ]          (** anything else, human-readable *)

exception Error of t
(** Carrier for contexts that cannot return a [result]. Raise with
    {!fail}. *)

val fail : t -> 'a
(** [fail e] raises [Error e]. *)

val corruption :
  ?path:string -> ?line:int -> ?lsn:int -> ?expected_crc:string ->
  ?actual_crc:string -> string -> corruption
(** Build a {!corruption} record from a reason plus whatever context
    the detection site has. *)

val corrupt :
  ?path:string -> ?line:int -> ?lsn:int -> ?expected_crc:string ->
  ?actual_crc:string -> string -> [> `Corrupt of corruption ]
(** [`Corrupt] of {!corruption} — the usual construction. *)

val in_file : string -> ([> `Corrupt of corruption ] as 'e) -> 'e
(** [in_file path e] names [path] as the file of a [`Corrupt] that
    names none; any other [e] is returned as it is. *)

val invalidf : ('a, Format.formatter, unit, t) format4 -> 'a
(** Format an [`Invalid]. *)

val corruption_to_string : corruption -> string
(** Render the reason followed by every context field present, e.g.
    ["checksum mismatch (file wal.nbsc, line 7, lsn 42, expected crc
    deadbeef, actual crc 0badf00d)"]. *)

val to_string : t -> string

val pp : Format.formatter -> t -> unit
