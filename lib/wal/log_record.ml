open Nbsc_value

type txn_id = int

let system_txn = 0

type op =
  | Insert of { table : string; row : Row.t }
  | Delete of { table : string; key : Row.Key.t; before : Row.t }
  | Update of {
      table : string;
      key : Row.Key.t;
      changes : (int * Value.t) list;
      before : (int * Value.t) list;
    }

let op_table = function
  | Insert { table; _ } | Delete { table; _ } | Update { table; _ } -> table

let op_key schema = function
  | Insert { row; _ } -> Row.Key.of_row row (Schema.key_positions schema)
  | Delete { key; _ } | Update { key; _ } -> key

let invert ~key = function
  | Insert { table; row } -> Delete { table; key; before = row }
  | Delete { table; key = _; before } -> Insert { table; row = before }
  | Update { table; key; changes; before } ->
    Update { table; key; changes = before; before = changes }

type body =
  | Begin
  | Commit
  | Abort_begin
  | Abort_done
  | Op of op
  | Clr of { undo_next : Lsn.t; op : op }
  | Fuzzy_mark of { active : (txn_id * Lsn.t) list }
  | Cc_begin of { table : string; key : Row.Key.t }
  | Cc_ok of { table : string; key : Row.Key.t; image : Row.t }
  | Checkpoint of { active : (txn_id * Lsn.t) list }
  | Job_state of { job : string; state : string }
  | Job_done of { job : string }
  | Watermark of { job : string; high : bool }

type t = {
  lsn : Lsn.t;
  txn : txn_id;
  prev_lsn : Lsn.t;
  body : body;
}

(* Encoding: a chunk list (see {!Codec}). The first three chunks are
   the LSN, the transaction and the previous LSN; then a tag and the
   body's fields. A row, a change list or an active-transaction list is
   one composite chunk holding its own chunks. *)

let decode_active s =
  let rec pair = function
    | [] -> []
    | [ _ ] -> failwith "Log_record: odd active list"
    | t :: l :: rest -> (int_of_string t, Lsn.of_int (int_of_string l)) :: pair rest
  in
  pair (Codec.decode_string_list s)

let decode_op = function
  | [ "ins"; table; row ] -> Insert { table; row = Codec.decode_row row }
  | [ "del"; table; key; before ] ->
    Delete
      { table; key = Codec.decode_row key; before = Codec.decode_row before }
  | [ "upd"; table; key; changes; before ] ->
    Update
      { table;
        key = Codec.decode_row key;
        changes = Codec.decode_changes changes;
        before = Codec.decode_changes before }
  | _ -> failwith "Log_record: bad op encoding"

let decode_body = function
  | [ "begin" ] -> Begin
  | [ "commit" ] -> Commit
  | [ "abort_begin" ] -> Abort_begin
  | [ "abort_done" ] -> Abort_done
  | "op" :: rest -> Op (decode_op rest)
  | "clr" :: undo_next :: rest ->
    Clr { undo_next = Lsn.of_int (int_of_string undo_next); op = decode_op rest }
  | [ "fuzzy"; active ] -> Fuzzy_mark { active = decode_active active }
  | [ "cc_begin"; table; key ] -> Cc_begin { table; key = Codec.decode_row key }
  | [ "cc_ok"; table; key; image ] ->
    Cc_ok { table; key = Codec.decode_row key; image = Codec.decode_row image }
  | [ "ckpt"; active ] -> Checkpoint { active = decode_active active }
  | [ "job"; job; state ] -> Job_state { job; state }
  | [ "job_done"; job ] -> Job_done { job }
  | [ "wmark"; job; bound ] ->
    (match bound with
     | "hi" -> Watermark { job; high = true }
     | "lo" -> Watermark { job; high = false }
     | _ -> failwith "Log_record: bad watermark bound")
  | _ -> failwith "Log_record: bad body encoding"

(* The persist sink encodes straight into its output buffer, without
   materializing the record (or its nested row / change-list composites)
   as intermediate strings. [scratch] holds one composite at a time; the
   caller provides it so a long-lived sink can reuse the same two
   buffers for every record. *)

let add_composite ~scratch buf fill =
  Buffer.clear scratch;
  fill scratch;
  Codec.add_chunk_of_buffer buf scratch

let encode_active_into ~scratch buf active =
  add_composite ~scratch buf (fun b ->
      List.iter
        (fun (t, l) ->
           Codec.add_chunk b (string_of_int t);
           Codec.add_chunk b (Lsn.to_string l))
        active)

let encode_op_into ~scratch buf = function
  | Insert { table; row } ->
    Codec.add_chunk buf "ins";
    Codec.add_chunk buf table;
    add_composite ~scratch buf (fun b -> Codec.encode_row_into b row)
  | Delete { table; key; before } ->
    Codec.add_chunk buf "del";
    Codec.add_chunk buf table;
    add_composite ~scratch buf (fun b -> Codec.encode_row_into b key);
    add_composite ~scratch buf (fun b -> Codec.encode_row_into b before)
  | Update { table; key; changes; before } ->
    Codec.add_chunk buf "upd";
    Codec.add_chunk buf table;
    add_composite ~scratch buf (fun b -> Codec.encode_row_into b key);
    add_composite ~scratch buf (fun b -> Codec.encode_changes_into b changes);
    add_composite ~scratch buf (fun b -> Codec.encode_changes_into b before)

let encode_body_into ~scratch buf = function
  | Begin -> Codec.add_chunk buf "begin"
  | Commit -> Codec.add_chunk buf "commit"
  | Abort_begin -> Codec.add_chunk buf "abort_begin"
  | Abort_done -> Codec.add_chunk buf "abort_done"
  | Op op ->
    Codec.add_chunk buf "op";
    encode_op_into ~scratch buf op
  | Clr { undo_next; op } ->
    Codec.add_chunk buf "clr";
    Codec.add_chunk buf (Lsn.to_string undo_next);
    encode_op_into ~scratch buf op
  | Fuzzy_mark { active } ->
    Codec.add_chunk buf "fuzzy";
    encode_active_into ~scratch buf active
  | Cc_begin { table; key } ->
    Codec.add_chunk buf "cc_begin";
    Codec.add_chunk buf table;
    add_composite ~scratch buf (fun b -> Codec.encode_row_into b key)
  | Cc_ok { table; key; image } ->
    Codec.add_chunk buf "cc_ok";
    Codec.add_chunk buf table;
    add_composite ~scratch buf (fun b -> Codec.encode_row_into b key);
    add_composite ~scratch buf (fun b -> Codec.encode_row_into b image)
  | Checkpoint { active } ->
    Codec.add_chunk buf "ckpt";
    encode_active_into ~scratch buf active
  | Job_state { job; state } ->
    Codec.add_chunk buf "job";
    Codec.add_chunk buf job;
    Codec.add_chunk buf state
  | Job_done { job } ->
    Codec.add_chunk buf "job_done";
    Codec.add_chunk buf job
  | Watermark { job; high } ->
    Codec.add_chunk buf "wmark";
    Codec.add_chunk buf job;
    Codec.add_chunk buf (if high then "hi" else "lo")

let encode_into ~scratch buf t =
  Codec.add_chunk buf (Lsn.to_string t.lsn);
  Codec.add_chunk buf (string_of_int t.txn);
  Codec.add_chunk buf (Lsn.to_string t.prev_lsn);
  encode_body_into ~scratch buf t.body

let encode t =
  let buf = Buffer.create 64 in
  encode_into ~scratch:(Buffer.create 64) buf t;
  Buffer.contents buf

let decode s =
  match Codec.decode_string_list s with
  | lsn :: txn :: prev :: body ->
    { lsn = Lsn.of_int (int_of_string lsn);
      txn = int_of_string txn;
      prev_lsn = Lsn.of_int (int_of_string prev);
      body = decode_body body }
  | _ -> failwith "Log_record: bad record encoding"

let pp_op ppf = function
  | Insert { table; row } -> Format.fprintf ppf "insert %s %a" table Row.pp row
  | Delete { table; key; _ } ->
    Format.fprintf ppf "delete %s key=%a" table Row.Key.pp key
  | Update { table; key; changes; _ } ->
    Format.fprintf ppf "update %s key=%a set{%a}" table Row.Key.pp key
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
         (fun ppf (i, v) -> Format.fprintf ppf "#%d:=%a" i Value.pp v))
      changes

let pp_active ppf active =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    (fun ppf (t, l) -> Format.fprintf ppf "T%d@%a" t Lsn.pp l)
    ppf active

let pp_body ppf = function
  | Begin -> Format.pp_print_string ppf "BEGIN"
  | Commit -> Format.pp_print_string ppf "COMMIT"
  | Abort_begin -> Format.pp_print_string ppf "ABORT"
  | Abort_done -> Format.pp_print_string ppf "ABORT-DONE"
  | Op op -> pp_op ppf op
  | Clr { undo_next; op } ->
    Format.fprintf ppf "CLR(undo_next=%a) %a" Lsn.pp undo_next pp_op op
  | Fuzzy_mark { active } ->
    Format.fprintf ppf "FUZZY-MARK[%a]" pp_active active
  | Cc_begin { table; key } ->
    Format.fprintf ppf "CC-BEGIN %s %a" table Row.Key.pp key
  | Cc_ok { table; key; image } ->
    Format.fprintf ppf "CC-OK %s %a image=%a" table Row.Key.pp key Row.pp image
  | Checkpoint { active } ->
    Format.fprintf ppf "CHECKPOINT[%a]" pp_active active
  | Job_state { job; _ } -> Format.fprintf ppf "JOB-STATE %s" job
  | Job_done { job } -> Format.fprintf ppf "JOB-DONE %s" job
  | Watermark { job; high } ->
    Format.fprintf ppf "WMARK-%s %s" (if high then "HI" else "LO") job

let pp ppf t =
  Format.fprintf ppf "%a T%d prev=%a %a" Lsn.pp t.lsn t.txn Lsn.pp t.prev_lsn
    pp_body t.body
