open Nbsc_value
open Nbsc_wal
open Nbsc_storage
open Nbsc_txn

type error = Nbsc_error.t

(* Line format (every payload is a Codec chunk list):
     H:<head-lsn>
     T:<name>|<schema chunks>
     I:<table>|<index name>|<columns...>     (hash index)
     O:<table>|<index name>|<columns...>     (ordered index)
     R:<table>|<lsn>|<counter>|<flag>|<aux>|<row chunks>
   '|' never appears unescaped because each field is itself a
   length-prefixed chunk inside one Codec string. *)

let encode_schema schema =
  let cols =
    List.concat_map
      (fun c ->
         [ c.Schema.col_name;
           (match c.Schema.col_ty with
            | Value.TInt -> "int"
            | Value.TFloat -> "float"
            | Value.TBool -> "bool"
            | Value.TText -> "text");
           (if c.Schema.nullable then "1" else "0") ])
      (Schema.columns schema)
  in
  Codec.encode_string_list
    (string_of_int (Schema.arity schema)
     :: (cols @ Schema.key_names schema))

let decode_schema s =
  match Codec.decode_string_list s with
  | n :: rest ->
    let n = int_of_string n in
    let rec take_cols k acc rest =
      if k = 0 then (List.rev acc, rest)
      else
        match rest with
        | name :: ty :: nullable :: rest ->
          let col_ty =
            match ty with
            | "int" -> Value.TInt
            | "float" -> Value.TFloat
            | "bool" -> Value.TBool
            | "text" -> Value.TText
            | _ -> failwith "Snapshot: bad column type"
          in
          take_cols (k - 1)
            (Schema.column ~nullable:(nullable = "1") name col_ty :: acc)
            rest
        | _ -> failwith "Snapshot: truncated schema"
    in
    let cols, key = take_cols n [] rest in
    Schema.make ~key cols
  | [] -> failwith "Snapshot: empty schema"

let flag_to_string = function Record.Consistent -> "C" | Record.Unknown -> "U"

let flag_of_string = function
  | "C" -> Record.Consistent
  | "U" -> Record.Unknown
  | _ -> failwith "Snapshot: bad flag"

(* The lines are streamed, never built as strings: each one is encoded
   into one reused buffer with the WAL sink's buffer-direct encoders,
   whose bytes equal the string encoders' ([Codec.encode_string_list]
   of the same fields), and handed to [emit]. Only the row composite
   needs a second buffer. Both belong to one run of the producer, so a
   writer that retries can simply run it again. *)
let write ?(without_rows = []) db =
  match Manager.active_snapshot (Db.manager db) with
  | (_ :: _) as active -> Error (`Active_transactions (List.map fst active))
  | [] ->
    Ok
      (fun emit ->
         let line = Buffer.create 256 and row = Buffer.create 256 in
         let start tag =
           Buffer.clear line;
           Buffer.add_string line tag
         in
         start "H:";
         Buffer.add_string line (Lsn.to_string (Log.head (Db.log db)));
         emit line;
         List.iter
           (fun table ->
              let name = Table.name table in
              start "T:";
              Codec.add_chunk line name;
              Codec.add_chunk line (encode_schema (Table.schema table));
              emit line;
              let index tag (ix_name, columns) =
                start tag;
                List.iter (Codec.add_chunk line) (name :: ix_name :: columns);
                emit line
              in
              List.iter (index "I:") (Table.index_definitions table);
              List.iter (index "O:") (Table.ordered_index_definitions table);
              if not (List.mem name without_rows) then
                Table.iter table (fun _ record ->
                    start "R:";
                    Codec.add_chunk line name;
                    Codec.add_chunk line (Lsn.to_string record.Record.lsn);
                    Codec.add_chunk line (string_of_int record.Record.counter);
                    Codec.add_chunk line (flag_to_string record.Record.flag);
                    Codec.add_chunk line (string_of_int record.Record.aux);
                    Buffer.clear row;
                    Codec.encode_row_into row record.Record.row;
                    Codec.add_chunk_of_buffer line row;
                    emit line))
           (List.sort
              (fun a b -> String.compare (Table.name a) (Table.name b))
              (Catalog.tables (Db.catalog db))))

let save db =
  Result.map
    (fun produce ->
       let lines = ref [] in
       produce (fun line -> lines := Buffer.contents line :: !lines);
       List.rev !lines)
    (write db)

let load lines =
  try
    let head = ref Lsn.zero in
    let catalog = Catalog.create () in
    List.iter
      (fun line ->
         if String.length line < 2 || line.[1] <> ':' then
           failwith "Snapshot: malformed line";
         let payload = String.sub line 2 (String.length line - 2) in
         match line.[0] with
         | 'H' -> head := Lsn.of_int (int_of_string payload)
         | 'T' ->
           (match Codec.decode_string_list payload with
            | [ name; schema ] ->
              ignore
                (Catalog.create_table catalog ~name (decode_schema schema))
            | _ -> failwith "Snapshot: bad table line")
         | 'I' ->
           (match Codec.decode_string_list payload with
            | table :: ix_name :: columns ->
              Table.add_index (Catalog.find catalog table) ~name:ix_name
                ~columns
            | _ -> failwith "Snapshot: bad index line")
         | 'O' ->
           (match Codec.decode_string_list payload with
            | table :: ix_name :: columns ->
              Table.add_ordered_index (Catalog.find catalog table)
                ~name:ix_name ~columns
            | _ -> failwith "Snapshot: bad ordered index line")
         | 'R' ->
           (match Codec.decode_string_list payload with
            | [ table; lsn; counter; flag; aux; row ] ->
              let tbl = Catalog.find catalog table in
              (match
                 Table.insert tbl
                   ~lsn:(Lsn.of_int (int_of_string lsn))
                   ~counter:(int_of_string counter)
                   ~flag:(flag_of_string flag)
                   ~aux:(int_of_string aux)
                   (Codec.decode_row row)
               with
               | Ok () -> ()
               | Error `Duplicate_key -> failwith "Snapshot: duplicate row")
            | _ -> failwith "Snapshot: bad row line")
         | _ -> failwith "Snapshot: unknown line kind")
      lines;
    Ok (Db.of_parts catalog ~log:(Log.create ~base:!head ()))
  with
  | Failure m -> Error (Nbsc_error.corrupt m)
  | Not_found -> Error (Nbsc_error.corrupt "reference to unknown table")

let pp_error = Nbsc_error.pp
