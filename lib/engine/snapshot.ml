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

let decode_schema ~table s =
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
    (match Schema.make ~key cols with
     | schema -> schema
     | exception Invalid_argument m ->
       failwith (Printf.sprintf "Snapshot: table %s: %s" table m))
  | [] -> failwith "Snapshot: empty schema"

let flag_to_string = function Record.Consistent -> "C" | Record.Unknown -> "U"

let flag_of_string = function
  | "C" -> Record.Consistent
  | "U" -> Record.Unknown
  | _ -> failwith "Snapshot: bad flag"

(* The lines are streamed, never built as strings: each one is encoded
   into one reused buffer with the codec's buffer-direct encoders, whose
   bytes equal the string encoders' ([Codec.encode_string_list] of the
   same fields), and handed to [emit]. Only the row composite needs a
   second buffer. Both belong to one run of the producer, so a writer
   that retries can simply run it again. Every integer is written as
   digits ([Codec.add_int]), so encoding a row line allocates nothing. *)
let write ?(without_rows = []) db =
  match Manager.active_snapshot (Db.manager db) with
  | (_ :: _) as active -> Error (`Active_transactions (List.map fst active))
  | [] ->
    Ok
      (fun emit ->
         let line = Buffer.create 256 and row = Buffer.create 256 in
         let ints = Codec.add_int in
         let start tag =
           Buffer.clear line;
           Buffer.add_string line tag
         in
         start "H:";
         ints line (Lsn.to_int (Log.head (Db.log db)));
         emit line;
         List.iter
           (fun table ->
              let name = Table.name table in
              start "T:";
              Codec.add_chunk ints line name;
              Codec.add_chunk ints line (encode_schema (Table.schema table));
              emit line;
              let index tag (ix_name, columns) =
                start tag;
                List.iter (Codec.add_chunk ints line)
                  (name :: ix_name :: columns);
                emit line
              in
              List.iter (index "I:") (Table.index_definitions table);
              List.iter (index "O:") (Table.ordered_index_definitions table);
              if not (List.mem name without_rows) then
                Table.iter table (fun _ (r : Record.t) ->
                    start "R:";
                    Codec.add_chunk ints line name;
                    Codec.add_int_chunk ints line (Lsn.to_int r.lsn);
                    Codec.add_int_chunk ints line r.counter;
                    Codec.add_chunk ints line (flag_to_string r.flag);
                    Codec.add_int_chunk ints line r.aux;
                    Buffer.clear row;
                    Codec.encode_row_into ints row r.row;
                    Codec.add_chunk_of_buffer ints line row;
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

(* Every line must fit the catalog the lines before it built: a line
   that passed its checksum but names an unknown table or column, or
   carries a row of the wrong arity, is [`Corrupt] here, where
   [Persist.open_dir] and the scrub both load it. *)
let load lines =
  let fail fmt = Printf.ksprintf failwith ("Snapshot: " ^^ fmt) in
  let catalog = Catalog.create () in
  let table name =
    match Catalog.find_opt catalog name with
    | Some tbl -> tbl
    | None -> fail "table %s is not defined" name
  in
  let index tag payload add =
    match Codec.decode_string_list payload with
    | name :: ix_name :: columns ->
      let tbl = table name in
      List.iter
        (fun c ->
           if not (Schema.mem (Table.schema tbl) c) then
             fail "%s %s of table %s names unknown column %s" tag ix_name
               name c)
        columns;
      add tbl ~name:ix_name ~columns
    | _ -> fail "bad %s line" tag
  in
  try
    let head = ref Lsn.zero in
    List.iter
      (fun line ->
         if String.length line < 2 || line.[1] <> ':' then
           fail "malformed line";
         let payload = String.sub line 2 (String.length line - 2) in
         match line.[0] with
         | 'H' -> head := Lsn.of_int (int_of_string payload)
         | 'T' ->
           (match Codec.decode_string_list payload with
            | [ name; schema ] ->
              if Catalog.mem catalog name then
                fail "table %s defined twice" name;
              ignore
                (Catalog.create_table catalog ~name
                   (decode_schema ~table:name schema))
            | _ -> fail "bad table line")
         | 'I' -> index "index" payload Table.add_index
         | 'O' -> index "ordered index" payload Table.add_ordered_index
         | 'R' ->
           (match Codec.decode_string_list payload with
            | [ name; lsn; counter; flag; aux; row ] ->
              let tbl = table name in
              let row = Codec.decode_row row in
              let arity = Schema.arity (Table.schema tbl) in
              if Row.arity row <> arity then
                fail "a row of table %s has %d values, its schema %d columns"
                  name (Row.arity row) arity;
              (match
                 Table.insert tbl
                   ~lsn:(Lsn.of_int (int_of_string lsn))
                   ~counter:(int_of_string counter)
                   ~flag:(flag_of_string flag)
                   ~aux:(int_of_string aux)
                   row
               with
               | Ok () -> ()
               | Error `Duplicate_key -> fail "duplicate row in table %s" name)
            | _ -> fail "bad row line")
         | _ -> fail "unknown line kind")
      lines;
    Ok (Db.of_parts catalog ~log:(Log.create ~base:!head ()))
  with Failure m -> Error (Nbsc_error.corrupt m)

let pp_error = Nbsc_error.pp
