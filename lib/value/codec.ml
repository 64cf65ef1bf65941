(* All composite encodings are sequences of length-prefixed chunks:
   "<len>:<bytes>" repeated. Length prefixes make the format immune to
   any byte appearing inside a chunk. *)

let put_chunk buf s =
  Buffer.add_string buf (string_of_int (String.length s));
  Buffer.add_char buf ':';
  Buffer.add_string buf s

let chunks_of_string s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match String.index_from_opt s i ':' with
      | None -> failwith "Codec: missing length prefix"
      | Some j ->
        let len =
          try int_of_string (String.sub s i (j - i))
          with _ -> failwith "Codec: bad length prefix"
        in
        if j + 1 + len > n then failwith "Codec: chunk overruns input";
        go (j + 1 + len) (String.sub s (j + 1) len :: acc)
  in
  go 0 []

let string_of_chunks chunks =
  let buf = Buffer.create 64 in
  List.iter (put_chunk buf) chunks;
  Buffer.contents buf

let decode_row s = Array.of_list (List.map Value.decode (chunks_of_string s))

let decode_changes s =
  let rec pair = function
    | [] -> []
    | [ _ ] -> failwith "Codec.decode_changes: odd chunk count"
    | i :: v :: rest ->
      let pos =
        try int_of_string i
        with _ -> failwith "Codec.decode_changes: bad position"
      in
      (pos, Value.decode v) :: pair rest
  in
  pair (chunks_of_string s)

let encode_string_list = string_of_chunks
let decode_string_list = chunks_of_string

(* Buffer-direct encoders for the WAL persist sink: encoding there runs
   once per log record, and building the nested composite strings only
   to copy them into an output buffer showed up in the engine bench. *)

let add_chunk = put_chunk

let add_chunk_of_buffer buf inner =
  Buffer.add_string buf (string_of_int (Buffer.length inner));
  Buffer.add_char buf ':';
  Buffer.add_buffer buf inner

(* One value as a chunk, without materialising [Value.encode]'s
   intermediate string: the encoded length of every constructor is
   known (or computable from one digit string), so the length prefix
   can be written first and the payload streamed behind it. *)
let add_value_chunk buf (v : Value.t) =
  match v with
  | Value.Null -> Buffer.add_string buf "1:N"
  | Value.Bool true -> Buffer.add_string buf "2:Bt"
  | Value.Bool false -> Buffer.add_string buf "2:Bf"
  | Value.Int x ->
    let d = string_of_int x in
    Buffer.add_string buf (string_of_int (1 + String.length d));
    Buffer.add_string buf ":I";
    Buffer.add_string buf d
  | Value.Float x ->
    let d = Int64.to_string (Int64.bits_of_float x) in
    Buffer.add_string buf (string_of_int (1 + String.length d));
    Buffer.add_string buf ":F";
    Buffer.add_string buf d
  | Value.Text s ->
    let d = string_of_int (String.length s) in
    Buffer.add_string buf
      (string_of_int (1 + String.length d + 1 + String.length s));
    Buffer.add_string buf ":T";
    Buffer.add_string buf d;
    Buffer.add_char buf ':';
    Buffer.add_string buf s

let encode_row_into buf (r : Row.t) = Array.iter (add_value_chunk buf) r

let encode_changes_into buf changes =
  List.iter
    (fun (i, v) ->
       put_chunk buf (string_of_int i);
       add_value_chunk buf v)
    changes
