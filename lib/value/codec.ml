(* All composite encodings are sequences of length-prefixed chunks:
   "<len>:<bytes>" repeated. Length prefixes make the format immune to
   any byte appearing inside a chunk. *)

(* {1 Integer writers}

   Every integer an encoder writes (a length prefix, an [Int] value, a
   [Text] length) goes through the writer it is given. Both writers
   append the bytes of [string_of_int n]. *)

(* The digits of [m <= 0], most significant first. Counting on the
   non-positive side reaches [min_int], whose negation overflows. *)
let rec add_digits buf m =
  if m <= -10 then add_digits buf (m / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (m mod 10)))

let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf n
  end
  else add_digits buf (-n)

let add_string_of_int buf n = Buffer.add_string buf (string_of_int n)

(* [String.length (string_of_int n)], sign included. *)
let int_width n =
  let rec go m w = if m <= -10 then go (m / 10) (w + 1) else w in
  if n < 0 then go n 2 else go (-n) 1

(* {1 Chunk encoders} *)

let add_chunk w buf s =
  w buf (String.length s);
  Buffer.add_char buf ':';
  Buffer.add_string buf s

let add_chunk_of_buffer w buf inner =
  w buf (Buffer.length inner);
  Buffer.add_char buf ':';
  Buffer.add_buffer buf inner

let add_int_chunk w buf n =
  w buf (int_width n);
  Buffer.add_char buf ':';
  w buf n

(* One value as a chunk, without materialising [Value.encode]'s
   intermediate string: the encoded length of every constructor is
   known (or computable from its digits), so the length prefix can be
   written first and the payload streamed behind it. *)
let add_value_chunk w buf (v : Value.t) =
  match v with
  | Value.Null -> Buffer.add_string buf "1:N"
  | Value.Bool true -> Buffer.add_string buf "2:Bt"
  | Value.Bool false -> Buffer.add_string buf "2:Bf"
  | Value.Int x ->
    w buf (1 + int_width x);
    Buffer.add_string buf ":I";
    w buf x
  | Value.Float x ->
    let d = Int64.to_string (Int64.bits_of_float x) in
    w buf (1 + String.length d);
    Buffer.add_string buf ":F";
    Buffer.add_string buf d
  | Value.Text s ->
    let n = String.length s in
    w buf (1 + int_width n + 1 + n);
    Buffer.add_string buf ":T";
    w buf n;
    Buffer.add_char buf ':';
    Buffer.add_string buf s

(* Each call builds a closure. A loop would not, but the WAL sink calls
   these on every user write, whose cost stays as it is for now, like
   its integers (see [Log_record]). *)
let encode_row_into w buf (r : Row.t) = Array.iter (add_value_chunk w buf) r

let encode_changes_into w buf changes =
  List.iter
    (fun (i, v) ->
       add_int_chunk w buf i;
       add_value_chunk w buf v)
    changes

(* {1 Decoders} *)

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

let encode_string_list chunks =
  let buf = Buffer.create 64 in
  List.iter (add_chunk add_int buf) chunks;
  Buffer.contents buf

let decode_string_list = chunks_of_string
