(* Unit and property tests for the value/row/schema/codec layer. *)

open Nbsc_value

let v = Alcotest.testable Value.pp Value.equal

let test_compare_order () =
  Alcotest.(check bool) "null smallest" true
    (Value.compare Value.Null (Value.Int min_int) < 0);
  Alcotest.(check bool) "int order" true
    (Value.compare (Value.Int 1) (Value.Int 2) < 0);
  Alcotest.(check bool) "text order" true
    (Value.compare (Value.Text "a") (Value.Text "b") < 0);
  Alcotest.(check bool) "cross type stable" true
    (Value.compare (Value.Bool true) (Value.Int 0) < 0)

let test_type_of () =
  Alcotest.(check bool) "null has no type" true (Value.type_of Value.Null = None);
  Alcotest.(check bool) "int" true (Value.type_of (Value.Int 3) = Some Value.TInt)

let test_codec_roundtrip () =
  let cases =
    [ Value.Null; Value.Int 0; Value.Int (-42); Value.Int max_int;
      Value.Float 3.14; Value.Float nan; Value.Float (-0.);
      Value.Float infinity; Value.Bool true; Value.Bool false;
      Value.Text ""; Value.Text "with:colons|pipes\\and\nnewlines";
      Value.Text (String.make 1000 'x') ]
  in
  List.iter
    (fun value ->
       let decoded = Value.decode (Value.encode value) in
       match value with
       | Value.Float f when Float.is_nan f ->
         (match decoded with
          | Value.Float g -> Alcotest.(check bool) "nan" true (Float.is_nan g)
          | _ -> Alcotest.fail "nan decoded to non-float")
       | _ -> Alcotest.check v "roundtrip" value decoded)
    cases

let test_codec_rejects_garbage () =
  List.iter
    (fun s ->
       Alcotest.check_raises ("decode " ^ s) (Failure "")
         (fun () ->
            try ignore (Value.decode s)
            with Failure _ -> raise (Failure "")))
    [ ""; "Q"; "I"; "Inot-an-int"; "T5:ab"; "T2:abc"; "Bx" ]

let test_row_ops () =
  let r = Row.make [ Value.Int 1; Value.Text "a"; Value.Null ] in
  Alcotest.(check int) "arity" 3 (Row.arity r);
  let r2 = Row.set r 1 (Value.Text "b") in
  Alcotest.check v "functional update" (Value.Text "a") (Row.get r 1);
  Alcotest.check v "updated copy" (Value.Text "b") (Row.get r2 1);
  let p = Row.project r [ 2; 0 ] in
  Alcotest.check v "project order" (Value.Int 1) (Row.get p 1);
  Alcotest.(check bool) "all_null" true (Row.is_all_null (Row.all_null 4));
  Alcotest.(check bool) "not all_null" false (Row.is_all_null r)

(* The codec encodes rows and change lists into a buffer only. *)
let row_bytes row =
  let buf = Buffer.create 32 in
  Codec.encode_row_into buf row;
  Buffer.contents buf

let changes_bytes changes =
  let buf = Buffer.create 32 in
  Codec.encode_changes_into buf changes;
  Buffer.contents buf

let test_row_codec () =
  let rows =
    [ Row.make [];
      Row.make [ Value.Null ];
      Row.make [ Value.Int 5; Value.Text "x:y|z"; Value.Bool false;
                 Value.Float 2.5; Value.Null ] ]
  in
  List.iter
    (fun row ->
       Alcotest.(check bool) "row roundtrip" true
         (Row.equal row (Codec.decode_row (row_bytes row))))
    rows;
  let changes = [ (0, Value.Int 9); (3, Value.Text "t") ] in
  let decoded = Codec.decode_changes (changes_bytes changes) in
  Alcotest.(check bool) "changes roundtrip" true (changes = decoded)

let test_schema_validation () =
  let c = Schema.column in
  Alcotest.check_raises "duplicate column" (Invalid_argument "")
    (fun () ->
       try
         ignore
           (Schema.make ~key:[ "a" ]
              [ c "a" Value.TInt; c "a" Value.TText ])
       with Invalid_argument _ -> raise (Invalid_argument ""));
  Alcotest.check_raises "unknown key" (Invalid_argument "")
    (fun () ->
       try ignore (Schema.make ~key:[ "zz" ] [ c "a" Value.TInt ])
       with Invalid_argument _ -> raise (Invalid_argument ""));
  Alcotest.check_raises "empty key" (Invalid_argument "")
    (fun () ->
       try ignore (Schema.make ~key:[] [ c "a" Value.TInt ])
       with Invalid_argument _ -> raise (Invalid_argument ""))

let test_schema_lookup () =
  let c = Schema.column in
  let s =
    Schema.make ~key:[ "b"; "a" ]
      ~candidate_keys:[ [ "c" ] ]
      [ c "a" Value.TInt; c "b" Value.TText; c "c" Value.TFloat ]
  in
  Alcotest.(check int) "position" 2 (Schema.position s "c");
  Alcotest.(check bool) "key order preserved" true
    (Schema.key_positions s = [ 1; 0 ]);
  Alcotest.(check int) "two candidate keys" 2
    (List.length (Schema.candidate_keys s));
  Alcotest.(check bool) "mem" true (Schema.mem s "a");
  Alcotest.(check bool) "not mem" false (Schema.mem s "zz")

(* Properties *)

let value_gen =
  QCheck.Gen.(
    oneof
      [ return Value.Null;
        map (fun i -> Value.Int i) int;
        map (fun f -> Value.Float f) float;
        map (fun b -> Value.Bool b) bool;
        map (fun s -> Value.Text s) string ])

let arb_value = QCheck.make ~print:Value.to_string value_gen

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"value codec roundtrips" ~count:500 arb_value
    (fun value ->
       match value with
       | Value.Float f when Float.is_nan f ->
         (match Value.decode (Value.encode value) with
          | Value.Float g -> Float.is_nan g
          | _ -> false)
       | _ -> Value.equal value (Value.decode (Value.encode value)))

let prop_compare_total =
  QCheck.Test.make ~name:"compare is antisymmetric" ~count:500
    (QCheck.pair arb_value arb_value)
    (fun (a, b) ->
       let c1 = Value.compare a b and c2 = Value.compare b a in
       (c1 = 0) = (c2 = 0) && (c1 < 0) = (c2 > 0))

let prop_hash_consistent =
  QCheck.Test.make ~name:"equal values hash equally" ~count:500 arb_value
    (fun a -> Value.hash a = Value.hash (Value.decode (Value.encode a))
              || Float.is_nan (match a with Value.Float f -> f | _ -> 0.))

let arb_row =
  QCheck.make
    ~print:(fun r -> Row.to_string r)
    QCheck.Gen.(map Row.make (list_size (int_bound 8) value_gen))

let prop_row_codec =
  QCheck.Test.make ~name:"row codec roundtrips" ~count:300 arb_row
    (fun row ->
       let row =
         Array.map
           (function Value.Float f when Float.is_nan f -> Value.Null | x -> x)
           row
       in
       Row.equal row (Codec.decode_row (row_bytes row)))

(* CRC-32 known answers: "123456789" -> cbf43926 is the standard check
   value of the IEEE 802.3 CRC; zlib's crc32 gives the same three. *)
let test_crc32_known_answers () =
  let hex s = Crc32.to_hex (Crc32.of_string s) in
  Alcotest.(check string) "empty" "00000000" (hex "");
  Alcotest.(check string) "a" "e8b7be43" (hex "a");
  Alcotest.(check string) "check value" "cbf43926" (hex "123456789")

let test_crc32_windows () =
  let crc =
    Alcotest.testable
      (fun ppf c -> Format.pp_print_string ppf (Crc32.to_hex c))
      Crc32.equal
  in
  let s = "xx123456789yyy" in
  Alcotest.check crc "substring" (Crc32.of_string "123456789")
    (Crc32.of_substring s ~pos:2 ~len:9);
  let b = Buffer.create 4 in
  Buffer.add_string b "123456789";
  Alcotest.check crc "buffer" (Crc32.of_string "123456789") (Crc32.of_buffer b);
  Alcotest.check crc "empty buffer" (Crc32.of_string "")
    (Crc32.of_buffer (Buffer.create 1))

let test_crc32_hex () =
  Alcotest.(check string) "zero-padded" "0000abcd" (Crc32.to_hex 0x0000abcdl);
  Alcotest.(check (option int32)) "inverse" (Some 0x0000abcdl)
    (Crc32.of_hex (Crc32.to_hex 0x0000abcdl));
  Alcotest.(check (option int32)) "high bit" (Some 0xcbf43926l)
    (Crc32.of_hex "CBF43926");
  let b = Buffer.create 8 in
  Crc32.add_hex b 0xcbf43926l;
  Alcotest.(check string) "add_hex" "cbf43926" (Buffer.contents b);
  List.iter
    (fun bad ->
       Alcotest.(check (option int32)) bad None (Crc32.of_hex bad))
    [ ""; "abcd"; "0000abcdz"; "0000abcg"; "-000abcd" ]

let () =
  Alcotest.run "value"
    [ ( "value",
        [ Alcotest.test_case "compare order" `Quick test_compare_order;
          Alcotest.test_case "type_of" `Quick test_type_of;
          Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "codec rejects garbage" `Quick
            test_codec_rejects_garbage ] );
      ( "row",
        [ Alcotest.test_case "row ops" `Quick test_row_ops;
          Alcotest.test_case "row codec" `Quick test_row_codec ] );
      ( "schema",
        [ Alcotest.test_case "validation" `Quick test_schema_validation;
          Alcotest.test_case "lookup" `Quick test_schema_lookup ] );
      ( "crc32",
        [ Alcotest.test_case "known answers" `Quick test_crc32_known_answers;
          Alcotest.test_case "substring and buffer" `Quick test_crc32_windows;
          Alcotest.test_case "hex round trip" `Quick test_crc32_hex ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_codec_roundtrip; prop_compare_total; prop_hash_consistent;
            prop_row_codec ] ) ]
