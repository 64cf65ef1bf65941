(* Tests for the write-ahead log: record codec, buffer, cursors. *)

open Nbsc_value
open Nbsc_wal

let sample_row = Row.make [ Value.Int 7; Value.Text "x"; Value.Null ]
let sample_key = Row.make [ Value.Int 7 ]

(* One row exercising every constructor and the encoding's edge cases:
   NULL, extreme ints, non-finite and signed-zero floats (round-trip
   through Int64 bits), both booleans, the empty string, and text
   containing every delimiter the chunk format must be immune to
   (':' length separators, backslashes, and a decoy "<len>:" prefix). *)
let edge_row =
  Row.make
    [ Value.Null; Value.Int max_int; Value.Int min_int;
      Value.Float Float.nan; Value.Float (-0.); Value.Float Float.infinity;
      Value.Bool true; Value.Bool false; Value.Text "";
      Value.Text "a:b\\c|d"; Value.Text "7:seven" ]

let bodies =
  [ Log_record.Begin;
    Log_record.Commit;
    Log_record.Abort_begin;
    Log_record.Abort_done;
    Log_record.Op (Log_record.Insert { table = "t"; row = sample_row });
    Log_record.Op
      (Log_record.Delete { table = "t"; key = sample_key; before = sample_row });
    Log_record.Op
      (Log_record.Update
         { table = "weird|name:with\\chars";
           key = sample_key;
           changes = [ (1, Value.Text "new") ];
           before = [ (1, Value.Text "old") ] });
    Log_record.Clr
      { undo_next = Lsn.of_int 3;
        op = Log_record.Insert { table = "t"; row = sample_row } };
    Log_record.Fuzzy_mark { active = [ (3, Lsn.of_int 1); (9, Lsn.of_int 5) ] };
    Log_record.Fuzzy_mark { active = [] };
    Log_record.Cc_begin { table = "t"; key = sample_key };
    Log_record.Cc_ok { table = "t"; key = sample_key; image = sample_row };
    Log_record.Checkpoint { active = [ (1, Lsn.of_int 1) ] };
    Log_record.Op (Log_record.Insert { table = "t"; row = edge_row });
    Log_record.Op
      (Log_record.Update
         { table = "t";
           key = sample_key;
           changes = [ (0, Value.Text ""); (3, Value.Float Float.nan) ];
           before = [ (0, Value.Null); (3, Value.Float (-0.)) ] });
    Log_record.Job_state { job = "foj#7"; state = "3:foj1:P" };
    Log_record.Job_done { job = "foj#7" } ]

(* The v2 WAL format itself: the exact bytes of the [i]-th entry of
   [bodies] as record [i + 1] of transaction [i], with [prev_lsn] [i]
   (the watermarks' bytes are in [test_legacy_watermarks]). A store
   written by any earlier build holds these bytes, so an encoder change
   that moves one breaks every WAL on disk even when encode and decode
   still agree with each other. *)
let bodies_bytes =
  [ "1:11:01:05:begin";
    "1:21:11:16:commit";
    "1:31:21:211:abort_begin";
    "1:41:31:310:abort_done";
    "1:51:41:42:op3:ins1:t13:2:I74:T1:x1:N";
    "1:61:51:52:op3:del1:t4:2:I713:2:I74:T1:x1:N";
    "1:71:61:62:op3:upd21:weird|name:with\\chars4:2:I711:1:16:T3:new11:1:16:T3:old";
    "1:81:71:73:clr1:33:ins1:t13:2:I74:T1:x1:N";
    "1:91:81:85:fuzzy12:1:31:11:91:5";
    "2:101:91:95:fuzzy0:";
    "2:112:102:108:cc_begin1:t4:2:I7";
    "2:122:112:115:cc_ok1:t4:2:I713:2:I74:T1:x1:N";
    "2:132:122:124:ckpt6:1:11:1";
    "2:142:132:132:op3:ins1:t159:1:N20:I461168601842738790321:I-461168601842738790420:F922112023704109056121:F-922337203685477580820:F92188684372274053122:Bt2:Bf3:T0:10:T7:a:b\\c|d10:T7:7:seven";
    "2:152:142:142:op3:upd1:t4:2:I734:1:03:T0:1:320:F922112023704109056133:1:01:N1:321:F-9223372036854775808";
    "2:162:152:153:job5:foj#78:3:foj1:P";
    "2:172:162:168:job_done5:foj#7" ]

let test_record_roundtrip () =
  List.iteri
    (fun i (body, bytes) ->
       let r =
         { Log_record.lsn = Lsn.of_int (i + 1);
           txn = i;
           prev_lsn = Lsn.of_int i;
           body }
       in
       Alcotest.(check string) (Printf.sprintf "bytes %d" i) bytes
         (Log_record.encode r);
       let r' = Log_record.decode bytes in
       Alcotest.(check string)
         (Printf.sprintf "body %d" i)
         (Format.asprintf "%a" Log_record.pp r)
         (Format.asprintf "%a" Log_record.pp r'))
    (List.combine bodies bodies_bytes)

(* No writer produces [Watermark] records any more, but an earlier
   DBLog-style populator wrote them into WALs of the current format.
   These are the exact bytes it encoded for a low and a high watermark
   of job "foj": they must still decode, to the inert record, and
   re-encode unchanged. *)
let test_legacy_watermarks () =
  List.iter
    (fun (bytes, lsn, high) ->
       let r = Log_record.decode bytes in
       Alcotest.(check bool) (bytes ^ " decodes") true
         (r
          = { Log_record.lsn = Lsn.of_int lsn;
              txn = Log_record.system_txn;
              prev_lsn = Lsn.zero;
              body = Log_record.Watermark { job = "foj"; high } });
       Alcotest.(check string) (bytes ^ " re-encodes") bytes
         (Log_record.encode r))
    [ ("2:121:01:05:wmark3:foj2:lo", 12, false);
      ("2:151:01:05:wmark3:foj2:hi", 15, true) ]

let test_append_get () =
  let log = Log.create () in
  Alcotest.(check int) "empty" 0 (Log.length log);
  Alcotest.(check bool) "head zero" true (Lsn.equal (Log.head log) Lsn.zero);
  let l1 = Log.append log ~txn:1 ~prev_lsn:Lsn.zero Log_record.Begin in
  let l2 = Log.append log ~txn:1 ~prev_lsn:l1 Log_record.Commit in
  Alcotest.(check int) "lsn 1" 1 (Lsn.to_int l1);
  Alcotest.(check int) "lsn 2" 2 (Lsn.to_int l2);
  Alcotest.(check bool) "get 1" true ((Log.get log l1).Log_record.body = Log_record.Begin);
  Alcotest.(check bool) "get 2" true ((Log.get log l2).Log_record.body = Log_record.Commit);
  Alcotest.check_raises "get out of range" Not_found (fun () ->
      ignore (Log.get log (Lsn.of_int 3)))

let test_growth () =
  let log = Log.create () in
  for i = 1 to 5000 do
    ignore (Log.append log ~txn:i ~prev_lsn:Lsn.zero Log_record.Begin)
  done;
  Alcotest.(check int) "5000 records" 5000 (Log.length log);
  Alcotest.(check int) "txn of 4321" 4321 (Log.get log (Lsn.of_int 4321)).Log_record.txn

let test_fold_bounds () =
  let log = Log.create () in
  for i = 1 to 10 do
    ignore (Log.append log ~txn:i ~prev_lsn:Lsn.zero Log_record.Begin)
  done;
  let txns ?from ?upto () =
    Log.fold log ?from ?upto ~init:[] ~f:(fun acc r -> r.Log_record.txn :: acc)
    |> List.rev
  in
  Alcotest.(check (list int)) "all" [1;2;3;4;5;6;7;8;9;10] (txns ());
  Alcotest.(check (list int)) "from 8" [8;9;10] (txns ~from:(Lsn.of_int 8) ());
  Alcotest.(check (list int)) "upto 3" [1;2;3] (txns ~upto:(Lsn.of_int 3) ());
  Alcotest.(check (list int)) "window" [4;5]
    (txns ~from:(Lsn.of_int 4) ~upto:(Lsn.of_int 5) ())

let test_cursor () =
  let log = Log.create () in
  let l1 = Log.append log ~txn:1 ~prev_lsn:Lsn.zero Log_record.Begin in
  ignore (Log.append log ~txn:2 ~prev_lsn:Lsn.zero Log_record.Begin);
  let c = Log.Cursor.make log ~from:l1 in
  Alcotest.(check int) "lag 2" 2 (Log.Cursor.lag c);
  Alcotest.(check bool) "peek is 1" true
    ((Option.get (Log.Cursor.peek c)).Log_record.txn = 1);
  Alcotest.(check bool) "next is 1" true
    ((Option.get (Log.Cursor.next c)).Log_record.txn = 1);
  Alcotest.(check bool) "next is 2" true
    ((Option.get (Log.Cursor.next c)).Log_record.txn = 2);
  Alcotest.(check bool) "exhausted" true (Log.Cursor.next c = None);
  Alcotest.(check int) "lag 0" 0 (Log.Cursor.lag c);
  (* The cursor sees records appended after its creation. *)
  ignore (Log.append log ~txn:3 ~prev_lsn:Lsn.zero Log_record.Begin);
  Alcotest.(check int) "lag 1 again" 1 (Log.Cursor.lag c);
  Alcotest.(check bool) "next is 3" true
    ((Option.get (Log.Cursor.next c)).Log_record.txn = 3)

(* Serialize through the persist-boundary codec and rebuild — exactly
   what a durable round trip does. *)
let codec_roundtrip log =
  Log.to_records log
  |> List.map Log_record.encode
  |> List.map Log_record.decode
  |> Log.of_records

let test_serialization_roundtrip () =
  let log = Log.create () in
  (* Chain each record to the same transaction's previous record —
     of_records validates the back-pointer chains. *)
  let last = Hashtbl.create 8 in
  List.iteri
    (fun i body ->
       let txn = i mod 3 in
       let prev =
         match Hashtbl.find_opt last txn with Some l -> l | None -> Lsn.zero
       in
       Hashtbl.replace last txn (Log.append log ~txn ~prev_lsn:prev body))
    bodies;
  let log' = codec_roundtrip log in
  Alcotest.(check int) "same length" (Log.length log) (Log.length log');
  Log.iter log (fun r ->
      let r' = Log.get log' r.Log_record.lsn in
      Alcotest.(check string) "same record"
        (Format.asprintf "%a" Log_record.pp r)
        (Format.asprintf "%a" Log_record.pp r'))

(* {2 Segmented storage and truncation} *)

let append_n log n =
  for i = 1 to n do
    ignore (Log.append log ~txn:i ~prev_lsn:Lsn.zero Log_record.Begin)
  done

let test_segment_boundaries () =
  (* Tiny segments so a handful of records crosses several edges. *)
  let log = Log.create ~segment_size:4 () in
  append_n log 10;
  Alcotest.(check int) "segments" 3 (Log.segments log);
  Alcotest.(check int) "length" 10 (Log.length log);
  (* get on both sides of the 4|5 and 8|9 edges *)
  List.iter
    (fun i ->
       Alcotest.(check int)
         (Printf.sprintf "get %d" i)
         i
         (Log.get log (Lsn.of_int i)).Log_record.txn)
    [ 1; 4; 5; 8; 9; 10 ];
  let all =
    Log.fold log ?from:None ?upto:None ~init:[] ~f:(fun acc r -> r.Log_record.txn :: acc) |> List.rev
  in
  Alcotest.(check (list int)) "fold crosses edges"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] all;
  let window =
    Log.fold log ~from:(Lsn.of_int 3) ~upto:(Lsn.of_int 9) ~init:[]
      ~f:(fun acc r -> r.Log_record.txn :: acc)
    |> List.rev
  in
  Alcotest.(check (list int)) "windowed fold" [ 3; 4; 5; 6; 7; 8; 9 ] window;
  let seen = ref [] in
  Log.iter log (fun r -> seen := r.Log_record.txn :: !seen);
  Alcotest.(check int) "iter sees all" 10 (List.length !seen);
  let c = Log.Cursor.make log ~from:(Lsn.of_int 3) in
  let walked = ref [] in
  let rec go () =
    match Log.Cursor.next c with
    | Some r ->
      walked := r.Log_record.txn :: !walked;
      go ()
    | None -> ()
  in
  go ();
  Alcotest.(check (list int)) "cursor crosses edges"
    [ 3; 4; 5; 6; 7; 8; 9; 10 ] (List.rev !walked)

let test_truncate_mid_segment () =
  let log = Log.create ~segment_size:4 () in
  append_n log 10;
  (* Keep >= 6: record 6 sits mid-segment (segment 5..8), so that
     segment survives while 1..4 is freed whole. *)
  Log.truncate_to log (Lsn.of_int 6);
  Alcotest.(check int) "base" 5 (Lsn.to_int (Log.base log));
  Alcotest.(check int) "length" 5 (Log.length log);
  Alcotest.(check int) "segments after cut" 2 (Log.segments log);
  Alcotest.(check int) "truncated_total" 5 (Log.truncated_total log);
  Alcotest.(check int) "kept 6" 6 (Log.get log (Lsn.of_int 6)).Log_record.txn;
  Alcotest.(check int) "head unchanged" 10 (Lsn.to_int (Log.head log));
  (* Default fold starts at the first live record now. *)
  let all =
    Log.fold log ?from:None ?upto:None ~init:[] ~f:(fun acc r -> r.Log_record.txn :: acc) |> List.rev
  in
  Alcotest.(check (list int)) "fold from base" [ 6; 7; 8; 9; 10 ] all;
  (* Truncating backwards is a clamp, not an error. *)
  Log.truncate_to log (Lsn.of_int 2);
  Alcotest.(check int) "no un-truncate" 5 (Lsn.to_int (Log.base log));
  (* Truncating past the head empties the log but keeps the head. *)
  Log.truncate_to log (Lsn.of_int 100);
  Alcotest.(check int) "emptied" 0 (Log.length log);
  Alcotest.(check int) "head survives" 10 (Lsn.to_int (Log.head log));
  Alcotest.(check int) "all truncated" 10 (Log.truncated_total log);
  let l11 = Log.append log ~txn:11 ~prev_lsn:Lsn.zero Log_record.Begin in
  Alcotest.(check int) "append continues" 11 (Lsn.to_int l11)

let test_truncated_errors () =
  let log = Log.create ~segment_size:4 () in
  append_n log 10;
  let stale = Log.Cursor.make log ~from:(Lsn.of_int 2) in
  Log.truncate_to log (Lsn.of_int 6);
  Alcotest.check_raises "get below base" (Log.Truncated (Lsn.of_int 5))
    (fun () -> ignore (Log.get log (Lsn.of_int 5)));
  Alcotest.check_raises "cursor below base" (Log.Truncated (Lsn.of_int 5))
    (fun () -> ignore (Log.Cursor.make log ~from:(Lsn.of_int 5)));
  Alcotest.(check bool) "cursor at base+1 fine" true
    (Log.Cursor.make log ~from:(Lsn.of_int 6) |> Log.Cursor.peek
     |> Option.is_some);
  (* An unpinned cursor overtaken by truncation must fail loudly, not
     silently resume from the wrong record. *)
  Alcotest.check_raises "stale cursor next" (Log.Truncated (Lsn.of_int 2))
    (fun () -> ignore (Log.Cursor.next stale));
  Alcotest.check_raises "fold below base" (Log.Truncated (Lsn.of_int 3))
    (fun () ->
       Log.fold log ~from:(Lsn.of_int 3) ?upto:None ~init:()
         ~f:(fun () _ -> ()));
  Alcotest.check_raises "get at head+1 still Not_found" Not_found (fun () ->
      ignore (Log.get log (Lsn.of_int 11)))

let test_roundtrip_after_truncate () =
  let log = Log.create ~segment_size:4 () in
  append_n log 10;
  Log.truncate_to log (Lsn.of_int 6);
  let log' = codec_roundtrip log in
  Alcotest.(check int) "base carried" 5 (Lsn.to_int (Log.base log'));
  Alcotest.(check int) "length carried" 5 (Log.length log');
  Alcotest.(check int) "head carried" 10 (Lsn.to_int (Log.head log'));
  Log.iter log (fun r ->
      let r' = Log.get log' r.Log_record.lsn in
      Alcotest.(check string) "same record"
        (Format.asprintf "%a" Log_record.pp r)
        (Format.asprintf "%a" Log_record.pp r'));
  Alcotest.check_raises "prefix stays unavailable"
    (Log.Truncated (Lsn.of_int 5)) (fun () ->
      ignore (Log.get log' (Lsn.of_int 5)))

let test_high_water () =
  let log = Log.create ~segment_size:4 () in
  append_n log 10;
  Alcotest.(check int) "high water" 10 (Log.live_high_water log);
  Log.truncate_to log (Lsn.of_int 9);
  (* Truncation frees records but the high-water mark remembers. *)
  Alcotest.(check int) "live now" 2 (Log.length log);
  Alcotest.(check int) "high water sticks" 10 (Log.live_high_water log);
  for i = 11 to 14 do
    ignore (Log.append log ~txn:i ~prev_lsn:Lsn.zero Log_record.Begin)
  done;
  Alcotest.(check int) "live grew" 6 (Log.length log);
  Alcotest.(check int) "high water still 10" 10 (Log.live_high_water log)

let test_lsn_ops () =
  let open Lsn in
  Alcotest.(check bool) "zero < first" true (zero < first);
  Alcotest.(check bool) "next" true (equal (next first) (of_int 2));
  Alcotest.(check bool) "max" true (equal (max (of_int 3) (of_int 7)) (of_int 7));
  Alcotest.(check bool) "ge" true (of_int 5 >= of_int 5)

(* Property: any sequence of bodies written to a log survives a
   serialize/deserialize trip. *)
let arb_body =
  let open QCheck.Gen in
  let value =
    oneof
      [ return Value.Null; map (fun i -> Value.Int i) int;
        map (fun f -> Value.Float f) float;
        map (fun b -> Value.Bool b) bool;
        map (fun s -> Value.Text s) small_string;
        (* Edge cases the uniform generators rarely hit: extremes,
           non-finite floats, and delimiter-shaped text. *)
        oneofl
          [ Value.Int max_int; Value.Int min_int;
            Value.Float Float.nan; Value.Float Float.infinity;
            Value.Float Float.neg_infinity; Value.Float (-0.);
            Value.Text ""; Value.Text ":"; Value.Text "\\";
            Value.Text "3:abc" ] ]
  in
  let row = map Row.make (list_size (int_range 1 4) value) in
  let body =
    oneof
      [ return Log_record.Begin;
        return Log_record.Commit;
        return Log_record.Abort_begin;
        return Log_record.Abort_done;
        map
          (fun row -> Log_record.Op (Log_record.Insert { table = "q"; row }))
          row;
        map2
          (fun key before ->
             Log_record.Op (Log_record.Delete { table = "q"; key; before }))
          row row;
        map2
          (fun key v ->
             Log_record.Op
               (Log_record.Update
                  { table = "q"; key; changes = [ (0, v) ]; before = [ (0, Value.Null) ] }))
          row value ]
  in
  QCheck.make (QCheck.Gen.list_size (int_range 0 30) body)

let prop_log_serialization =
  QCheck.Test.make ~name:"log serialization roundtrips" ~count:100 arb_body
    (fun bodies ->
       let log = Log.create () in
       List.iteri
         (fun i body -> ignore (Log.append log ~txn:i ~prev_lsn:Lsn.zero body))
         bodies;
       let log' = codec_roundtrip log in
       Log.length log = Log.length log'
       && Log.fold log ?from:None ?upto:None ~init:true ~f:(fun acc r ->
           acc
           && Format.asprintf "%a" Log_record.pp r
              = Format.asprintf "%a" Log_record.pp (Log.get log' r.Log_record.lsn)))

let () =
  Alcotest.run "wal"
    [ ( "records",
        [ Alcotest.test_case "codec roundtrip" `Quick test_record_roundtrip;
          Alcotest.test_case "legacy watermarks decode" `Quick
            test_legacy_watermarks ] );
      ( "buffer",
        [ Alcotest.test_case "append/get" `Quick test_append_get;
          Alcotest.test_case "growth" `Quick test_growth;
          Alcotest.test_case "fold bounds" `Quick test_fold_bounds;
          Alcotest.test_case "cursor" `Quick test_cursor;
          Alcotest.test_case "serialization" `Quick test_serialization_roundtrip;
          Alcotest.test_case "lsn ops" `Quick test_lsn_ops ] );
      ( "segments",
        [ Alcotest.test_case "boundaries" `Quick test_segment_boundaries;
          Alcotest.test_case "truncate mid-segment" `Quick
            test_truncate_mid_segment;
          Alcotest.test_case "truncated errors" `Quick test_truncated_errors;
          Alcotest.test_case "roundtrip after truncate" `Quick
            test_roundtrip_after_truncate;
          Alcotest.test_case "high water" `Quick test_high_water ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_log_serialization ] ) ]
