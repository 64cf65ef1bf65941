(* Tests for the storage engine: heap tables, secondary indexes, fuzzy
   cursors, the catalog. *)

open Nbsc_value
open Nbsc_wal
open Nbsc_storage

let schema =
  Schema.make ~key:[ "a" ]
    [ Schema.column ~nullable:false "a" Value.TInt;
      Schema.column "b" Value.TText; Schema.column "c" Value.TInt ]

let mk ?(indexes = [ ("by_c", [ "c" ]) ]) () =
  Table.create ~indexes ~name:"t" schema

let row a b c = Row.make [ Value.Int a; Value.Text b; Value.Int c ]
let key a = Row.make [ Value.Int a ]
let lsn i = Lsn.of_int i

let test_insert_find_delete () =
  let t = mk () in
  Alcotest.(check bool) "insert" true (Table.insert t ~lsn:(lsn 1) (row 1 "x" 7) = Ok ());
  Alcotest.(check bool) "duplicate" true
    (Table.insert t ~lsn:(lsn 2) (row 1 "y" 8) = Error `Duplicate_key);
  Alcotest.(check int) "cardinality" 1 (Table.cardinality t);
  (match Table.find t (key 1) with
   | Some r ->
     Alcotest.(check bool) "row" true (Row.equal r.Record.row (row 1 "x" 7));
     Alcotest.(check int) "lsn" 1 (Lsn.to_int r.Record.lsn)
   | None -> Alcotest.fail "missing");
  (match Table.delete t ~lsn:(lsn 2) (key 1) with
   | Ok r -> Alcotest.(check bool) "deleted row" true (Row.equal r.Record.row (row 1 "x" 7))
   | Error `Not_found -> Alcotest.fail "delete failed");
  Alcotest.(check bool) "gone" true (Table.find t (key 1) = None);
  Alcotest.(check bool) "delete missing" true
    (Table.delete t ~lsn:(lsn 3) (key 1) = Error `Not_found)

let test_update () =
  let t = mk () in
  ignore (Table.insert t ~lsn:(lsn 1) (row 1 "x" 7));
  (match Table.update t ~lsn:(lsn 2) ~key:(key 1) [ (1, Value.Text "y") ] with
   | Ok r ->
     Alcotest.(check bool) "updated" true (Row.equal r.Record.row (row 1 "y" 7));
     Alcotest.(check int) "lsn moved" 2 (Lsn.to_int r.Record.lsn)
   | Error `Not_found -> Alcotest.fail "update failed");
  Alcotest.(check bool) "missing" true
    (Table.update t ~lsn:(lsn 3) ~key:(key 2) [ (1, Value.Text "z") ]
     = Error `Not_found);
  Alcotest.check_raises "key column refused" (Invalid_argument "")
    (fun () ->
       try ignore (Table.update t ~lsn:(lsn 4) ~key:(key 1) [ (0, Value.Int 9) ])
       with Invalid_argument _ -> raise (Invalid_argument ""))

let test_arity_checked () =
  let t = mk () in
  Alcotest.check_raises "bad arity" (Invalid_argument "")
    (fun () ->
       try ignore (Table.insert t ~lsn:(lsn 1) (Row.make [ Value.Int 1 ]))
       with Invalid_argument _ -> raise (Invalid_argument ""))

let test_index_maintenance () =
  let t = mk () in
  ignore (Table.insert t ~lsn:(lsn 1) (row 1 "x" 7));
  ignore (Table.insert t ~lsn:(lsn 2) (row 2 "y" 7));
  ignore (Table.insert t ~lsn:(lsn 3) (row 3 "z" 8));
  let c v = Row.make [ Value.Int v ] in
  let sorted l = List.sort Row.Key.compare l in
  Alcotest.(check int) "two with c=7" 2 (List.length (Table.index_lookup t ~index:"by_c" (c 7)));
  Alcotest.(check bool) "keys for c=7" true
    (sorted (Table.index_lookup t ~index:"by_c" (c 7)) = [ key 1; key 2 ]);
  (* Update moves the row between index buckets. *)
  ignore (Table.update t ~lsn:(lsn 4) ~key:(key 1) [ (2, Value.Int 8) ]);
  Alcotest.(check bool) "moved out of 7" true
    (Table.index_lookup t ~index:"by_c" (c 7) = [ key 2 ]);
  Alcotest.(check bool) "moved into 8" true
    (sorted (Table.index_lookup t ~index:"by_c" (c 8)) = [ key 1; key 3 ]);
  (* Delete removes from the index. *)
  ignore (Table.delete t ~lsn:(lsn 9) (key 3));
  Alcotest.(check bool) "delete removes" true
    (Table.index_lookup t ~index:"by_c" (c 8) = [ key 1 ]);
  Alcotest.check_raises "unknown index" Not_found (fun () ->
      ignore (Table.index_lookup t ~index:"nope" (c 1)))

let test_add_index_backfills () =
  let t = Table.create ~name:"t" schema in
  for i = 1 to 10 do
    ignore (Table.insert t ~lsn:(lsn i) (row i "x" (i mod 3)))
  done;
  Table.add_index t ~name:"late" ~columns:[ "c" ];
  (* c = i mod 3 = 0 for i in {3, 6, 9} *)
  Alcotest.(check int) "backfilled" 3
    (List.length (Table.index_lookup t ~index:"late" (Row.make [ Value.Int 0 ])));
  (* Maintained after creation too. *)
  ignore (Table.insert t ~lsn:(lsn 11) (row 11 "x" 0));
  Alcotest.(check int) "maintained" 4
    (List.length (Table.index_lookup t ~index:"late" (Row.make [ Value.Int 0 ])))

let test_set_record () =
  let t = mk () in
  ignore (Table.insert t ~lsn:(lsn 1) (row 1 "x" 7));
  let r = Option.get (Table.find t (key 1)) in
  let r' =
    Record.with_flag
      (Record.with_counter (Record.with_row r (row 1 "x2" 9)) 5)
      Record.Unknown
  in
  Alcotest.(check bool) "set ok" true (Table.set_record t ~key:(key 1) r' = Ok ());
  let got = Option.get (Table.find t (key 1)) in
  Alcotest.(check int) "counter" 5 got.Record.counter;
  Alcotest.(check bool) "flag" true (got.Record.flag = Record.Unknown);
  (* Index follows the row change. *)
  Alcotest.(check bool) "index moved" true
    (Table.index_lookup t ~index:"by_c" (Row.make [ Value.Int 9 ]) = [ key 1 ]);
  Alcotest.check_raises "key mismatch" (Invalid_argument "")
    (fun () ->
       try ignore (Table.set_record t ~key:(key 1) (Record.make ~lsn:(lsn 2) (row 2 "q" 1)))
       with Invalid_argument _ -> raise (Invalid_argument ""))

let test_fuzzy_cursor_basics () =
  let t = mk () in
  for i = 1 to 100 do
    ignore (Table.insert t ~lsn:(lsn i) (row i "x" i))
  done;
  let c = Table.Fuzzy_cursor.make t in
  let b1 = Table.Fuzzy_cursor.next_batch c ~limit:30 in
  Alcotest.(check int) "batch 1" 30 (List.length b1);
  Alcotest.(check bool) "not finished" false (Table.Fuzzy_cursor.finished c);
  let rest = ref 0 in
  while not (Table.Fuzzy_cursor.finished c) do
    rest := !rest + List.length (Table.Fuzzy_cursor.next_batch c ~limit:40)
  done;
  Alcotest.(check int) "rest" 70 !rest;
  Alcotest.(check bool) "finished" true (Table.Fuzzy_cursor.finished c);
  Alcotest.(check int) "scanned" 100 (Table.Fuzzy_cursor.scanned c)

let test_fuzzy_cursor_concurrent_mutations () =
  let t = mk () in
  for i = 1 to 50 do
    ignore (Table.insert t ~lsn:(lsn i) (row i "x" i))
  done;
  let c = Table.Fuzzy_cursor.make t in
  let b1 = Table.Fuzzy_cursor.next_batch c ~limit:20 in
  (* Delete a not-yet-scanned record, insert a new one, re-insert a
     scanned one after deleting it (the re-insert must NOT be reported
     twice). *)
  ignore (Table.delete t ~lsn:(lsn 90) (key 40));
  ignore (Table.insert t ~lsn:(lsn 51) (row 51 "new" 51));
  ignore (Table.delete t ~lsn:(lsn 91) (key 5));
  ignore (Table.insert t ~lsn:(lsn 52) (row 5 "again" 5));
  let rest = ref [] in
  while not (Table.Fuzzy_cursor.finished c) do
    rest := !rest @ Table.Fuzzy_cursor.next_batch c ~limit:100
  done;
  let all = b1 @ !rest in
  let keys =
    List.map (fun r -> Lsn.to_int (Lsn.of_int 0) |> ignore;
               match Row.get r.Record.row 0 with
               | Value.Int a -> a
               | _ -> -1) all
  in
  let sorted = List.sort_uniq compare keys in
  Alcotest.(check int) "no duplicates" (List.length keys) (List.length sorted);
  Alcotest.(check bool) "deleted unscanned not reported" true
    (not (List.mem 40 keys));
  Alcotest.(check bool) "new row may appear" true (List.mem 51 keys)

(* Compaction is off while a cursor is live, so keys deleted behind it
   leave their arrival slots in place. One call must still walk only a
   bounded number of them, and the scan must still emit every live row
   exactly once. *)
let test_fuzzy_walk_bound () =
  let t = mk ~indexes:[] () in
  let total = 10_050 and limit = 16 in
  for i = 1 to total do
    ignore (Table.insert t ~lsn:(lsn i) (row i "x" i))
  done;
  let c = Table.Fuzzy_cursor.make t in
  for i = 1 to 10_000 do
    ignore (Table.delete t ~lsn:(lsn (total + i)) (key i))
  done;
  Alcotest.(check int) "slots kept" total (Table.arrival_length t);
  let seen = ref [] and calls = ref 0 in
  while not (Table.Fuzzy_cursor.finished c) do
    let before = Table.Fuzzy_cursor.position c in
    let batch = Table.Fuzzy_cursor.next_batch c ~limit in
    incr calls;
    let walked = Table.Fuzzy_cursor.position c - before in
    if walked > 4 * limit || List.length batch > limit then
      Alcotest.failf "call %d walked %d slots, returned %d rows" !calls walked
        (List.length batch);
    List.iter
      (fun r ->
         match Row.get r.Record.row 0 with
         | Value.Int a -> seen := a :: !seen
         | _ -> Alcotest.fail "bad key")
      batch
  done;
  Table.Fuzzy_cursor.close c;
  Alcotest.(check bool) "walk spread over calls" true
    (!calls >= total / (4 * limit));
  Alcotest.(check (list int)) "every live row exactly once"
    (List.init 50 (fun i -> 10_001 + i))
    (List.sort compare !seen)

let test_arrival_compaction_under_churn () =
  let t = mk () in
  (* Sustained delete+reinsert churn over a fixed working set: without
     compaction every round appends [n] more arrival entries and the
     array grows with the churn count, not the cardinality. *)
  let n = 500 in
  for i = 1 to n do
    ignore (Table.insert t ~lsn:(lsn i) (row i "x" i))
  done;
  for round = 1 to 40 do
    for i = 1 to n do
      ignore (Table.delete t ~lsn:(lsn (100 + i)) (key i));
      ignore (Table.insert t ~lsn:(lsn ((round * n) + i)) (row i "x" i))
    done
  done;
  Alcotest.(check int) "cardinality stable" n (Table.cardinality t);
  Alcotest.(check bool)
    (Printf.sprintf "arrival_len %d within 2x cardinality"
       (Table.arrival_length t))
    true
    (Table.arrival_length t <= 2 * n);
  (* The compacted arrival order still drives a complete fuzzy scan. *)
  let c = Table.Fuzzy_cursor.make t in
  let seen = ref 0 in
  while not (Table.Fuzzy_cursor.finished c) do
    seen := !seen + List.length (Table.Fuzzy_cursor.next_batch c ~limit:64)
  done;
  Table.Fuzzy_cursor.close c;
  Alcotest.(check int) "scan still complete" n !seen

let test_live_cursor_blocks_compaction () =
  let t = mk () in
  let n = 200 in
  for i = 1 to n do
    ignore (Table.insert t ~lsn:(lsn i) (row i "x" i))
  done;
  let c = Table.Fuzzy_cursor.make t in
  ignore (Table.Fuzzy_cursor.next_batch c ~limit:10);
  (* Churn while a cursor is live: arrival entries must survive (the
     cursor's position indexes into the array). *)
  for round = 1 to 2 do
    for i = 1 to n do
      ignore (Table.delete t ~lsn:(lsn (100 + i)) (key i));
      ignore (Table.insert t ~lsn:(lsn ((round * n) + i)) (row i "x" i))
    done
  done;
  Alcotest.(check bool) "no compaction while cursor live" true
    (Table.arrival_length t > 2 * n);
  let seen = ref 10 in
  while not (Table.Fuzzy_cursor.finished c) do
    seen := !seen + List.length (Table.Fuzzy_cursor.next_batch c ~limit:64)
  done;
  Table.Fuzzy_cursor.close c;
  Table.Fuzzy_cursor.close c;  (* idempotent *)
  (* With the cursor closed the next mutation compacts. *)
  ignore (Table.delete t ~lsn:(lsn 99) (key 1));
  Alcotest.(check bool)
    (Printf.sprintf "compacted after close (len %d)" (Table.arrival_length t))
    true
    (Table.arrival_length t <= 2 * n)

let test_max_lsn_and_rows () =
  let t = mk () in
  ignore (Table.insert t ~lsn:(lsn 5) (row 1 "x" 1));
  ignore (Table.insert t ~lsn:(lsn 9) (row 2 "y" 2));
  Alcotest.(check int) "max lsn" 9 (Lsn.to_int (Table.max_lsn t));
  Alcotest.(check int) "to_rows" 2 (List.length (Table.to_rows t))

let test_catalog () =
  let cat = Catalog.create () in
  let t = Catalog.create_table cat ~name:"x" schema in
  Alcotest.(check bool) "find" true (Catalog.find cat "x" == t);
  Alcotest.(check bool) "mem" true (Catalog.mem cat "x");
  Alcotest.check_raises "duplicate name" (Invalid_argument "")
    (fun () ->
       try ignore (Catalog.create_table cat ~name:"x" schema)
       with Invalid_argument _ -> raise (Invalid_argument ""));
  Catalog.rename cat ~old_name:"x" ~new_name:"y";
  Alcotest.(check bool) "renamed" true (Catalog.mem cat "y" && not (Catalog.mem cat "x"));
  Catalog.drop cat "y";
  Alcotest.(check bool) "dropped" false (Catalog.mem cat "y");
  Alcotest.check_raises "drop missing" Not_found (fun () -> Catalog.drop cat "y")

(* An index built online from a fuzzy scan, with inserts, deletes and
   indexed-column updates landing between its steps, ends equal to a
   blocking build; until it is filled, lookups refuse it, and an
   abandoned build is completed by [add_index]. *)
let test_online_index_build () =
  let rng = Random.State.make [| 11 |] in
  let t = mk ~indexes:[] () in
  for i = 1 to 500 do
    ignore (Table.insert t ~lsn:(lsn i) (row i "x" (i mod 7)))
  done;
  let next = ref 500 in
  let churn () =
    incr next;
    let a = 1 + Random.State.int rng !next in
    match Random.State.int rng 3 with
    | 0 -> ignore (Table.insert t ~lsn:(lsn !next) (row !next "n" (a mod 9)))
    | 1 -> ignore (Table.delete t ~lsn:(lsn !next) (key a))
    | _ ->
      ignore
        (Table.update t ~lsn:(lsn !next) ~key:(key a)
           [ (2, Value.Int (Random.State.int rng 9)) ])
  in
  let blocking () =
    let copy = mk ~indexes:[] () in
    Table.iter t (fun _ r -> ignore (Table.insert copy ~lsn:r.Record.lsn r.Record.row));
    Table.add_index copy ~name:"by_c" ~columns:[ "c" ];
    Table.index_entries copy ~index:"by_c"
  in
  let refused () =
    match Table.index_lookup t ~index:"by_c" (Row.make [ Value.Int 1 ]) with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  let b = Table.Index_build.start t ~name:"by_c" ~columns:[ "c" ] in
  Alcotest.(check bool) "partial index refused" true (refused ());
  let steps = ref 0 in
  while not (Table.Index_build.step b ~limit:8) do
    incr steps;
    churn ();
    churn ()
  done;
  Table.Index_build.close b;
  Alcotest.(check bool) "took many steps" true (!steps > 20);
  Alcotest.(check bool) "filled index answers" false (refused ());
  Alcotest.(check bool) "online = blocking" true
    (Table.index_entries t ~index:"by_c" = blocking ());
  (* A second build finds it filled; an abandoned one leaves a partial
     index that [add_index] completes. *)
  Alcotest.(check bool) "already filled" true
    (Table.Index_build.step
       (Table.Index_build.start t ~name:"by_c" ~columns:[ "c" ])
       ~limit:1);
  let b2 = Table.Index_build.start t ~name:"by_d" ~columns:[ "c" ] in
  ignore (Table.Index_build.step b2 ~limit:8);
  Table.Index_build.close b2;
  churn ();
  Alcotest.(check bool) "abandoned build refused" true
    (match Table.index_entries t ~index:"by_d" with
     | _ -> false
     | exception Invalid_argument _ -> true);
  Table.add_index t ~name:"by_d" ~columns:[ "c" ];
  Alcotest.(check bool) "add_index completes it" true
    (Table.index_entries t ~index:"by_d" = blocking ())

(* A build refused for an unknown column leaves nothing behind: the
   name is free for [add_index], whose index then answers lookups. *)
let test_failed_build_leaves_no_name () =
  let t = mk ~indexes:[] () in
  for i = 1 to 20 do
    ignore (Table.insert t ~lsn:(lsn i) (row i "x" (i mod 3)))
  done;
  Alcotest.check_raises "unknown column" Not_found (fun () ->
      ignore (Table.Index_build.start t ~name:"x" ~columns:[ "nope" ]));
  Table.add_index t ~name:"x" ~columns:[ "c" ];
  Alcotest.(check int) "lookup answers" 7
    (List.length (Table.index_lookup t ~index:"x" (Row.make [ Value.Int 1 ])))

(* Property: after random inserts/updates/deletes, every index bucket
   agrees with a scan of the heap. *)
let prop_index_agrees_with_heap =
  QCheck.Test.make ~name:"index = heap projection" ~count:150
    QCheck.(list_of_size Gen.(int_bound 80)
              (triple (int_bound 20) (int_bound 5) (int_bound 2)))
    (fun ops ->
       let t = mk () in
       let l = ref 0 in
       List.iter
         (fun (a, c, action) ->
            incr l;
            match action with
            | 0 -> ignore (Table.insert t ~lsn:(lsn !l) (row a "b" c))
            | 1 ->
              ignore (Table.update t ~lsn:(lsn !l) ~key:(key a) [ (2, Value.Int c) ])
            | _ -> ignore (Table.delete t ~lsn:(lsn 1000) (key a)))
         ops;
       (* Check every c value in 0..5. *)
       List.for_all
         (fun c ->
            let via_index =
              Table.index_lookup t ~index:"by_c" (Row.make [ Value.Int c ])
              |> List.sort Row.Key.compare
            in
            let via_scan =
              Table.fold t ~init:[] ~f:(fun acc k r ->
                  if Value.equal (Row.get r.Record.row 2) (Value.Int c) then
                    k :: acc
                  else acc)
              |> List.sort Row.Key.compare
            in
            List.length via_index = List.length via_scan
            && List.for_all2 Row.Key.equal via_index via_scan)
         [ 0; 1; 2; 3; 4; 5 ])

(* Three names over two column lists: [by_c] and [by_c2] share one
   index. *)
let shared_indexes = [ ("by_c", [ "c" ]); ("by_b", [ "b" ]); ("by_c2", [ "c" ]) ]

(* Every name answers like a scan of the heap, for every value. *)
let lookups_match_scan t =
  List.for_all
    (fun (name, col, values) ->
       List.for_all
         (fun v ->
            let via_index =
              List.sort Row.Key.compare
                (Table.index_lookup t ~index:name (Row.make [ v ]))
            in
            let via_scan =
              Table.fold t ~init:[] ~f:(fun acc k r ->
                  if Value.equal (Row.get r.Record.row col) v then k :: acc
                  else acc)
              |> List.sort Row.Key.compare
            in
            List.equal Row.Key.equal via_index via_scan)
         values)
    (let cs = List.init 3 (fun i -> Value.Int i) in
     let bs = List.init 3 (fun i -> Value.Text (string_of_int i)) in
     [ ("by_c", 2, cs); ("by_b", 1, bs); ("by_c2", 2, cs) ])

(* Reference model: random inserts, updates of either indexed column
   and deletes over 3 values per column and 40 keys, so that a value's
   keys grow past the 8 a list holds and shrink back. After every step
   each name's lookups equal a heap scan and the declared names are
   all there, in order. *)
let prop_shared_index_model =
  QCheck.Test.make ~name:"shared and short-list indexes = heap scan"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 1 150)
              (quad (int_bound 39) (int_bound 2) (int_bound 2) (int_bound 4)))
    (fun ops ->
       let t = mk ~indexes:shared_indexes () in
       let l = ref 0 in
       List.for_all
         (fun (a, b, c, action) ->
            incr l;
            (match action with
             | 0 | 1 ->
               ignore (Table.insert t ~lsn:(lsn !l) (row a (string_of_int b) c))
             | 2 ->
               ignore (Table.update t ~lsn:(lsn !l) ~key:(key a) [ (2, Value.Int c) ])
             | 3 ->
               ignore
                 (Table.update t ~lsn:(lsn !l) ~key:(key a)
                    [ (1, Value.Text (string_of_int b)) ])
             | _ -> ignore (Table.delete t ~lsn:(lsn !l) (key a)));
            lookups_match_scan t
            && Table.index_definitions t = shared_indexes)
         ops)

(* Names over the same positions share one index, and still do after a
   snapshot round trip, which restores indexes through [add_index]. An
   online build keeps an index of its own. *)
let test_shared_index_survives_snapshot () =
  let module Db = Nbsc_engine.Db in
  let module Snapshot = Nbsc_engine.Snapshot in
  let db = Db.create () in
  ignore (Db.create_table db ~indexes:shared_indexes ~name:"t" schema);
  (match
     Db.load db ~table:"t"
       (List.init 30 (fun i -> row i (string_of_int (i mod 3)) (i mod 3)))
   with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "load");
  let t = Db.table db "t" in
  Alcotest.(check int) "three names, two indexes" 2 (Table.physical_indexes t);
  let t' =
    match Result.bind (Snapshot.save db) Snapshot.load with
    | Ok db' -> Db.table db' "t"
    | Error e -> Alcotest.fail (Nbsc_error.to_string e)
  in
  Alcotest.(check int) "restored: two indexes" 2 (Table.physical_indexes t');
  Alcotest.(check bool) "restored names" true
    (List.sort compare (Table.index_definitions t')
     = List.sort compare shared_indexes);
  Alcotest.(check bool) "restored lookups" true (lookups_match_scan t');
  let b = Table.Index_build.start t ~name:"by_c3" ~columns:[ "c" ] in
  while not (Table.Index_build.step b ~limit:8) do () done;
  Alcotest.(check int) "a build's own index" 3 (Table.physical_indexes t)

(* Property: a fuzzy scan over a static table returns exactly the
   table's rows. *)
let prop_fuzzy_scan_complete =
  QCheck.Test.make ~name:"fuzzy scan of static table is exact" ~count:100
    QCheck.(pair (int_range 1 17) (list_of_size Gen.(int_bound 50) (int_bound 200)))
    (fun (batch, keys) ->
       let t = mk () in
       let distinct = List.sort_uniq compare keys in
       List.iteri
         (fun i a -> ignore (Table.insert t ~lsn:(lsn (i + 1)) (row a "x" a)))
         distinct;
       let c = Table.Fuzzy_cursor.make t in
       let seen = ref 0 in
       while not (Table.Fuzzy_cursor.finished c) do
         seen := !seen + List.length (Table.Fuzzy_cursor.next_batch c ~limit:batch)
       done;
       !seen = List.length distinct)

let () =
  Alcotest.run "storage"
    [ ( "table",
        [ Alcotest.test_case "insert/find/delete" `Quick test_insert_find_delete;
          Alcotest.test_case "update" `Quick test_update;
          Alcotest.test_case "arity checked" `Quick test_arity_checked;
          Alcotest.test_case "set_record" `Quick test_set_record;
          Alcotest.test_case "max_lsn and rows" `Quick test_max_lsn_and_rows;
          Alcotest.test_case "arrival compaction under churn" `Quick
            test_arrival_compaction_under_churn;
          Alcotest.test_case "live cursor blocks compaction" `Quick
            test_live_cursor_blocks_compaction ] );
      ( "index",
        [ Alcotest.test_case "maintenance" `Quick test_index_maintenance;
          Alcotest.test_case "add_index backfills" `Quick
            test_add_index_backfills;
          Alcotest.test_case "online build = blocking build" `Quick
            test_online_index_build;
          Alcotest.test_case "failed build leaves no name" `Quick
            test_failed_build_leaves_no_name;
          Alcotest.test_case "shared index survives a snapshot" `Quick
            test_shared_index_survives_snapshot ] );
      ( "fuzzy",
        [ Alcotest.test_case "basics" `Quick test_fuzzy_cursor_basics;
          Alcotest.test_case "concurrent mutations" `Quick
            test_fuzzy_cursor_concurrent_mutations;
          Alcotest.test_case "walk bound over deleted keys" `Quick
            test_fuzzy_walk_bound ] );
      ("catalog", [ Alcotest.test_case "catalog" `Quick test_catalog ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_index_agrees_with_heap; prop_shared_index_model;
            prop_fuzzy_scan_complete ] ) ]
