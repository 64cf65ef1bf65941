(* Unit tests for the split propagation rules (paper Rules 8-11):
   counters, LSN gating, split-attribute changes, and the C/U flag
   transitions of Sec. 5.3. *)

open Nbsc_value
open Nbsc_wal
open Nbsc_storage
open Nbsc_core
module H = Helpers
module LR = Log_record

(* Build a catalog with T loaded directly (each row's LSN = its 1-based
   position), the split prepared, and the initial image populated. *)
let setup ?(assume_consistent = true) ~t_rows () =
  let catalog = Catalog.create () in
  let t_tbl = Catalog.create_table catalog ~name:"T" H.t_flat_schema in
  List.iteri
    (fun i row -> ignore (Table.insert t_tbl ~lsn:(Lsn.of_int (i + 1)) row))
    t_rows;
  let layout = Spec.split_layout catalog (H.split_spec ~assume_consistent) in
  ignore (Catalog.create_table catalog ~name:"R" (Spec.split_r_schema layout));
  ignore (Catalog.create_table catalog ~name:"S" (Spec.split_s_schema layout));
  Table.add_index t_tbl ~name:Spec.ix_t_split ~columns:[ "c" ];
  let sp = Split.create catalog layout in
  let pop = Population.scan_one t_tbl ~ingest:(Split.ingest_initial sp) in
  while not (Population.step pop ~limit:max_int) do () done;
  (catalog, sp)

let r_tbl catalog = Catalog.find catalog "R"
let s_tbl catalog = Catalog.find catalog "S"
let key a = Row.make [ Value.Int a ]
let skey c = Row.make [ Value.Int c ]

let counter_of catalog c =
  match Table.find (s_tbl catalog) (skey c) with
  | Some r -> r.Record.counter
  | None -> -1

let flag_of catalog c =
  match Table.find (s_tbl catalog) (skey c) with
  | Some r -> r.Record.flag
  | None -> Alcotest.failf "S record %d missing" c

let apply sp ~at op = ignore (Split.apply sp ~lsn:(Lsn.of_int at) op)

let ins a b c d = LR.Insert { table = "T"; row = H.ti a b c d }
let del a ~before = LR.Delete { table = "T"; key = key a; before }
let upd a changes before = LR.Update { table = "T"; key = key a; changes; before }

(* {1 Rule 8: insert} *)

let test_rule8_insert_new_group () =
  let catalog, sp = setup ~t_rows:[ H.ti 1 "a" 10 "X" ] () in
  apply sp ~at:50 (ins 2 "b" 20 "Y");
  Alcotest.(check int) "R grew" 2 (Table.cardinality (r_tbl catalog));
  Alcotest.(check int) "new group counter" 1 (counter_of catalog 20)

let test_rule8_insert_existing_group () =
  let catalog, sp = setup ~t_rows:[ H.ti 1 "a" 10 "X" ] () in
  apply sp ~at:50 (ins 2 "b" 10 "X");
  Alcotest.(check int) "counter bumped" 2 (counter_of catalog 10);
  Alcotest.(check int) "still one S record" 1 (Table.cardinality (s_tbl catalog))

let test_rule8_reflected_ignored () =
  let catalog, sp = setup ~t_rows:[ H.ti 1 "a" 10 "X" ] () in
  apply sp ~at:50 (ins 1 "a" 10 "X");
  Alcotest.(check int) "counter untouched" 1 (counter_of catalog 10);
  Alcotest.(check bool) "ignored" true ((Split.stats sp).Split.ignored >= 1)

(* {1 Rule 9: delete} *)

let test_rule9_decrements_and_removes () =
  let catalog, sp =
    setup ~t_rows:[ H.ti 1 "a" 10 "X"; H.ti 2 "b" 10 "X" ] ()
  in
  apply sp ~at:50 (del 1 ~before:(H.ti 1 "a" 10 "X"));
  Alcotest.(check int) "R shrunk" 1 (Table.cardinality (r_tbl catalog));
  Alcotest.(check int) "counter down" 1 (counter_of catalog 10);
  apply sp ~at:51 (del 2 ~before:(H.ti 2 "b" 10 "X"));
  Alcotest.(check int) "S record removed at zero" (-1) (counter_of catalog 10);
  Alcotest.(check int) "S empty" 0 (Table.cardinality (s_tbl catalog))

let test_rule9_lsn_gate () =
  (* The initial image carries LSN 1; a log record with a smaller or
     equal LSN is already reflected and must be skipped. *)
  let catalog, sp = setup ~t_rows:[ H.ti 1 "a" 10 "X" ] () in
  apply sp ~at:1 (del 1 ~before:(H.ti 1 "a" 10 "X"));
  Alcotest.(check int) "stale delete ignored" 1 (Table.cardinality (r_tbl catalog));
  apply sp ~at:2 (del 1 ~before:(H.ti 1 "a" 10 "X"));
  Alcotest.(check int) "fresh delete applies" 0 (Table.cardinality (r_tbl catalog))

(* {1 Rules 10/11: update} *)

let test_rule10_r_part () =
  let catalog, sp = setup ~t_rows:[ H.ti 1 "a" 10 "X" ] () in
  apply sp ~at:50 (upd 1 [ (1, Value.Text "a2") ] [ (1, Value.Text "a") ]);
  let r = Option.get (Table.find (r_tbl catalog) (key 1)) in
  Alcotest.(check bool) "b updated" true
    (Value.equal (Row.get r.Record.row 1) (Value.Text "a2"));
  Alcotest.(check int) "R lsn moved" 50 (Lsn.to_int r.Record.lsn)

let test_rule10_lsn_gate_covers_s () =
  (* If the R record already reflects the operation, the S side must
     not be touched either. *)
  let catalog, sp = setup ~t_rows:[ H.ti 1 "a" 10 "X" ] () in
  apply sp ~at:1 (upd 1 [ (3, Value.Text "CHANGED") ] [ (3, Value.Text "X") ]);
  let s = Option.get (Table.find (s_tbl catalog) (skey 10)) in
  Alcotest.(check bool) "S row untouched" true
    (Value.equal (Row.get s.Record.row 1) (Value.Text "X"))

let test_rule11_nonsplit_update () =
  let catalog, sp = setup ~t_rows:[ H.ti 1 "a" 10 "X" ] () in
  apply sp ~at:50 (upd 1 [ (3, Value.Text "X2") ] [ (3, Value.Text "X") ]);
  let s = Option.get (Table.find (s_tbl catalog) (skey 10)) in
  Alcotest.(check bool) "S row updated" true
    (Value.equal (Row.get s.Record.row 1) (Value.Text "X2"));
  Alcotest.(check int) "S lsn moved" 50 (Lsn.to_int s.Record.lsn)

let test_rule11_s_lsn_gate () =
  (* S's own LSN gates rule 11: after one fresh update, replaying an
     older one is a no-op even though R accepted... R also gates by
     LSN, so craft: two T rows share the group; row 1's update at 60
     moved S's lsn to 60; row 2's older update at 55 still applies to R
     but not to S. *)
  let catalog, sp =
    setup ~t_rows:[ H.ti 1 "a" 10 "X"; H.ti 2 "b" 10 "X" ] ()
  in
  apply sp ~at:60 (upd 1 [ (3, Value.Text "NEW") ] [ (3, Value.Text "X") ]);
  apply sp ~at:55 (upd 2 [ (3, Value.Text "OLD") ] [ (3, Value.Text "X") ]);
  let s = Option.get (Table.find (s_tbl catalog) (skey 10)) in
  Alcotest.(check bool) "newer S image survives" true
    (Value.equal (Row.get s.Record.row 1) (Value.Text "NEW"));
  (* but R row 2 did move *)
  let r2 = Option.get (Table.find (r_tbl catalog) (key 2)) in
  Alcotest.(check int) "R2 lsn" 55 (Lsn.to_int r2.Record.lsn)

let test_rule11_split_change () =
  let catalog, sp =
    setup ~t_rows:[ H.ti 1 "a" 10 "X"; H.ti 2 "b" 10 "X" ] ()
  in
  (* Row 1 moves from group 10 to group 30 (both split and dependent
     column change together, preserving the FD). *)
  apply sp ~at:50
    (upd 1
       [ (2, Value.Int 30); (3, Value.Text "Z") ]
       [ (2, Value.Int 10); (3, Value.Text "X") ]);
  Alcotest.(check int) "old group decremented" 1 (counter_of catalog 10);
  Alcotest.(check int) "new group created" 1 (counter_of catalog 30);
  let r = Option.get (Table.find (r_tbl catalog) (key 1)) in
  Alcotest.(check bool) "R split col updated" true
    (Value.equal (Row.get r.Record.row 2) (Value.Int 30))

let test_rule11_split_change_to_existing () =
  let catalog, sp =
    setup ~t_rows:[ H.ti 1 "a" 10 "X"; H.ti 2 "b" 20 "Y" ] ()
  in
  apply sp ~at:50
    (upd 1
       [ (2, Value.Int 20); (3, Value.Text "Y") ]
       [ (2, Value.Int 10); (3, Value.Text "X") ]);
  Alcotest.(check int) "old group removed" (-1) (counter_of catalog 10);
  Alcotest.(check int) "target counter bumped" 2 (counter_of catalog 20)

let test_rule11_counter_follows_r_gate () =
  (* Regression: a fuzzy read can stamp the S record with an LSN ahead
     of the log position (another group member was scanned after a
     later update). A split-attribute change whose R side applies must
     still move the counters, even though the S record's LSN gate would
     say "already reflected" — otherwise counter = |group| breaks and a
     later delete removes the S record while carriers remain. *)
  let catalog, sp =
    setup ~t_rows:[ H.ti 1 "a" 10 "X"; H.ti 2 "b" 10 "X" ] ()
  in
  (* Simulate the fuzzy-read skew: bump s{^10}'s LSN far ahead. *)
  let s = Option.get (Table.find (s_tbl catalog) (skey 10)) in
  ignore
    (Table.set_record (s_tbl catalog) ~key:(skey 10)
       (Record.with_lsn s (Lsn.of_int 500)));
  (* Row 1 moves group at log position 50 (< 500): R applies, and the
     counters must follow. *)
  apply sp ~at:50
    (upd 1
       [ (2, Value.Int 30); (3, Value.Text "Z") ]
       [ (2, Value.Int 10); (3, Value.Text "X") ]);
  Alcotest.(check int) "old group decremented" 1 (counter_of catalog 10);
  Alcotest.(check int) "new group exists" 1 (counter_of catalog 30);
  (* Deleting the remaining member must now remove s{^10} exactly. *)
  apply sp ~at:51 (del 2 ~before:(H.ti 2 "b" 10 "X"));
  Alcotest.(check int) "old group gone" (-1) (counter_of catalog 10)

(* {1 Flags (Sec. 5.3)} *)

let test_flag_u_on_divergent_initial () =
  let catalog, sp =
    setup ~assume_consistent:false
      ~t_rows:[ H.ti 1 "a" 10 "X"; H.ti 2 "b" 10 "DIFFERENT" ]
      ()
  in
  ignore sp;
  Alcotest.(check bool) "U flagged" true (flag_of catalog 10 = Record.Unknown)

let test_flag_u_on_divergent_insert () =
  let catalog, sp =
    setup ~assume_consistent:false ~t_rows:[ H.ti 1 "a" 10 "X" ] ()
  in
  Alcotest.(check bool) "initially C" true (flag_of catalog 10 = Record.Consistent);
  apply sp ~at:50 (ins 2 "b" 10 "OTHER");
  Alcotest.(check bool) "U after divergent insert" true
    (flag_of catalog 10 = Record.Unknown)

let test_flag_u_on_shared_update () =
  let catalog, sp =
    setup ~assume_consistent:false
      ~t_rows:[ H.ti 1 "a" 10 "X"; H.ti 2 "b" 10 "X" ]
      ()
  in
  apply sp ~at:50 (upd 1 [ (3, Value.Text "X2") ] [ (3, Value.Text "X") ]);
  Alcotest.(check bool) "counter>1 update flags U" true
    (flag_of catalog 10 = Record.Unknown)

let test_flag_c_on_full_singleton_update () =
  let catalog, sp =
    setup ~assume_consistent:false
      ~t_rows:[ H.ti 1 "a" 10 "X"; H.ti 2 "b" 10 "DIFFERENT" ]
      ()
  in
  Alcotest.(check bool) "starts U" true (flag_of catalog 10 = Record.Unknown);
  (* Deleting one leaves a singleton (still U)... *)
  apply sp ~at:50 (del 2 ~before:(H.ti 2 "b" 10 "DIFFERENT"));
  Alcotest.(check bool) "still U" true (flag_of catalog 10 = Record.Unknown);
  (* ...and an update covering all non-key S columns of a counter-1
     record proves consistency. *)
  apply sp ~at:51 (upd 1 [ (3, Value.Text "FIXED") ] [ (3, Value.Text "X") ]);
  Alcotest.(check bool) "C after full update" true
    (flag_of catalog 10 = Record.Consistent)

let test_consistent_mode_never_flags () =
  let catalog, sp =
    setup ~assume_consistent:true ~t_rows:[ H.ti 1 "a" 10 "X" ] ()
  in
  apply sp ~at:50 (ins 2 "b" 10 "OTHER");
  Alcotest.(check bool) "stays C" true (flag_of catalog 10 = Record.Consistent);
  Alcotest.(check int) "unknown count 0" 0 (Split.unknown_count sp)

(* {1 Counter invariant (ablation for the Gupta-style counter)} *)

let prop_counter_equals_group_size =
  (* After any op sequence, every S counter equals the number of R rows
     with that split value, and S has no zero-counter records. *)
  QCheck.Test.make ~name:"counter = |R group|" ~count:200
    QCheck.(list_of_size Gen.(int_bound 40)
              (triple (int_bound 10) (int_bound 4) (int_bound 2)))
    (fun ops ->
       let t_rows = [ H.ti 0 "seed" 0 (H.city_of 0); H.ti 1 "seed" 1 (H.city_of 1) ] in
       let catalog, sp = setup ~t_rows () in
       let at = ref 100 in
       List.iter
         (fun (a, c, action) ->
            incr at;
            let op =
              match action with
              | 0 -> ins a ("n" ^ string_of_int a) c (H.city_of c)
              | 1 -> del a ~before:(H.ti a "?" c (H.city_of c))
              | _ ->
                upd a
                  [ (2, Value.Int c); (3, Value.Text (H.city_of c)) ]
                  [ (2, Value.Int (c + 1)); (3, Value.Text (H.city_of (c + 1))) ]
            in
            apply sp ~at:!at op)
         ops;
       let groups = Hashtbl.create 8 in
       Table.iter (r_tbl catalog) (fun _ r ->
           let c = Row.get r.Record.row 2 in
           Hashtbl.replace groups c
             (1 + try Hashtbl.find groups c with Not_found -> 0));
       let ok = ref (Hashtbl.length groups = Table.cardinality (s_tbl catalog)) in
       Table.iter (s_tbl catalog) (fun _ s ->
           let c = Row.get s.Record.row 0 in
           let expected = try Hashtbl.find groups c with Not_found -> 0 in
           if s.Record.counter <> expected || s.Record.counter <= 0 then
             ok := false);
       !ok)

let () =
  Alcotest.run "split_rules"
    [ ( "rule8",
        [ Alcotest.test_case "new group" `Quick test_rule8_insert_new_group;
          Alcotest.test_case "existing group" `Quick
            test_rule8_insert_existing_group;
          Alcotest.test_case "reflected ignored" `Quick
            test_rule8_reflected_ignored ] );
      ( "rule9",
        [ Alcotest.test_case "decrement and remove" `Quick
            test_rule9_decrements_and_removes;
          Alcotest.test_case "LSN gate" `Quick test_rule9_lsn_gate ] );
      ( "rules10-11",
        [ Alcotest.test_case "R part" `Quick test_rule10_r_part;
          Alcotest.test_case "R gate covers S" `Quick
            test_rule10_lsn_gate_covers_s;
          Alcotest.test_case "non-split update" `Quick test_rule11_nonsplit_update;
          Alcotest.test_case "S LSN gate" `Quick test_rule11_s_lsn_gate;
          Alcotest.test_case "split change" `Quick test_rule11_split_change;
          Alcotest.test_case "split change to existing" `Quick
            test_rule11_split_change_to_existing;
          Alcotest.test_case "counter follows R gate (regression)" `Quick
            test_rule11_counter_follows_r_gate ] );
      ( "flags",
        [ Alcotest.test_case "U on divergent initial image" `Quick
            test_flag_u_on_divergent_initial;
          Alcotest.test_case "U on divergent insert" `Quick
            test_flag_u_on_divergent_insert;
          Alcotest.test_case "U on shared update" `Quick
            test_flag_u_on_shared_update;
          Alcotest.test_case "C on full singleton update" `Quick
            test_flag_c_on_full_singleton_update;
          Alcotest.test_case "consistent mode never flags" `Quick
            test_consistent_mode_never_flags ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_counter_equals_group_size ] ) ]
