(* Tests for the many-to-many FOJ extension (paper Sec. 4.2): rule
   behaviour on fan-out states and end-to-end convergence under
   concurrent updates. *)

open Nbsc_value
open Nbsc_wal
open Nbsc_storage
open Nbsc_txn
open Nbsc_core
module LR = Log_record
module H = Helpers

(* person(pid, city) x store(sid, city, chain): join on city, where
   both sides repeat join values (H.m2m_spec). *)
let p = H.pi
let q = H.qi

let setup ~p_rows ~q_rows =
  let catalog = Catalog.create () in
  let r_tbl = Catalog.create_table catalog ~name:"P" H.p_schema in
  let s_tbl = Catalog.create_table catalog ~name:"Q" H.q_schema in
  List.iteri
    (fun i row -> ignore (Table.insert r_tbl ~lsn:(Lsn.of_int (i + 1)) row))
    p_rows;
  List.iteri
    (fun i row -> ignore (Table.insert s_tbl ~lsn:(Lsn.of_int (100 + i)) row))
    q_rows;
  let layout = Spec.foj_layout catalog H.m2m_spec in
  ignore
    (Catalog.create_table catalog
       ~indexes:(Spec.foj_t_indexes layout)
       ~name:"T" (Spec.foj_t_schema layout));
  let fj = Foj.create catalog layout in
  let pop = Population.foj fj ~r_tbl ~s_tbl in
  while not (Population.step pop ~limit:max_int) do () done;
  (catalog, fj)

(* T row layout: (city, pid, sid, chain). *)
let trow city pid sid chain =
  Row.make
    [ (match city with Some c -> Value.Int c | None -> Value.Null);
      (match pid with Some x -> Value.Int x | None -> Value.Null);
      (match sid with Some x -> Value.Int x | None -> Value.Null);
      (match chain with Some x -> Value.Text x | None -> Value.Null) ]

let t_rows catalog =
  Table.to_rows (Catalog.find catalog "T") |> List.sort Row.compare

let check_t catalog expected =
  let actual = t_rows catalog in
  let expected = List.sort Row.compare expected in
  if
    List.length actual <> List.length expected
    || not (List.for_all2 Row.equal expected actual)
  then
    Alcotest.failf "T mismatch:@.expected: %s@.actual:   %s"
      (String.concat "; " (List.map Row.to_string expected))
      (String.concat "; " (List.map Row.to_string actual))

let apply fj op = ignore (Foj_mm.apply fj ~lsn:(Lsn.of_int 9999) op)

let test_population_cross_product () =
  let catalog, _ =
    setup
      ~p_rows:[ p 1 5; p 2 5 ]
      ~q_rows:[ q 10 5 "A"; q 11 5 "B"; q 12 9 "C" ]
  in
  check_t catalog
    [ trow (Some 5) (Some 1) (Some 10) (Some "A");
      trow (Some 5) (Some 1) (Some 11) (Some "B");
      trow (Some 5) (Some 2) (Some 10) (Some "A");
      trow (Some 5) (Some 2) (Some 11) (Some "B");
      trow (Some 9) None (Some 12) (Some "C") ]

let test_insert_r_fans_out () =
  let catalog, fj = setup ~p_rows:[] ~q_rows:[ q 10 5 "A"; q 11 5 "B" ] in
  apply fj (LR.Insert { table = "P"; row = p 1 5 });
  check_t catalog
    [ trow (Some 5) (Some 1) (Some 10) (Some "A");
      trow (Some 5) (Some 1) (Some 11) (Some "B") ]

let test_insert_s_fans_out () =
  let catalog, fj = setup ~p_rows:[ p 1 5; p 2 5 ] ~q_rows:[ q 10 5 "A" ] in
  apply fj (LR.Insert { table = "Q"; row = q 11 5 "B" });
  check_t catalog
    [ trow (Some 5) (Some 1) (Some 10) (Some "A");
      trow (Some 5) (Some 1) (Some 11) (Some "B");
      trow (Some 5) (Some 2) (Some 10) (Some "A");
      trow (Some 5) (Some 2) (Some 11) (Some "B") ]

let test_delete_r_preserves_last_s_carrier () =
  let catalog, fj = setup ~p_rows:[ p 1 5 ] ~q_rows:[ q 10 5 "A"; q 11 5 "B" ] in
  apply fj
    (LR.Delete { table = "P"; key = Row.make [ Value.Int 1 ]; before = p 1 5 });
  check_t catalog
    [ trow (Some 5) None (Some 10) (Some "A");
      trow (Some 5) None (Some 11) (Some "B") ]

let test_delete_s_keeps_other_matches () =
  let catalog, fj = setup ~p_rows:[ p 1 5 ] ~q_rows:[ q 10 5 "A"; q 11 5 "B" ] in
  apply fj
    (LR.Delete
       { table = "Q"; key = Row.make [ Value.Int 10 ]; before = q 10 5 "A" });
  (* person 1 still matches store 11, so no null survivor for the
     person; store 10 is gone entirely. *)
  check_t catalog [ trow (Some 5) (Some 1) (Some 11) (Some "B") ]

let test_move_r_between_cities () =
  let catalog, fj =
    setup ~p_rows:[ p 1 5; p 2 5 ] ~q_rows:[ q 10 5 "A"; q 20 9 "C" ]
  in
  (* person 1 moves from city 5 to city 9. *)
  apply fj
    (LR.Update
       { table = "P";
         key = Row.make [ Value.Int 1 ];
         changes = [ (1, Value.Int 9) ];
         before = [ (1, Value.Int 5) ] });
  check_t catalog
    [ trow (Some 5) (Some 2) (Some 10) (Some "A");
      trow (Some 9) (Some 1) (Some 20) (Some "C") ]

let test_move_s_between_cities () =
  let catalog, fj =
    setup ~p_rows:[ p 1 5; p 2 9 ] ~q_rows:[ q 10 5 "A" ]
  in
  (* store 10 moves from city 5 to city 9. *)
  apply fj
    (LR.Update
       { table = "Q";
         key = Row.make [ Value.Int 10 ];
         changes = [ (1, Value.Int 9) ];
         before = [ (1, Value.Int 5) ] });
  check_t catalog
    [ trow (Some 5) (Some 1) None None;
      trow (Some 9) (Some 2) (Some 10) (Some "A") ]

let test_update_other_attr_all_carriers () =
  let catalog, fj = setup ~p_rows:[ p 1 5; p 2 5 ] ~q_rows:[ q 10 5 "A" ] in
  apply fj
    (LR.Update
       { table = "Q";
         key = Row.make [ Value.Int 10 ];
         changes = [ (2, Value.Text "A2") ];
         before = [ (2, Value.Text "A") ] });
  check_t catalog
    [ trow (Some 5) (Some 1) (Some 10) (Some "A2");
      trow (Some 5) (Some 2) (Some 10) (Some "A2") ]

(* End-to-end convergence through the full framework with concurrent
   random mutations. *)
let test_end_to_end_concurrent () =
  let db = H.fresh_m2m_db () in
  let options =
    { Options.default with
      Options.drop_sources = false;
      scan_batch = 5;
      propagate_batch = 5 }
  in
  let tf = H.start db ~options (Spec.Foj H.m2m_spec) in
  let mgr = Db.manager db in
  let rng = Random.State.make [| 31 |] in
  let budget = ref 200 in
  (match
     Transform.run tf ~between:(fun () ->
         if !budget > 0 && Transform.routing tf = `Sources then begin
           decr budget;
           let txn = Manager.begin_txn mgr in
           let outcome =
             match Random.State.int rng 4 with
             | 0 ->
               Manager.insert mgr ~txn ~table:"P"
                 (p (100 + !budget) (Random.State.int rng 9))
             | 1 ->
               Manager.update mgr ~txn ~table:"P"
                 ~key:(Row.make [ Value.Int (Random.State.int rng 60) ])
                 [ (1, Value.Int (Random.State.int rng 9)) ]
             | 2 ->
               Manager.update mgr ~txn ~table:"Q"
                 ~key:(Row.make [ Value.Int (Random.State.int rng 25) ])
                 [ (1, Value.Int (Random.State.int rng 9)) ]
             | _ ->
               Manager.delete mgr ~txn ~table:"P"
                 ~key:(Row.make [ Value.Int (Random.State.int rng 60) ])
           in
           match outcome with
           | Ok () -> ignore (Manager.commit mgr txn)
           | Error _ -> ignore (Manager.abort mgr txn)
         end)
   with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  H.check_relations_equal "m2m divergence" (H.m2m_oracle db) (Db.snapshot db "T")

let () =
  Alcotest.run "foj_mm"
    [ ( "rules",
        [ Alcotest.test_case "population cross product" `Quick
            test_population_cross_product;
          Alcotest.test_case "insert R fans out" `Quick test_insert_r_fans_out;
          Alcotest.test_case "insert S fans out" `Quick test_insert_s_fans_out;
          Alcotest.test_case "delete R preserves S carriers" `Quick
            test_delete_r_preserves_last_s_carrier;
          Alcotest.test_case "delete S keeps other matches" `Quick
            test_delete_s_keeps_other_matches;
          Alcotest.test_case "move R between cities" `Quick
            test_move_r_between_cities;
          Alcotest.test_case "move S between cities" `Quick
            test_move_s_between_cities;
          Alcotest.test_case "update other attr" `Quick
            test_update_other_attr_all_carriers ] );
      ( "end-to-end",
        [ Alcotest.test_case "concurrent convergence" `Quick
            test_end_to_end_concurrent ] ) ]
