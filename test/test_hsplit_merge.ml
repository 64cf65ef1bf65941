(* Tests for the extension operators (paper conclusion: "methods for
   other relational operators should also be developed"): horizontal
   split by predicate and merge (union). *)

open Nbsc_value
open Nbsc_storage
open Nbsc_txn
open Nbsc_core
module H = Helpers

let cfg =
  { Options.default with
    Options.scan_batch = 7;
    propagate_batch = 5;
    drop_sources = false }

(* Orders table: (a = order id, b = status text, c = age in days). *)
let hspec =
  { Spec.h_source = "T";
    h_true_table = "archive";
    h_false_table = "live";
    h_pred = Pred.Cmp ("c", Pred.Gt, Value.Int 30) }

let oracle_split db = H.hsplit_oracle db hspec.Spec.h_pred

let test_hsplit_quiet () =
  let db = H.fresh_split_db ~t_rows:(H.seed_t_rows ~n:60) in
  let tf = H.start db ~options:cfg (Spec.Hsplit hspec) in
  (match Transform.run tf with Ok () -> () | Error m -> Alcotest.fail m);
  let want_arch, want_live = oracle_split db in
  H.check_relations_equal "archive" want_arch (Db.snapshot db "archive");
  H.check_relations_equal "live" want_live (Db.snapshot db "live");
  Alcotest.(check int) "partition is total"
    (Db.row_count db "T")
    (Db.row_count db "archive" + Db.row_count db "live")

let test_hsplit_concurrent_with_migration () =
  let db = H.fresh_split_db ~t_rows:(H.seed_t_rows ~n:80) in
  let mgr = Db.manager db in
  let rng = Random.State.make [| 5 |] in
  let tf = H.start db ~options:cfg (Spec.Hsplit hspec) in
  let budget = ref 250 in
  (match
     Transform.run tf ~between:(fun () ->
         if !budget > 0 && Transform.routing tf = `Sources then begin
           decr budget;
           let txn = Manager.begin_txn mgr in
           let a = 1 + Random.State.int rng 80 in
           let outcome =
             match Random.State.int rng 3 with
             | 0 ->
               (* age update that can flip the predicate *)
               Manager.update mgr ~txn ~table:"T"
                 ~key:(Row.make [ Value.Int a ])
                 [ (2, Value.Int (Random.State.int rng 60)) ]
             | 1 ->
               Manager.insert mgr ~txn ~table:"T"
                 (H.ti (1000 + !budget) "new" (Random.State.int rng 60) "x")
             | _ ->
               Manager.delete mgr ~txn ~table:"T" ~key:(Row.make [ Value.Int a ])
           in
           match outcome with
           | Ok () -> ignore (Manager.commit mgr txn)
           | Error _ -> ignore (Manager.abort mgr txn)
         end)
   with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  let want_arch, want_live = oracle_split db in
  H.check_relations_equal "archive" want_arch (Db.snapshot db "archive");
  H.check_relations_equal "live" want_live (Db.snapshot db "live");
  Alcotest.(check bool) "some rows migrated" true
    (List.assoc "migrations" (Transform.counters tf) > 0)

let test_hsplit_null_predicate_routing () =
  (* NULL ages fail the comparison, so they land in "live" — and
     Is_null can route them explicitly. *)
  let rows = [ H.ti 1 "a" 50 "x"; Row.make [ Value.Int 2; Value.Text "b"; Value.Null; Value.Text "y" ] ] in
  let db = H.fresh_split_db ~t_rows:rows in
  let tf = H.start db ~options:cfg (Spec.Hsplit hspec) in
  (match Transform.run tf with Ok () -> () | Error m -> Alcotest.fail m);
  Alcotest.(check int) "archive has the old row" 1 (Db.row_count db "archive");
  Alcotest.(check int) "live holds the NULL row" 1 (Db.row_count db "live")

(* {1 Merge} *)

let test_merge_quiet () =
  let db = H.fresh_merge_db () in
  let tf = H.start db ~options:cfg (Spec.Merge H.merge_spec) in
  (match Transform.run tf with Ok () -> () | Error m -> Alcotest.fail m);
  Alcotest.(check int) "union size" 50 (Db.row_count db "AB");
  H.check_relations_equal "AB = A union B" (H.merge_oracle db)
    (Db.snapshot db "AB")

let test_merge_concurrent () =
  let db = H.fresh_merge_db () in
  let mgr = Db.manager db in
  let rng = Random.State.make [| 9 |] in
  let tf = H.start db ~options:cfg (Spec.Merge H.merge_spec) in
  let budget = ref 200 in
  (match
     Transform.run tf ~between:(fun () ->
         if !budget > 0 && Transform.routing tf = `Sources then begin
           decr budget;
           let txn = Manager.begin_txn mgr in
           let table = if Random.State.bool rng then "A" else "B" in
           let base = if table = "A" then 0 else 100 in
           let outcome =
             match Random.State.int rng 3 with
             | 0 ->
               Manager.insert mgr ~txn ~table
                 (H.ti (base + 500 + !budget) "new" 1 "z")
             | 1 ->
               Manager.update mgr ~txn ~table
                 ~key:(Row.make [ Value.Int (base + Random.State.int rng 30) ])
                 [ (1, Value.Text ("w" ^ string_of_int !budget)) ]
             | _ ->
               Manager.delete mgr ~txn ~table
                 ~key:(Row.make [ Value.Int (base + Random.State.int rng 30) ])
           in
           match outcome with
           | Ok () -> ignore (Manager.commit mgr txn)
           | Error _ -> ignore (Manager.abort mgr txn)
         end)
   with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  H.check_relations_equal "AB converges" (H.merge_oracle db) (Db.snapshot db "AB")

let test_merge_collision_lww () =
  (* Overlapping keys: the higher-LSN source row wins. *)
  let db = Db.create () in
  ignore (Db.create_table db ~name:"A" H.t_flat_schema);
  ignore (Db.create_table db ~name:"B" H.t_flat_schema);
  H.ok "a" (Db.load db ~table:"A" [ H.ti 1 "old" 1 "x" ]);
  H.ok "b" (Db.load db ~table:"B" [ H.ti 1 "newer" 2 "y" ]);
  let tf = H.start db ~options:cfg (Spec.Merge H.merge_spec) in
  (match Transform.run tf with Ok () -> () | Error m -> Alcotest.fail m);
  Alcotest.(check int) "one row" 1 (Db.row_count db "AB");
  let ab = Db.table db "AB" in
  let r = Option.get (Table.find ab (Row.make [ Value.Int 1 ])) in
  Alcotest.(check bool) "later write wins" true
    (Value.equal (Row.get r.Record.row 1) (Value.Text "newer"));
  Alcotest.(check bool) "collision counted" true
    (List.assoc "collisions" (Transform.counters tf) > 0)

(* Idempotence: like the FOJ rules, replaying any logged operation a
   second time must leave the targets unchanged (LSN discipline). *)
let prop_hsplit_rules_idempotent =
  QCheck.Test.make ~name:"hsplit rules are idempotent" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 10) (pair (int_bound 8) (int_bound 60)))
              (int_bound 2))
    (fun (ops, _) ->
       let catalog = Catalog.create () in
       let t_tbl = Catalog.create_table catalog ~name:"T" H.t_flat_schema in
       List.iteri
         (fun i (a, c) ->
            ignore
              (Table.insert t_tbl
                 ~lsn:(Nbsc_wal.Lsn.of_int (i + 1))
                 (H.ti a "seed" c "x")))
         ops;
       let layout = Spec.hsplit_layout catalog hspec in
       ignore (Catalog.create_table catalog ~name:"archive" layout.Spec.h_schema);
       ignore (Catalog.create_table catalog ~name:"live" layout.Spec.h_schema);
       let hs = Hsplit.create catalog layout in
       Table.iter t_tbl (fun _ r -> Hsplit.ingest_initial hs r);
       let image () =
         Table.to_rows (Catalog.find catalog "archive")
         @ Table.to_rows (Catalog.find catalog "live")
         |> List.sort Row.compare
       in
       List.for_all
         (fun (a, c) ->
            let op =
              Nbsc_wal.Log_record.Update
                { table = "T";
                  key = Row.make [ Value.Int a ];
                  changes = [ (2, Value.Int c) ];
                  before = [] }
            in
            ignore (Hsplit.apply hs ~lsn:(Nbsc_wal.Lsn.of_int 1000) op);
            let once = image () in
            ignore (Hsplit.apply hs ~lsn:(Nbsc_wal.Lsn.of_int 1000) op);
            once = image ())
         ops)

(* Round trip: hsplit then merge restores the original table. *)
let prop_hsplit_merge_roundtrip =
  QCheck.Test.make ~name:"hsplit then merge is identity" ~count:40
    QCheck.(pair small_nat (int_range 5 50))
    (fun (seed, n) ->
       let db = H.fresh_split_db ~t_rows:(H.seed_t_rows ~n) in
       let before = Db.snapshot db "T" in
       let tf1 =
         H.start db
           ~options:{ cfg with Options.drop_sources = true }
           (Spec.Hsplit hspec)
       in
       let d = H.driver ~seed db in
       let budget = ref 30 in
       (match
          Transform.run tf1 ~between:(fun () ->
              if !budget > 0 && Transform.routing tf1 = `Sources then begin
                decr budget;
                H.random_t_op ~consistent:true d
              end)
        with
        | Ok () -> ()
        | Error m -> QCheck.Test.fail_reportf "hsplit: %s" m);
       ignore before;
       let want =
         Nbsc_relalg.Relalg.make H.t_flat_schema
           ((Db.snapshot db "archive").Nbsc_relalg.Relalg.rows
            @ (Db.snapshot db "live").Nbsc_relalg.Relalg.rows)
       in
       let tf2 =
         H.start db
           ~options:{ cfg with Options.drop_sources = true }
           (Spec.Merge { Spec.m_sources = [ "archive"; "live" ]; m_target = "T2" })
       in
       (match Transform.run tf2 with
        | Ok () -> ()
        | Error m -> QCheck.Test.fail_reportf "merge: %s" m);
       Nbsc_relalg.Relalg.equal_as_sets want (Db.snapshot db "T2"))

let () =
  Alcotest.run "hsplit_merge"
    [ ( "hsplit",
        [ Alcotest.test_case "quiet" `Quick test_hsplit_quiet;
          Alcotest.test_case "concurrent with migration" `Quick
            test_hsplit_concurrent_with_migration;
          Alcotest.test_case "NULL routing" `Quick
            test_hsplit_null_predicate_routing ] );
      ( "merge",
        [ Alcotest.test_case "quiet" `Quick test_merge_quiet;
          Alcotest.test_case "concurrent" `Quick test_merge_concurrent;
          Alcotest.test_case "collision last-writer-wins" `Quick
            test_merge_collision_lww ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_hsplit_merge_roundtrip; prop_hsplit_rules_idempotent ] ) ]
