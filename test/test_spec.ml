(* Tests for transformation-spec validation — the preparation-step
   requirements of paper Sec. 3.1 enforced statically. *)

open Nbsc_value
open Nbsc_storage
open Nbsc_core
module H = Helpers

let fresh_foj_catalog () =
  let catalog = Catalog.create () in
  ignore (Catalog.create_table catalog ~name:"R" H.r_schema);
  ignore (Catalog.create_table catalog ~name:"S" H.s_schema);
  catalog

let fresh_split_catalog () =
  let catalog = Catalog.create () in
  ignore (Catalog.create_table catalog ~name:"T" H.t_flat_schema);
  catalog

let rejects name f =
  Alcotest.check_raises name (Invalid_argument "") (fun () ->
      try ignore (f ()) with Invalid_argument _ -> raise (Invalid_argument ""))

let test_foj_valid_layout () =
  let catalog = fresh_foj_catalog () in
  let l = Spec.foj_layout catalog H.foj_spec in
  let t = Spec.foj_t_schema l in
  (* T(c, a, b, d) keyed by (a, c). *)
  Alcotest.(check int) "arity" 4 (Schema.arity t);
  Alcotest.(check (list string)) "column order" [ "c"; "a"; "b"; "d" ]
    (List.map (fun c -> c.Schema.col_name) (Schema.columns t));
  Alcotest.(check (list string)) "key" [ "a"; "c" ] (Schema.key_names t);
  let indexes = Spec.foj_t_indexes l in
  Alcotest.(check int) "three indexes" 3 (List.length indexes);
  Alcotest.(check (list string)) "by_r_key columns" [ "a" ]
    (List.assoc Spec.ix_by_r_key indexes);
  Alcotest.(check (list string)) "by_join columns" [ "c" ]
    (List.assoc Spec.ix_by_join indexes);
  (* Position mappings round-trip. *)
  Alcotest.(check bool) "r_to_t maps a,b" true
    (List.length l.Spec.r_to_t = 2);
  Alcotest.(check bool) "join maps c" true
    (List.length l.Spec.r_join_to_t = 1)

let test_foj_missing_table () =
  let catalog = fresh_foj_catalog () in
  rejects "unknown source" (fun () ->
      Spec.foj_layout catalog { H.foj_spec with Spec.r_table = "NOPE" })

let test_foj_key_not_carried () =
  let catalog = fresh_foj_catalog () in
  rejects "R key must be carried" (fun () ->
      Spec.foj_layout catalog { H.foj_spec with Spec.r_carry = [ "b" ] })

let test_foj_join_type_mismatch () =
  let catalog = Catalog.create () in
  ignore (Catalog.create_table catalog ~name:"R" H.r_schema);
  ignore
    (Catalog.create_table catalog ~name:"S"
       (Schema.make ~key:[ "c" ]
          [ Schema.column ~nullable:false "c" Value.TText;
            Schema.column "d" Value.TText ]));
  rejects "join type mismatch" (fun () -> Spec.foj_layout catalog H.foj_spec)

let test_foj_duplicate_t_columns () =
  let catalog = fresh_foj_catalog () in
  rejects "duplicate T column" (fun () ->
      Spec.foj_layout catalog { H.foj_spec with Spec.t_join = [ "a" ] })

let test_foj_join_in_carry () =
  let catalog = fresh_foj_catalog () in
  rejects "join col in r_carry" (fun () ->
      Spec.foj_layout catalog
        { H.foj_spec with Spec.r_carry = [ "a"; "b"; "c" ]; t_join = [ "cc" ] })

let test_foj_join_count_mismatch () =
  let catalog = fresh_foj_catalog () in
  rejects "join arity" (fun () ->
      Spec.foj_layout catalog { H.foj_spec with Spec.join_s = [] })

let test_split_valid_layout () =
  let catalog = fresh_split_catalog () in
  let l = Spec.split_layout catalog (H.split_spec ~assume_consistent:true) in
  let r = Spec.split_r_schema l and s = Spec.split_s_schema l in
  Alcotest.(check (list string)) "R columns" [ "a"; "b"; "c" ]
    (List.map (fun c -> c.Schema.col_name) (Schema.columns r));
  Alcotest.(check (list string)) "R key = T key" [ "a" ] (Schema.key_names r);
  Alcotest.(check (list string)) "S columns" [ "c"; "d" ]
    (List.map (fun c -> c.Schema.col_name) (Schema.columns s));
  Alcotest.(check (list string)) "S key = split key" [ "c" ]
    (Schema.key_names s)

let test_split_key_must_be_in_both () =
  let catalog = fresh_split_catalog () in
  rejects "split key must be in r_cols" (fun () ->
      Spec.split_layout catalog
        { (H.split_spec ~assume_consistent:true) with Spec.r_cols = [ "a"; "b" ] });
  rejects "split key must be in s_cols" (fun () ->
      Spec.split_layout catalog
        { (H.split_spec ~assume_consistent:true) with Spec.s_cols = [ "d" ] })

let test_split_t_key_must_go_to_r () =
  let catalog = fresh_split_catalog () in
  rejects "T key in r_cols" (fun () ->
      Spec.split_layout catalog
        { (H.split_spec ~assume_consistent:true) with Spec.r_cols = [ "b"; "c" ] })

let test_split_unknown_column () =
  let catalog = fresh_split_catalog () in
  rejects "unknown column" (fun () ->
      Spec.split_layout catalog
        { (H.split_spec ~assume_consistent:true) with
          Spec.s_cols = [ "c"; "zzz" ] })

let test_transform_rejects_taken_target () =
  let db = Nbsc_engine.Db.create () in
  ignore (Nbsc_engine.Db.create_table db ~name:"R" H.r_schema);
  ignore (Nbsc_engine.Db.create_table db ~name:"S" H.s_schema);
  ignore (Nbsc_engine.Db.create_table db ~name:"T" H.t_flat_schema);
  rejects "target name taken" (fun () -> Transformation.foj db H.foj_spec)

let () =
  Alcotest.run "spec"
    [ ( "foj",
        [ Alcotest.test_case "valid layout" `Quick test_foj_valid_layout;
          Alcotest.test_case "missing table" `Quick test_foj_missing_table;
          Alcotest.test_case "key not carried" `Quick test_foj_key_not_carried;
          Alcotest.test_case "join type mismatch" `Quick
            test_foj_join_type_mismatch;
          Alcotest.test_case "duplicate T columns" `Quick
            test_foj_duplicate_t_columns;
          Alcotest.test_case "join col in carry" `Quick test_foj_join_in_carry;
          Alcotest.test_case "join count mismatch" `Quick
            test_foj_join_count_mismatch ] );
      ( "split",
        [ Alcotest.test_case "valid layout" `Quick test_split_valid_layout;
          Alcotest.test_case "split key in both" `Quick
            test_split_key_must_be_in_both;
          Alcotest.test_case "T key to R" `Quick test_split_t_key_must_go_to_r;
          Alcotest.test_case "unknown column" `Quick test_split_unknown_column ] );
      ( "transform",
        [ Alcotest.test_case "taken target name" `Quick
            test_transform_rejects_taken_target ] ) ]
