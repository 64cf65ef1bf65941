(* Tests for the iteration-analysis policies (paper Sec. 3.3): the
   three decision bases the paper lists, unit-level and end-to-end,
   and the options validation that refuses policies which could never
   start synchronization. *)

open Nbsc_core
module H = Helpers

(* {1 Unit behaviour} *)

let test_remaining_records () =
  let a = Analysis.create (Analysis.Remaining_records 5) in
  Alcotest.(check bool) "lag 6 not ready" false (Analysis.ready a ~lag:6);
  Alcotest.(check bool) "lag 5 ready" true (Analysis.ready a ~lag:5);
  Alcotest.(check bool) "lag 0 ready" true (Analysis.ready a ~lag:0)

let test_iteration_shrink () =
  let a =
    Analysis.create (Analysis.Iteration_shrink { factor = 0.5; floor = 2 })
  in
  (* First cycle: 100 records. Never ready before any cycle verdict. *)
  Analysis.observe a ~lag:50 ~consumed:100;
  Alcotest.(check bool) "mid-cycle not ready" false (Analysis.ready a ~lag:50);
  Analysis.end_iteration a;
  Alcotest.(check bool) "first cycle has no baseline" false
    (Analysis.ready a ~lag:10);
  (* Second cycle consumes 30 <= 0.5 * 100: shrinking. *)
  Analysis.observe a ~lag:0 ~consumed:30;
  Analysis.end_iteration a;
  Alcotest.(check bool) "shrinking cycle ready" true (Analysis.ready a ~lag:10);
  (* A growing cycle revokes readiness. *)
  Analysis.observe a ~lag:0 ~consumed:400;
  Analysis.end_iteration a;
  Alcotest.(check bool) "growing cycle not ready" false
    (Analysis.ready a ~lag:10);
  (* Unless the cycle is below the floor outright. *)
  Analysis.observe a ~lag:0 ~consumed:1;
  Analysis.end_iteration a;
  Alcotest.(check bool) "floor cycle ready" true (Analysis.ready a ~lag:10)

let test_estimated_time () =
  let a = Analysis.create (Analysis.Estimated_time { max_steps = 3. }) in
  (* Draining 10 records of lag per step. *)
  Analysis.observe a ~lag:100 ~consumed:12;
  Analysis.observe a ~lag:90 ~consumed:12;
  Analysis.observe a ~lag:80 ~consumed:12;
  Analysis.observe a ~lag:70 ~consumed:12;
  Alcotest.(check bool) "70 lag at ~10/step not ready" false
    (Analysis.ready a ~lag:70);
  Alcotest.(check bool) "15 lag at ~10/step ready" true
    (Analysis.ready a ~lag:15);
  (* A propagator that is losing ground is never ready (except lag 0). *)
  let b = Analysis.create (Analysis.Estimated_time { max_steps = 3. }) in
  Analysis.observe b ~lag:100 ~consumed:5;
  Analysis.observe b ~lag:120 ~consumed:5;
  Analysis.observe b ~lag:140 ~consumed:5;
  Alcotest.(check bool) "negative rate not ready" false
    (Analysis.ready b ~lag:10);
  Alcotest.(check bool) "lag 0 always ready" true (Analysis.ready b ~lag:0)

(* {1 End-to-end: every policy drives a transformation to completion
   and converges} *)

let converges policy () =
  let db = H.fresh_split_db ~t_rows:(H.seed_t_rows ~n:60) in
  let d = H.driver ~seed:8 db in
  let options =
    { Nbsc_core.Options.default with
      Nbsc_core.Options.scan_batch = 7;
      propagate_batch = 5;
      analysis = policy;
      drop_sources = false }
  in
  let tf =
    H.start db ~options
      (Nbsc_core.Spec.Split (H.split_spec ~assume_consistent:true))
  in
  let budget = ref 150 in
  (match
     Nbsc_core.Transform.run tf ~between:(fun () ->
         if !budget > 0 then begin
           decr budget;
           H.random_t_op ~consistent:true d
         end)
   with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  let t = Nbsc_engine.Db.snapshot db "T" in
  let want_r, want_s =
    Nbsc_relalg.Relalg.split
      { Nbsc_relalg.Relalg.r_cols' = [ "a"; "b"; "c" ]; s_cols' = [ "c"; "d" ];
        r_key = [ "a" ]; s_key = [ "c" ] }
      t
  in
  H.check_relations_equal "R" want_r (Nbsc_engine.Db.snapshot db "R");
  H.check_relations_equal "S" want_s (Nbsc_engine.Db.snapshot db "S")

(* {1 Options validation} *)

let is_invalid = function
  | Error (`Invalid _) -> true
  | _ -> false

(* Lag is never negative, so these policies could never be ready:
   accepted, they would keep [Transform.run] propagating forever. *)
let never_ready =
  [ ("remaining-records -1", Analysis.Remaining_records (-1));
    ( "iteration-shrink floor -1",
      Analysis.Iteration_shrink { factor = 0.5; floor = -1 } );
    ( "iteration-shrink floor -1, factor 0",
      Analysis.Iteration_shrink { factor = 0.; floor = -1 } );
    ( "iteration-shrink floor -1, factor nan",
      Analysis.Iteration_shrink { factor = Float.nan; floor = -1 } ) ]

let test_validate_rejects () =
  Alcotest.(check bool) "scan_batch 0" true
    (is_invalid (Options.validate { Options.default with Options.scan_batch = 0 }));
  Alcotest.(check bool) "propagate_batch -1" true
    (is_invalid
       (Options.validate
          { Options.default with Options.propagate_batch = -1 }));
  Alcotest.(check bool) "hybrid sweep_quantum 0" true
    (is_invalid
       (Options.validate
          { Options.default with
            Options.strategy = Options.Hybrid { sweep_quantum = 0 } }));
  List.iter
    (fun (name, analysis) ->
       Alcotest.(check bool) name true
         (is_invalid
            (Options.validate { Options.default with Options.analysis })))
    never_ready;
  List.iter
    (fun (name, analysis) ->
       match Options.validate { Options.default with Options.analysis } with
       | Ok _ -> ()
       | Error _ -> Alcotest.failf "%s must validate" name)
    [ ("default", Options.default.Options.analysis);
      ("remaining-records 0", Analysis.Remaining_records 0);
      ( "iteration-shrink floor 0",
        Analysis.Iteration_shrink { factor = 0.5; floor = 0 } );
      ( "estimated-time -1 steps",
        Analysis.Estimated_time { max_steps = -1. } ) ]

(* The record-update path bypasses every string parser; the funnel in
   [Transform.create] must still reject it with a clear error. *)
let test_create_rejects_programmatic () =
  let db = H.fresh_split_db ~t_rows:(H.seed_t_rows ~n:5) in
  let packed =
    Transformation.split db (H.split_spec ~assume_consistent:true)
  in
  let expect_invalid name options =
    match Transform.create db ~options packed with
    | exception Nbsc_error.Error (`Invalid _) -> ()
    | _ -> Alcotest.failf "%s: expected Invalid" name
  in
  expect_invalid "scan_batch 0"
    { Options.default with Options.scan_batch = 0 };
  expect_invalid "sweep_quantum 0"
    { Options.default with
      Options.strategy = Options.Hybrid { sweep_quantum = 0 } };
  List.iter
    (fun (name, analysis) ->
       expect_invalid name { Options.default with Options.analysis })
    never_ready

let test_parse_rejects () =
  Alcotest.(check bool) "hybrid:0" true
    (Options.migration_of_string "hybrid:0" = None);
  Alcotest.(check bool) "hybrid:-3" true
    (Options.migration_of_string "hybrid:-3" = None)

let () =
  Alcotest.run "analysis"
    [ ( "policies",
        [ Alcotest.test_case "remaining records" `Quick test_remaining_records;
          Alcotest.test_case "iteration shrink" `Quick test_iteration_shrink;
          Alcotest.test_case "estimated time" `Quick test_estimated_time ] );
      ( "end-to-end",
        [ Alcotest.test_case "remaining-records converges" `Quick
            (converges (Analysis.Remaining_records 8));
          Alcotest.test_case "iteration-shrink converges" `Quick
            (converges (Analysis.Iteration_shrink { factor = 0.7; floor = 4 }));
          Alcotest.test_case "estimated-time converges" `Quick
            (converges (Analysis.Estimated_time { max_steps = 2. })) ] );
      ( "options",
        [ Alcotest.test_case "validate rejects bad knobs" `Quick
            test_validate_rejects;
          Alcotest.test_case "create rejects programmatic records" `Quick
            test_create_rejects_programmatic;
          Alcotest.test_case "parsers reject bad strings" `Quick
            test_parse_rejects ] ) ]
