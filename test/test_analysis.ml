(* Tests for the iteration-analysis policies (paper Sec. 3.3): the
   three decision bases the paper lists, unit-level and end-to-end. *)

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
            (converges (Analysis.Estimated_time { max_steps = 2. })) ] ) ]
