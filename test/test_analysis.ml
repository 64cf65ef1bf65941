(* Tests for the iteration analysis (paper Sec. 3.3): the executor
   starts synchronization once the propagation lag is at most
   [Options.sync_lag], a transformation driven that way converges, and
   options validation refuses a threshold that could never be met. *)

open Nbsc_core
module H = Helpers

(* {1 The threshold, in the executor} *)

let split = Spec.Split (H.split_spec ~assume_consistent:true)

(* User transactions between the first steps keep the lag above
   [sync_lag]; every propagation step that ends still propagating must
   have seen it there. When synchronization starts, the final latched
   iteration (non-blocking abort) holds at most [sync_lag] records. *)
let test_remaining_records () =
  let sync_lag = 5 in
  let db = H.fresh_split_db ~t_rows:(H.seed_t_rows ~n:60) in
  let d = H.driver ~seed:8 db in
  let options =
    { Options.default with
      Options.scan_batch = 7;
      propagate_batch = 3;
      sync_lag;
      sync = Options.Nonblocking_abort;
      drop_sources = false }
  in
  let tf = H.start db ~options split in
  let held_back = ref 0 and synced = ref false and steps = ref 0 in
  while Transform.phase tf <> Transform.Done && !steps < 1_000 do
    incr steps;
    if !steps <= 60 then
      for _ = 1 to 3 do
        H.random_t_op ~consistent:true d
      done;
    let before = Transform.phase tf in
    ignore (Transform.step tf);
    let p = Transform.progress tf in
    match (before, Transform.phase tf) with
    | Transform.Propagating, Transform.Propagating ->
      Alcotest.(check bool) "held back only above sync_lag" true
        (p.Transform.lag > sync_lag);
      incr held_back
    | Transform.Propagating, _ ->
      synced := true;
      Alcotest.(check bool) "final iteration within sync_lag" true
        (p.Transform.final_records <= sync_lag)
    | _ -> ()
  done;
  Alcotest.(check bool) "completed" true (Transform.phase tf = Transform.Done);
  Alcotest.(check bool) "synchronized from Propagating" true !synced;
  Alcotest.(check bool) "the lag held synchronization back" true
    (!held_back > 0)

(* {1 End-to-end: the threshold drives a transformation to completion
   and it converges} *)

let converges () =
  let db = H.fresh_split_db ~t_rows:(H.seed_t_rows ~n:60) in
  let d = H.driver ~seed:8 db in
  let options =
    { Nbsc_core.Options.default with
      Nbsc_core.Options.scan_batch = 7;
      propagate_batch = 5;
      sync_lag = 8;
      drop_sources = false }
  in
  let tf = H.start db ~options split in
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
  let want_r, want_s = H.split_oracle db in
  H.check_relations_equal "R" want_r (Nbsc_engine.Db.snapshot db "R");
  H.check_relations_equal "S" want_s (Nbsc_engine.Db.snapshot db "S")

(* {1 Options validation} *)

let is_invalid = function
  | Error (`Invalid _) -> true
  | _ -> false

(* Lag is never negative, so these thresholds could never be met:
   accepted, they would keep [Transform.run] propagating forever. *)
let never_ready = [ ("sync_lag -1", -1); ("sync_lag min_int", min_int) ]

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
    (fun (name, sync_lag) ->
       Alcotest.(check bool) name true
         (is_invalid
            (Options.validate { Options.default with Options.sync_lag })))
    never_ready;
  List.iter
    (fun (name, sync_lag) ->
       match Options.validate { Options.default with Options.sync_lag } with
       | Ok _ -> ()
       | Error _ -> Alcotest.failf "%s must validate" name)
    [ ("default", Options.default.Options.sync_lag); ("sync_lag 0", 0) ]

(* The record-update path bypasses every string parser; the funnel in
   [Transform.create] must still reject it with a clear error. *)
let test_create_rejects_programmatic () =
  let db = H.fresh_split_db ~t_rows:(H.seed_t_rows ~n:5) in
  let tf = Transformation.split db (H.split_spec ~assume_consistent:true) in
  let expect_invalid name options =
    match Transform.create db ~options tf with
    | exception Nbsc_error.Error (`Invalid _) -> ()
    | _ -> Alcotest.failf "%s: expected Invalid" name
  in
  expect_invalid "scan_batch 0"
    { Options.default with Options.scan_batch = 0 };
  expect_invalid "sweep_quantum 0"
    { Options.default with
      Options.strategy = Options.Hybrid { sweep_quantum = 0 } };
  List.iter
    (fun (name, sync_lag) ->
       expect_invalid name { Options.default with Options.sync_lag })
    never_ready

let test_parse_rejects () =
  Alcotest.(check bool) "hybrid:0" true
    (Options.migration_of_string "hybrid:0" = None);
  Alcotest.(check bool) "hybrid:-3" true
    (Options.migration_of_string "hybrid:-3" = None)

let () =
  Alcotest.run "analysis"
    [ ( "policies",
        [ Alcotest.test_case "remaining records" `Quick test_remaining_records ] );
      ( "end-to-end",
        [ Alcotest.test_case "remaining-records converges" `Quick converges ] );
      ( "options",
        [ Alcotest.test_case "validate rejects bad knobs" `Quick
            test_validate_rejects;
          Alcotest.test_case "create rejects programmatic records" `Quick
            test_create_rejects_programmatic;
          Alcotest.test_case "parsers reject bad strings" `Quick
            test_parse_rejects ] ) ]
