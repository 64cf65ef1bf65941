(* End-to-end tests of the transformation framework: the central
   convergence property (after synchronization the transformed tables
   equal the relational operator applied to the final sources) under
   quiet and concurrent histories, for both FOJ and split. *)

open Nbsc_value
open Nbsc_storage
open Nbsc_txn
open Nbsc_core
module H = Helpers

let cfg sync =
  { Options.default with
    Options.scan_batch = 7;    (* small batches force many steps *)
    propagate_batch = 5;
    sync;
    drop_sources = false }

let run_with_interleave tf ~between =
  match Transform.run ~between tf with
  | Ok () -> ()
  | Error m -> Alcotest.failf "transformation failed: %s" m

(* {1 FOJ} *)

let check_foj_converged db =
  let expected = H.foj_oracle db in
  let actual = Db.snapshot db "T" in
  H.check_relations_equal "T = FOJ(R, S)" expected actual

let test_foj_quiet () =
  let r_rows, s_rows = H.seed_rows ~r:50 ~s:20 in
  let db = H.fresh_foj_db ~r_rows ~s_rows in
  let tf = H.start db ~options:(cfg Options.Nonblocking_abort) (Spec.Foj H.foj_spec) in
  run_with_interleave tf ~between:(fun () -> ());
  check_foj_converged db;
  Alcotest.(check int) "row count"
    (List.length (H.foj_oracle db).Nbsc_relalg.Relalg.rows)
    (Db.row_count db "T")

let test_foj_scanned_exact () =
  (* Regression: the leftover pass (unmatched S rows emitted after the
     R scan) used to bill each leftover a second time, so [scanned]
     came out as |R| + |S| + |unmatched S|. Every source record is
     fuzzy-scanned exactly once: [scanned] must equal |R| + |S|. *)
  let r = 50 and s = 20 in
  let r_rows, s_rows = H.seed_rows ~r ~s in
  (* seed_rows gives R c-values 0..16 and S keys 0..19, so S keys
     17..19 are unmatched leftovers — the case that double-counted. *)
  let db = H.fresh_foj_db ~r_rows ~s_rows in
  let tf = H.start db ~options:(cfg Options.Nonblocking_abort) (Spec.Foj H.foj_spec) in
  run_with_interleave tf ~between:(fun () -> ());
  let p = Transform.progress tf in
  Alcotest.(check int) "scanned = |R| + |S|" (r + s) p.Transform.scanned;
  check_foj_converged db

let test_foj_concurrent strategy () =
  let r_rows, s_rows = H.seed_rows ~r:80 ~s:25 in
  let db = H.fresh_foj_db ~r_rows ~s_rows in
  let d = H.driver ~seed:7 db in
  let tf = H.start db ~options:(cfg strategy) (Spec.Foj H.foj_spec) in
  let budget = ref 400 in
  run_with_interleave tf ~between:(fun () ->
      if !budget > 0 then begin
        decr budget;
        H.random_r_op d;
        H.random_s_op d
      end);
  check_foj_converged db

let test_foj_fig1 () =
  (* The worked example of Figure 1: three R rows, two S rows, one
     unmatched on each side. *)
  let r_rows = [ H.ri 1 "John" 10; H.ri 2 "Karen" 30; H.ri 3 "Mary" 10 ] in
  let s_rows = [ H.si 10 "x"; H.si 20 "y" ] in
  let db = H.fresh_foj_db ~r_rows ~s_rows in
  let tf = H.start db ~options:(cfg Options.Nonblocking_abort) (Spec.Foj H.foj_spec) in
  run_with_interleave tf ~between:(fun () -> ());
  let t = Db.snapshot db "T" in
  let expected =
    [ Row.make [ Value.Int 10; Value.Int 1; Value.Text "John"; Value.Text "x" ];
      Row.make [ Value.Int 30; Value.Int 2; Value.Text "Karen"; Value.Null ];
      Row.make [ Value.Int 10; Value.Int 3; Value.Text "Mary"; Value.Text "x" ];
      Row.make [ Value.Int 20; Value.Null; Value.Null; Value.Text "y" ] ]
  in
  H.check_relations_equal "figure 1"
    (Nbsc_relalg.Relalg.make t.Nbsc_relalg.Relalg.schema expected)
    t

let test_foj_drop_sources () =
  let r_rows, s_rows = H.seed_rows ~r:10 ~s:5 in
  let db = H.fresh_foj_db ~r_rows ~s_rows in
  let options = { (cfg Options.Nonblocking_abort) with Options.drop_sources = true } in
  let tf = H.start db ~options (Spec.Foj H.foj_spec) in
  run_with_interleave tf ~between:(fun () -> ());
  Alcotest.(check bool) "R dropped" false (Catalog.mem (Db.catalog db) "R");
  Alcotest.(check bool) "S dropped" false (Catalog.mem (Db.catalog db) "S");
  Alcotest.(check bool) "T exists" true (Catalog.mem (Db.catalog db) "T")

let test_foj_routing_flips () =
  let r_rows, s_rows = H.seed_rows ~r:30 ~s:10 in
  let db = H.fresh_foj_db ~r_rows ~s_rows in
  let tf = H.start db ~options:(cfg Options.Nonblocking_abort) (Spec.Foj H.foj_spec) in
  Alcotest.(check bool) "starts on sources" true (Transform.routing tf = `Sources);
  run_with_interleave tf ~between:(fun () -> ());
  Alcotest.(check bool) "ends on targets" true (Transform.routing tf = `Targets)

let test_foj_abort_mid_flight () =
  let r_rows, s_rows = H.seed_rows ~r:40 ~s:15 in
  let db = H.fresh_foj_db ~r_rows ~s_rows in
  let before_r = Db.snapshot db "R" in
  let tf = H.start db ~options:(cfg Options.Nonblocking_abort) (Spec.Foj H.foj_spec) in
  (* A few steps in, change course. *)
  ignore (Transform.step tf);
  ignore (Transform.step tf);
  Transform.abort tf;
  Alcotest.(check bool) "T gone" false (Catalog.mem (Db.catalog db) "T");
  H.check_relations_equal "R untouched" before_r (Db.snapshot db "R");
  (* The engine still works. *)
  let d = H.driver db in
  H.random_r_op d;
  Alcotest.(check bool) "ops still run" true (d.H.ops_done >= 0)

let test_foj_forced_aborts () =
  (* A transaction holding a lock on R across the sync point must be
     forced to abort by the non-blocking abort strategy, and its update
     must not survive anywhere. *)
  let r_rows, s_rows = H.seed_rows ~r:20 ~s:8 in
  let db = H.fresh_foj_db ~r_rows ~s_rows in
  let mgr = Db.manager db in
  let victim = Manager.begin_txn mgr in
  (match
     Manager.update mgr ~txn:victim ~table:"R"
       ~key:(Row.make [ Value.Int 1 ])
       [ (1, Value.Text "doomed") ]
   with
   | Ok () -> ()
   | Error e -> Alcotest.failf "victim update: %a" Manager.pp_error e);
  let tf = H.start db ~options:(cfg Options.Nonblocking_abort) (Spec.Foj H.foj_spec) in
  run_with_interleave tf ~between:(fun () -> ());
  Alcotest.(check bool) "victim aborted" true
    (Manager.status mgr victim = Manager.Aborted);
  let p = Transform.progress tf in
  Alcotest.(check bool) "counted" true (p.Transform.forced_aborts >= 1);
  check_foj_converged db;
  (* "doomed" must have been rolled back out of T as well. *)
  let t = Db.snapshot db "T" in
  let has_doomed =
    List.exists
      (fun row -> Array.exists (Value.equal (Value.Text "doomed")) row)
      t.Nbsc_relalg.Relalg.rows
  in
  Alcotest.(check bool) "no doomed value in T" false has_doomed

let test_foj_nonblocking_commit_survivor () =
  (* Under non-blocking commit a transaction spanning the sync point is
     allowed to finish and commit; its writes must reach T. *)
  let r_rows, s_rows = H.seed_rows ~r:20 ~s:8 in
  let db = H.fresh_foj_db ~r_rows ~s_rows in
  let mgr = Db.manager db in
  let survivor = Manager.begin_txn mgr in
  (match
     Manager.update mgr ~txn:survivor ~table:"R"
       ~key:(Row.make [ Value.Int 2 ])
       [ (1, Value.Text "survives") ]
   with
   | Ok () -> ()
   | Error e -> Alcotest.failf "survivor update: %a" Manager.pp_error e);
  let tf = H.start db ~options:(cfg Options.Nonblocking_commit) (Spec.Foj H.foj_spec) in
  let committed = ref false in
  run_with_interleave tf ~between:(fun () ->
      if (not !committed) && Transform.routing tf = `Targets then begin
        (* Old transaction does one more source-side write, then commits. *)
        (match
           Manager.update mgr ~txn:survivor ~table:"R"
             ~key:(Row.make [ Value.Int 2 ])
             [ (1, Value.Text "survives2") ]
         with
         | Ok () -> ()
         | Error e -> Alcotest.failf "post-sync update: %a" Manager.pp_error e);
        (match Manager.commit mgr survivor with
         | Ok () -> ()
         | Error e -> Alcotest.failf "survivor commit: %a" Manager.pp_error e);
        committed := true
      end);
  Alcotest.(check bool) "committed across sync" true !committed;
  check_foj_converged db;
  let t = Db.snapshot db "T" in
  let has v =
    List.exists
      (fun row -> Array.exists (Value.equal (Value.Text v)) row)
      t.Nbsc_relalg.Relalg.rows
  in
  Alcotest.(check bool) "post-sync write reached T" true (has "survives2")

let test_foj_blocking_commit () =
  let r_rows, s_rows = H.seed_rows ~r:30 ~s:10 in
  let db = H.fresh_foj_db ~r_rows ~s_rows in
  let d = H.driver ~seed:3 db in
  let tf = H.start db ~options:(cfg Options.Blocking_commit) (Spec.Foj H.foj_spec) in
  let budget = ref 100 in
  run_with_interleave tf ~between:(fun () ->
      if !budget > 0 then begin
        decr budget;
        H.random_r_op d
      end);
  check_foj_converged db

(* {1 Split} *)

let check_split_converged db =
  let expected_r, expected_s = H.split_oracle db in
  H.check_relations_equal "R = pi_R(T)" expected_r (Db.snapshot db "R");
  H.check_relations_equal "S = pi_S(T)" expected_s (Db.snapshot db "S")

let check_split_counters db =
  let expected =
    Nbsc_relalg.Relalg.split_multiplicity H.split_relalg (Db.snapshot db "T")
  in
  let s_tbl = Db.table db "S" in
  List.iter
    (fun (key, n) ->
       match Table.find s_tbl key with
       | None -> Alcotest.failf "missing S record %s" (Row.Key.to_string key)
       | Some record ->
         Alcotest.(check int)
           (Printf.sprintf "counter of %s" (Row.Key.to_string key))
           n record.Record.counter)
    expected;
  Alcotest.(check int) "no extra S records" (List.length expected)
    (Table.cardinality s_tbl)

let test_split_quiet () =
  let db = H.fresh_split_db ~t_rows:(H.seed_t_rows ~n:60) in
  let tf =
    H.start db ~options:(cfg Options.Nonblocking_abort)
      (Spec.Split (H.split_spec ~assume_consistent:true))
  in
  run_with_interleave tf ~between:(fun () -> ());
  check_split_converged db;
  check_split_counters db

let test_split_concurrent consistent strategy () =
  let db = H.fresh_split_db ~t_rows:(H.seed_t_rows ~n:80) in
  let d = H.driver ~seed:11 db in
  let tf =
    H.start db ~options:(cfg strategy)
      (Spec.Split (H.split_spec ~assume_consistent:consistent))
  in
  let budget = ref 300 in
  run_with_interleave tf ~between:(fun () ->
      if !budget > 0 then begin
        decr budget;
        H.random_t_op ~consistent:true d
      end);
  check_split_converged db;
  check_split_counters db;
  if not consistent then begin
    (* Everything must have been C-flagged before sync. *)
    let s_tbl = Db.table db "S" in
    Table.iter s_tbl (fun key record ->
        if record.Record.flag <> Record.Consistent then
          Alcotest.failf "S record %s still U" (Row.Key.to_string key))
  end

let test_split_fig3 () =
  (* Figure 3 / Example 1 shape: customers split on postal code. *)
  let rows =
    [ H.ti 1 "Peter" 7050 "Trondheim";
      H.ti 2 "Mark" 5020 "Bergen";
      H.ti 3 "Gary" 50 "Oslo";
      H.ti 134 "Jen" 7050 "Trondheim" ]
  in
  let db = H.fresh_split_db ~t_rows:rows in
  let tf =
    H.start db ~options:(cfg Options.Nonblocking_abort)
      (Spec.Split (H.split_spec ~assume_consistent:true))
  in
  run_with_interleave tf ~between:(fun () -> ());
  check_split_converged db;
  let s_tbl = Db.table db "S" in
  (match Table.find s_tbl (Row.make [ Value.Int 7050 ]) with
   | Some record -> Alcotest.(check int) "7050 counted twice" 2 record.Record.counter
   | None -> Alcotest.fail "7050 missing");
  Alcotest.(check int) "three postal codes" 3 (Table.cardinality s_tbl)

let test_split_inconsistency_repaired () =
  (* Example 1: Trondheim vs Trnodheim. The checker cannot confirm the
     record until the data is repaired by a user transaction. *)
  let rows =
    [ H.ti 1 "Peter" 7050 "Trondheim";
      H.ti 2 "Mark" 5020 "Bergen";
      H.ti 134 "Jen" 7050 "Trnodheim" ]
  in
  let db = H.fresh_split_db ~t_rows:rows in
  let mgr = Db.manager db in
  let tf =
    H.start db ~options:(cfg Options.Nonblocking_abort)
      (Spec.Split (H.split_spec ~assume_consistent:false))
  in
  let repaired = ref false in
  let steps = ref 0 in
  run_with_interleave tf ~between:(fun () ->
      incr steps;
      if !steps > 2000 then Alcotest.fail "transformation did not converge";
      if (not !repaired) && Transform.phase tf = Transform.Checking then begin
        (* The DBA fixes the typo. *)
        let txn = Manager.begin_txn mgr in
        (match
           Manager.update mgr ~txn ~table:"T"
             ~key:(Row.make [ Value.Int 134 ])
             [ (3, Value.Text "Trondheim") ]
         with
         | Ok () -> ()
         | Error e -> Alcotest.failf "repair: %a" Manager.pp_error e);
        (match Manager.commit mgr txn with
         | Ok () -> ()
         | Error e -> Alcotest.failf "repair commit: %a" Manager.pp_error e);
        repaired := true
      end);
  Alcotest.(check bool) "repair happened" true !repaired;
  check_split_converged db;
  let cc = Option.get (Transform.checker tf) in
  let st = Consistency.stats cc in
  Alcotest.(check bool) "checker confirmed something" true
    (st.Consistency.confirmed >= 1)


(* {1 A schema where S has a surrogate key}

   With S keyed by its join attribute (the fixture above), the engine
   refuses join-attribute updates on S (primary keys are immutable), so
   Rule 6 is only reachable through hand-made log records. This variant
   gives S a surrogate key k and a unique join attribute c, making
   Rule 6 reachable through real transactions. *)

let s2_schema =
  Schema.make ~key:[ "k" ]
    [ Schema.column ~nullable:false "k" Value.TInt;
      Schema.column "c" Value.TInt; Schema.column "d" Value.TText ]

let foj2_spec =
  { Spec.r_table = "R";
    s_table = "S";
    t_table = "T";
    join_r = [ "c" ];
    join_s = [ "c" ];
    t_join = [ "c" ];
    r_carry = [ "a"; "b" ];
    s_carry = [ "k"; "d" ];
    many_to_many = false }

let test_foj_surrogate_s_key_rule6 () =
  let db = Db.create () in
  ignore (Db.create_table db ~name:"R" H.r_schema);
  ignore (Db.create_table db ~name:"S" s2_schema);
  (* Each S row k owns the join range [100k, 100k+9]; updates move c
     within the range, keeping c unique in S (the 1:N requirement). *)
  (match
     Db.load db ~table:"R"
       (List.init 40 (fun i -> H.ri i ("r" ^ string_of_int i) ((i mod 8) * 100)))
   with Ok () -> () | Error _ -> Alcotest.fail "load R");
  (match
     Db.load db ~table:"S"
       (List.init 8 (fun k ->
            Row.make [ Value.Int k; Value.Int (k * 100); Value.Text ("d" ^ string_of_int k) ]))
   with Ok () -> () | Error _ -> Alcotest.fail "load S");
  let tf = H.start db ~options:(cfg Options.Nonblocking_abort) (Spec.Foj foj2_spec) in
  let mgr = Db.manager db in
  let rng = Random.State.make [| 17 |] in
  let budget = ref 150 in
  run_with_interleave tf ~between:(fun () ->
      if !budget > 0 && Transform.routing tf = `Sources then begin
        decr budget;
        let txn = Manager.begin_txn mgr in
        let outcome =
          if Random.State.bool rng then
            (* Rule 6 trigger: move an S row's join attribute. *)
            let k = Random.State.int rng 8 in
            Manager.update mgr ~txn ~table:"S"
              ~key:(Row.make [ Value.Int k ])
              [ (1, Value.Int ((k * 100) + Random.State.int rng 10)) ]
          else
            let a = Random.State.int rng 40 in
            Manager.update mgr ~txn ~table:"R"
              ~key:(Row.make [ Value.Int a ])
              [ (2, Value.Int ((Random.State.int rng 8 * 100) + Random.State.int rng 10)) ]
        in
        match outcome with
        | Ok () -> ignore (Manager.commit mgr txn)
        | Error _ -> ignore (Manager.abort mgr txn)
      end);
  let oracle =
    Nbsc_relalg.Relalg.full_outer_join
      { Nbsc_relalg.Relalg.r_join = [ "c" ]; s_join = [ "c" ];
        out_join = [ "c" ]; r_cols = [ "a"; "b" ]; s_cols = [ "k"; "d" ];
        out_key = [ "a"; "k" ] }
      (Db.snapshot db "R") (Db.snapshot db "S")
  in
  H.check_relations_equal "surrogate-key FOJ converges" oracle
    (Db.snapshot db "T")

(* {1 The central property: convergence under random histories}

   For random data, random concurrent operation histories and random
   step interleavings, after synchronization the transformed tables
   equal the operator applied to the final sources — the guarantee
   Theorem 1 and the rules exist to provide. *)

let strategy_of_int = function
  | 0 -> Options.Blocking_commit
  | 1 -> Options.Nonblocking_abort
  | _ -> Options.Nonblocking_commit

let prop_foj_converges =
  QCheck.Test.make ~name:"FOJ converges under random histories" ~count:60
    QCheck.(triple small_nat small_nat (int_bound 2))
    (fun (seed, size_seed, strat) ->
       let r = 10 + (size_seed * 7 mod 60) and s = 5 + (size_seed mod 20) in
       let r_rows, s_rows = H.seed_rows ~r ~s in
       let db = H.fresh_foj_db ~r_rows ~s_rows in
       let d = H.driver ~seed db in
       let options =
         { (cfg (strategy_of_int strat)) with
           Options.scan_batch = 3 + (seed mod 9);
           propagate_batch = 2 + (seed mod 7) }
       in
       let tf = H.start db ~options (Spec.Foj H.foj_spec) in
       let budget = ref (50 + (seed mod 100)) in
       (match
          Transform.run tf ~between:(fun () ->
              if !budget > 0 then begin
                decr budget;
                H.random_r_op d;
                if seed mod 2 = 0 then H.random_s_op d
              end)
        with
        | Ok () -> ()
        | Error m -> QCheck.Test.fail_reportf "failed: %s" m);
       Nbsc_relalg.Relalg.equal_as_sets (H.foj_oracle db) (Db.snapshot db "T"))

let prop_split_converges =
  QCheck.Test.make ~name:"split converges under random histories" ~count:60
    QCheck.(triple small_nat small_nat (int_bound 2))
    (fun (seed, size_seed, strat) ->
       let n = 20 + (size_seed * 11 mod 80) in
       let db = H.fresh_split_db ~t_rows:(H.seed_t_rows ~n) in
       let d = H.driver ~seed db in
       let options =
         { (cfg (strategy_of_int strat)) with
           Options.scan_batch = 3 + (seed mod 9);
           propagate_batch = 2 + (seed mod 7) }
       in
       let tf =
         H.start db ~options
           (Spec.Split (H.split_spec ~assume_consistent:(seed mod 2 = 0)))
       in
       let budget = ref (50 + (seed mod 100)) in
       (match
          Transform.run tf ~between:(fun () ->
              if !budget > 0 then begin
                decr budget;
                H.random_t_op ~consistent:true d
              end)
        with
        | Ok () -> ()
        | Error m -> QCheck.Test.fail_reportf "failed: %s" m);
       let expected_r, expected_s = H.split_oracle db in
       Nbsc_relalg.Relalg.equal_as_sets expected_r (Db.snapshot db "R")
       && Nbsc_relalg.Relalg.equal_as_sets expected_s (Db.snapshot db "S"))

(* {1 Lock transfer} *)

let test_transfer_idempotent () =
  (* Regression: the bulk transfer at non-blocking-commit sync counted
     every source lock it visited, including locks whose target copies
     the propagator had already transferred while applying the log.
     Repeating the transfer must leave [locks_transferred] unchanged. *)
  let r_rows, s_rows = H.seed_rows ~r:20 ~s:8 in
  let db = H.fresh_foj_db ~r_rows ~s_rows in
  let mgr = Db.manager db in
  let tf = Transformation.foj db H.foj_spec in
  while not (Population.finished tf.population) do
    ignore (Population.step tf.population ~limit:max_int)
  done;
  let prop = Transformation.start_propagator mgr tf.rules in
  let to_targets = tf.lock_map.source_to_targets in
  (* Two transactions left open, holding write locks on the sources. *)
  let t1 = Manager.begin_txn mgr in
  (match
     Manager.update mgr ~txn:t1 ~table:"R" ~key:[| Value.Int 1 |]
       [ (1, Value.Text "held") ]
   with
   | Ok () -> ()
   | Error e -> Alcotest.failf "update R: %a" Manager.pp_error e);
  let t2 = Manager.begin_txn mgr in
  (match
     Manager.update mgr ~txn:t2 ~table:"S" ~key:[| Value.Int 0 |]
       [ (1, Value.Text "held") ]
   with
   | Ok () -> ()
   | Error e -> Alcotest.failf "update S: %a" Manager.pp_error e);
  ignore (Propagator.run_to_head prop);
  let after_propagation = Propagator.locks_transferred prop in
  Alcotest.(check bool) "propagation transferred locks" true
    (after_propagation > 0);
  Propagator.transfer_current_source_locks prop to_targets;
  let first = Propagator.locks_transferred prop in
  Propagator.transfer_current_source_locks prop to_targets;
  Propagator.transfer_current_source_locks prop to_targets;
  let repeated = Propagator.locks_transferred prop in
  Alcotest.(check int) "repeated transfer adds nothing" first repeated;
  Alcotest.(check int) "already-held locks not recounted"
    after_propagation first;
  ignore (Manager.abort mgr t1);
  ignore (Manager.abort mgr t2);
  ignore (Propagator.run_to_head prop);
  Propagator.close prop

(* {1 Cancel after synchronization}

   Cancelling a change that has switched must take back everything it
   made user operations do: the freeze on its source and the
   two-schema lock extension of non-blocking commit. *)

let test_cancel_after_sync_releases () =
  let db = H.fresh_split_db ~t_rows:(H.seed_t_rows ~n:20) in
  let mgr = Db.manager db in
  let sc =
    match
      Db.Schema_change.start db ~options:(cfg Options.Nonblocking_commit)
        (Spec.Hsplit
           { Spec.h_source = "T";
             h_true_table = "T_hi";
             h_false_table = "T_lo";
             h_pred = Pred.Cmp ("c", Pred.Gt, Value.Int 6) })
    with
    | Ok sc -> sc
    | Error e -> Alcotest.failf "start: %s" (Nbsc_error.to_string e)
  in
  let tf = Db.Schema_change.transform sc in
  let update txn k =
    Manager.update mgr ~txn ~table:"T" ~key:(Row.make [ Value.Int k ])
      [ (1, Value.Text "w") ]
  in
  let ok name = function
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: %a" name Manager.pp_error e
  in
  let locks_held txn =
    List.length
      (Nbsc_lock.Lock_table.locks_of_owner (Manager.locks mgr) ~owner:txn)
  in
  (* An old transaction holds a source row across the switch, so the
     change stays in Draining. *)
  let old = Manager.begin_txn mgr in
  ok "old locks T.1" (update old 1);
  let rec to_draining n =
    if Transform.phase tf <> Transform.Draining then
      if n = 0 then Alcotest.fail "never reached Draining"
      else begin
        ignore (Transform.step tf);
        to_draining (n - 1)
      end
  in
  to_draining 1000;
  let newcomer = Manager.begin_txn mgr in
  (match update newcomer 3 with
   | Error (`Frozen "T") -> ()
   | Ok () -> Alcotest.fail "newcomer admitted to a switched source"
   | Error e -> Alcotest.failf "newcomer: %a" Manager.pp_error e);
  let before = locks_held old in
  ok "old updates T.2" (update old 2);
  Alcotest.(check int) "source row and both targets" 3
    (locks_held old - before);
  Db.Schema_change.cancel sc;
  ok "newcomer admitted after cancel" (update newcomer 3);
  Alcotest.(check int) "newcomer holds its own lock only" 1
    (locks_held newcomer);
  ok "old commits" (Manager.commit mgr old);
  ok "newcomer commits" (Manager.commit mgr newcomer)

(* {1 Sized targets and the online split index}

   A change sizes every table it fills from its sources when it starts,
   so no quantum rehashes one; the split fills its source's split index
   from a fuzzy scan inside its population quanta. *)

let ok name = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %a" name Manager.pp_error e

let update_b db ~table ~rng ~keys =
  let mgr = Db.manager db in
  let txn = Manager.begin_txn mgr in
  let a = List.nth keys (Random.State.int rng (List.length keys)) in
  match
    Manager.update mgr ~txn ~table ~key:(Row.make [ Value.Int a ])
      [ (1, Value.Text ("w" ^ string_of_int (Random.State.int rng 1000))) ]
  with
  | Ok () -> ok "commit" (Manager.commit mgr txn)
  | Error _ -> ignore (Manager.abort mgr txn)

let test_no_growth op () =
  let n = 5_000 in
  let t_rows = List.init n (fun i -> H.ti (i + 1) "n" (i mod 13) "d") in
  let db, spec, sources, filled =
    match op with
    | `Foj ->
      let r_rows, s_rows = H.seed_rows ~r:n ~s:2_000 in
      ( H.fresh_foj_db ~r_rows ~s_rows, Spec.Foj H.foj_spec,
        [ ("R", List.init n (fun i -> i + 1)) ], [ "T" ] )
    | `Split ->
      ( H.fresh_split_db ~t_rows, Spec.Split (H.split_spec ~assume_consistent:true),
        [ ("T", List.init n (fun i -> i + 1)) ], [ "R"; "S"; "T" ] )
    | `Hsplit ->
      ( H.fresh_split_db ~t_rows,
        Spec.Hsplit
          { Spec.h_source = "T"; h_true_table = "T_hi"; h_false_table = "T_lo";
            h_pred = Pred.Cmp ("c", Pred.Gt, Value.Int 6) },
        [ ("T", List.init n (fun i -> i + 1)) ], [ "T_hi"; "T_lo" ] )
    | `Merge ->
      let db = H.fresh_split_db ~t_rows in
      ignore (Db.create_table db ~name:"T2" H.t_flat_schema);
      ok "load T2"
        (Db.load db ~table:"T2"
           (List.init 2_000 (fun i -> H.ti (n + i + 1) "m" (i mod 13) "d")));
      ( db, Spec.Merge { Spec.m_sources = [ "T"; "T2" ]; m_target = "TT" },
        [ ("T", List.init n (fun i -> i + 1));
          ("T2", List.init 2_000 (fun i -> n + i + 1)) ],
        [ "TT" ] )
  in
  let options =
    { (cfg Options.Nonblocking_abort) with
      Options.scan_batch = 64; propagate_batch = 64 }
  in
  let tf = H.start db ~options spec in
  (* For the split, T's own entry covers the split index it fills. *)
  let buckets () = List.map (fun t -> (t, Table.buckets (Db.table db t))) filled in
  let at_start = buckets () in
  let rng = Random.State.make [| 17 |] in
  run_with_interleave tf ~between:(fun () ->
      if Transform.routing tf = `Sources then
        List.iter (fun (table, keys) -> update_b db ~table ~rng ~keys) sources);
  Alcotest.(check bool) "done" true (Transform.phase tf = Transform.Done);
  Alcotest.(check (list (pair string (list (pair string int)))))
    "bucket counts unchanged" at_start (buckets ())

let split_options sync = { (cfg sync) with Options.scan_batch = 16 }

(* Run a split of 2 000 seeded rows to the end of population, with
   inserts, deletes and split-column updates on T between quanta. *)
let split_through_population sync =
  let db = H.fresh_split_db ~t_rows:(H.seed_t_rows ~n:2_000) in
  let tf =
    H.start db ~options:(split_options sync)
      (Spec.Split (H.split_spec ~assume_consistent:true))
  in
  let d = H.driver ~seed:23 db in
  let quanta = ref 0 in
  while Transform.phase tf = Transform.Populating do
    incr quanta;
    ignore (Transform.step tf);
    H.random_t_op ~consistent:true d;
    H.random_t_op ~consistent:true d
  done;
  Alcotest.(check bool) "population spans many quanta" true (!quanta > 50);
  (db, tf)

let test_online_index_exact () =
  let db, tf = split_through_population Options.Nonblocking_commit in
  H.check_split_index "online = blocking after population" db;
  (* Hold one T row across the switch, so the change waits in Draining
     with its two-schema lock extension installed. *)
  let mgr = Db.manager db in
  let held = H.ti 1 "held" 1 (H.city_of 1) in
  let old = Manager.begin_txn mgr in
  ok "old txn"
    (match Manager.insert mgr ~txn:old ~table:"T" held with
     | Error `Duplicate_key ->
       Manager.update mgr ~txn:old ~table:"T" ~key:(Row.make [ Value.Int 1 ])
         [ (1, Value.Text "held") ]
     | r -> r);
  let guard = ref 0 in
  while Transform.phase tf <> Transform.Draining do
    incr guard;
    if !guard > 5_000 then Alcotest.fail "never reached Draining";
    ignore (Transform.step tf)
  done;
  let expected = H.blocking_split_index db in
  let held_c =
    Row.get (Option.get (Table.find (Db.table db "T") (Row.make [ Value.Int 1 ]))).Record.row 2
  in
  (* A newcomer's write to an S record also locks, through the split
     index, every T row of its group: exactly the rows a blocking
     build lists. *)
  let checked = ref 0 in
  for c = 0 to 39 do
    let v = Value.Int c in
    if (not (Value.equal v held_c))
       && Table.mem (Db.table db "S") (Row.make [ v ])
    then begin
      let txn = Manager.begin_txn mgr in
      ok "newcomer writes S"
        (Manager.update mgr ~txn ~table:"S" ~key:(Row.make [ v ])
           [ (1, Value.Text "z") ]);
      let locked =
        List.filter_map
          (fun (table, key, _) -> if String.equal table "T" then Some key else None)
          (Nbsc_lock.Lock_table.locks_of_owner (Manager.locks mgr) ~owner:txn)
        |> List.sort Row.Key.compare
      in
      let want =
        List.filter_map
          (fun (p, k) -> if Row.Key.equal p [| v |] then Some k else None)
          expected
      in
      Alcotest.(check int) (Printf.sprintf "T locks for S %d" c)
        (List.length want) (List.length locked);
      Alcotest.(check bool) (Printf.sprintf "same T rows for S %d" c) true
        (List.for_all2 Row.Key.equal want locked);
      ignore (Manager.abort mgr txn);
      incr checked
    end
  done;
  Alcotest.(check bool) "several groups checked" true (!checked > 10);
  ok "old commits" (Manager.commit mgr old);
  (match Transform.run tf with Ok () -> () | Error m -> Alcotest.fail m)

(* Cancel mid-fill: the half-filled index answers nobody; a second
   split of the same T fills it, and so does the trigger method's
   population, which adopts the partial index. *)
let test_cancel_mid_fill () =
  let start db =
    Db.Schema_change.start db ~options:(split_options Options.Nonblocking_abort)
      (Spec.Split (H.split_spec ~assume_consistent:true))
    |> function
    | Ok sc -> sc
    | Error e -> Alcotest.failf "start: %s" (Nbsc_error.to_string e)
  in
  let cancel_mid_fill db d =
    let sc = start db in
    for _ = 1 to 20 do
      ignore (Db.Schema_change.step sc);
      H.random_t_op ~consistent:true d
    done;
    Alcotest.(check bool) "still populating" true
      (Transform.phase (Db.Schema_change.transform sc) = Transform.Populating);
    Db.Schema_change.cancel sc;
    Alcotest.(check bool) "partial index refused after cancel" true
      (H.refuses_split_index db)
  in
  let db = H.fresh_split_db ~t_rows:(H.seed_t_rows ~n:1_000) in
  let d = H.driver ~seed:29 db in
  cancel_mid_fill db d;
  let sc = start db in
  (match
     Db.Schema_change.run sc ~between:(fun () ->
         if Transform.routing (Db.Schema_change.transform sc) = `Sources then
           H.random_t_op ~consistent:true d)
   with
   | Ok () -> ()
   | Error e -> Alcotest.fail (Nbsc_error.to_string e));
  H.check_split_index "second split fills it" db;
  let db = H.fresh_split_db ~t_rows:(H.seed_t_rows ~n:1_000) in
  let d = H.driver ~seed:31 db in
  cancel_mid_fill db d;
  for _ = 1 to 10 do H.random_t_op ~consistent:true d done;
  let trigger =
    Nbsc_baseline.Trigger_method.install db
      (Transformation.split db (H.split_spec ~assume_consistent:true))
  in
  H.check_split_index "the trigger method's population completes it" db;
  Nbsc_baseline.Trigger_method.uninstall trigger

(* {1 Wiring} *)

let () =
  Alcotest.run "transform"
    [ ( "foj",
        [ Alcotest.test_case "quiet convergence" `Quick test_foj_quiet;
          Alcotest.test_case "scanned counts each source record once"
            `Quick test_foj_scanned_exact;
          Alcotest.test_case "figure 1 example" `Quick test_foj_fig1;
          Alcotest.test_case "concurrent, non-blocking abort" `Quick
            (test_foj_concurrent Options.Nonblocking_abort);
          Alcotest.test_case "concurrent, non-blocking commit" `Quick
            (test_foj_concurrent Options.Nonblocking_commit);
          Alcotest.test_case "concurrent, blocking commit" `Quick
            (test_foj_concurrent Options.Blocking_commit);
          Alcotest.test_case "drops sources" `Quick test_foj_drop_sources;
          Alcotest.test_case "routing flips at sync" `Quick
            test_foj_routing_flips;
          Alcotest.test_case "abort mid-flight" `Quick test_foj_abort_mid_flight;
          Alcotest.test_case "forced aborts roll back everywhere" `Quick
            test_foj_forced_aborts;
          Alcotest.test_case "non-blocking commit survivor" `Quick
            test_foj_nonblocking_commit_survivor;
          Alcotest.test_case "blocking commit with load" `Quick
            test_foj_blocking_commit;
          Alcotest.test_case "surrogate S key (rule 6 live)" `Quick
            test_foj_surrogate_s_key_rule6 ] );
      ( "split",
        [ Alcotest.test_case "quiet convergence" `Quick test_split_quiet;
          Alcotest.test_case "figure 3 example" `Quick test_split_fig3;
          Alcotest.test_case "concurrent, consistent mode" `Quick
            (test_split_concurrent true Options.Nonblocking_abort);
          Alcotest.test_case "concurrent, checked mode" `Quick
            (test_split_concurrent false Options.Nonblocking_abort);
          Alcotest.test_case "concurrent, non-blocking commit" `Quick
            (test_split_concurrent true Options.Nonblocking_commit);
          Alcotest.test_case "Example 1 inconsistency repaired" `Quick
            test_split_inconsistency_repaired ] );
      ( "locks",
        [ Alcotest.test_case "bulk transfer is idempotent" `Quick
            test_transfer_idempotent ] );
      ( "cancel",
        [ Alcotest.test_case "after sync releases everything it installed"
            `Quick test_cancel_after_sync_releases;
          Alcotest.test_case "mid-fill leaves no partial answer" `Quick
            test_cancel_mid_fill ] );
      ( "sizing",
        [ Alcotest.test_case "foj targets never rehash" `Quick
            (test_no_growth `Foj);
          Alcotest.test_case "split targets never rehash" `Quick
            (test_no_growth `Split);
          Alcotest.test_case "hsplit targets never rehash" `Quick
            (test_no_growth `Hsplit);
          Alcotest.test_case "merge target never rehashes" `Quick
            (test_no_growth `Merge) ] );
      ( "index",
        [ Alcotest.test_case "online fill = blocking build + locks" `Quick
            test_online_index_exact ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_foj_converges; prop_split_converges ] ) ]
