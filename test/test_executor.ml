(* The generic quantum executor: several transformations in flight at
   once, driven round-robin through the Db job registry while user
   transactions commit throughout; and the pluggable Transformation.t
   contract exercised with an operator the executor has never heard
   of. *)

open Nbsc_value
open Nbsc_wal
open Nbsc_storage
open Nbsc_txn
open Nbsc_core
module H = Helpers

(* propagate_batch must outpace the per-round log growth of the user
   traffic below, or neither transformation ever catches up. *)
let cfg =
  { Options.default with
    Options.scan_batch = 7;
    propagate_batch = 32;
    drop_sources = false }

(* {1 Two concurrent transformations through the job registry} *)

let u_pred = Pred.Cmp ("c", Pred.Gt, Value.Int 30)

let u_hspec =
  { Spec.h_source = "U";
    h_true_table = "U_arch";
    h_false_table = "U_live";
    h_pred = u_pred }

(* R/S for the FOJ plus an unrelated flat table U for the hsplit. *)
let fresh_two_tf_db () =
  let r_rows, s_rows = H.seed_rows ~r:60 ~s:12 in
  let db = H.fresh_foj_db ~r_rows ~s_rows in
  ignore (Db.create_table db ~name:"U" H.t_flat_schema);
  H.ok "load U"
    (Db.load db ~table:"U"
       (List.init 70 (fun i ->
            H.ti (i + 1) ("u" ^ string_of_int i) (i mod 60) "x")));
  db

let random_u_op db rng ~budget =
  let mgr = Db.manager db in
  let txn = Manager.begin_txn mgr in
  let outcome =
    match Random.State.int rng 3 with
    | 0 ->
      (* age update that can flip the predicate *)
      Manager.update mgr ~txn ~table:"U"
        ~key:(Row.make [ Value.Int (1 + Random.State.int rng 70) ])
        [ (2, Value.Int (Random.State.int rng 60)) ]
    | 1 ->
      Manager.insert mgr ~txn ~table:"U"
        (H.ti (2000 + budget) "new" (Random.State.int rng 60) "y")
    | _ ->
      Manager.delete mgr ~txn ~table:"U"
        ~key:(Row.make [ Value.Int (1 + Random.State.int rng 70) ])
  in
  match outcome with
  | Ok () -> (match Manager.commit mgr txn with Ok () -> true | Error _ -> false)
  | Error _ ->
    ignore (Manager.abort mgr txn);
    false

let test_concurrent_foj_and_hsplit () =
  let db = fresh_two_tf_db () in
  let foj_tf = H.start db ~options:cfg (Spec.Foj H.foj_spec) in
  let hs_tf = H.start db ~options:cfg (Spec.Hsplit u_hspec) in
  Alcotest.(check (list string))
    "both registered"
    [ Transform.job_name foj_tf; Transform.job_name hs_tf ]
    (Db.jobs db);
  let d = H.driver db in
  let rng = Random.State.make [| 17 |] in
  let u_commits = ref 0 and rounds = ref 0 in
  let between () =
    incr rounds;
    (* One user transaction per scheduler round, cycling over the
       tables, gated on each transformation's own routing — exactly
       what a client library would do. *)
    match !rounds mod 3 with
    | 0 when Transform.routing foj_tf = `Sources -> H.random_r_op d
    | 1 when Transform.routing foj_tf = `Sources -> H.random_s_op d
    | 2 when Transform.routing hs_tf = `Sources ->
      if random_u_op db rng ~budget:!rounds then incr u_commits
    | _ -> ()
  in
  (match Db.run_jobs ~between db with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  Alcotest.(check bool) "foj done" true (Transform.phase foj_tf = Transform.Done);
  Alcotest.(check bool) "hsplit done" true (Transform.phase hs_tf = Transform.Done);
  Alcotest.(check (list string)) "registry drained" [] (Db.jobs db);
  (* User transactions committed while both transformations ran. *)
  Alcotest.(check bool) "R/S traffic committed" true (d.H.ops_done > 0);
  Alcotest.(check bool) "U traffic committed" true (!u_commits > 0);
  (* Both reached their oracles despite the interleaving. *)
  H.check_relations_equal "T converged" (H.foj_oracle db) (Db.snapshot db "T");
  let u = Db.snapshot db "U" in
  let p = Pred.compile H.t_flat_schema u_pred in
  H.check_relations_equal "U_arch converged"
    (Nbsc_relalg.Relalg.select u p)
    (Db.snapshot db "U_arch");
  H.check_relations_equal "U_live converged"
    (Nbsc_relalg.Relalg.select u (fun row -> not (p row)))
    (Db.snapshot db "U_live")

(* {1 Two changes over one source}

   Each change's freeze is its own. When the first of two blocking-
   commit changes over a shared table finishes, the second's freeze
   must still refuse newcomers; otherwise a newcomer slips onto the
   source and the second change waits for it to end. *)

let step_until tf phase ~limit =
  let rec go n =
    if Transform.phase tf = phase then true
    else if n = 0 then false
    else begin
      ignore (Transform.step tf);
      go (n - 1)
    end
  in
  go limit

let test_shared_source_keeps_freezes () =
  let db = H.fresh_split_db ~t_rows:(H.seed_t_rows ~n:40) in
  let mgr = Db.manager db in
  let options = { cfg with Options.sync = Options.Blocking_commit } in
  let hsplit suffix =
    H.start db ~options
      (Spec.Hsplit
         { Spec.h_source = "T";
           h_true_table = "T_hi" ^ suffix;
           h_false_table = "T_lo" ^ suffix;
           h_pred = Pred.Cmp ("c", Pred.Gt, Value.Int 6) })
  in
  let first = hsplit "1" in
  let second = hsplit "2" in
  let update txn k =
    Manager.update mgr ~txn ~table:"T" ~key:(Row.make [ Value.Int k ])
      [ (1, Value.Text "w") ]
  in
  (* An open transaction on the source keeps both changes quiescing. *)
  let holder = Manager.begin_txn mgr in
  H.ok "holder locks T.1" (update holder 1);
  Alcotest.(check bool) "first quiescing" true
    (step_until first Transform.Quiescing ~limit:1000);
  Alcotest.(check bool) "second quiescing" true
    (step_until second Transform.Quiescing ~limit:1000);
  H.ok "holder commits" (Manager.commit mgr holder);
  Alcotest.(check bool) "first done" true
    (step_until first Transform.Done ~limit:1000);
  let newcomer = Manager.begin_txn mgr in
  (match update newcomer 2 with
   | Error (`Frozen "T") -> ()
   | Ok () -> Alcotest.fail "the first change's finish lifted the freeze"
   | Error e -> Alcotest.failf "newcomer: %a" Manager.pp_error e);
  Alcotest.(check bool) "second done while the newcomer is open" true
    (step_until second Transform.Done ~limit:50);
  H.ok "newcomer aborts" (Manager.abort mgr newcomer)

(* {1 A custom operator through the pluggable interface}

   A table copy: not one of the four built-in operators, implemented
   directly as a Transformation.t (Population.scan_one for the scan,
   LSN-disciplined redo rules) and run by the unmodified executor. *)

let copy_operator db ~source ~target =
  let catalog = Db.catalog db in
  let src_tbl = Catalog.find catalog source in
  ignore (Catalog.create_table catalog ~name:target (Table.schema src_tbl));
  let tgt_tbl = Catalog.find catalog target in
  let applied = ref 0 and ignored = ref 0 in
  let ingest (r : Record.t) =
    match Table.insert tgt_tbl ~lsn:r.Record.lsn r.Record.row with
    | Ok () -> ()
    | Error `Duplicate_key -> ()
  in
  let apply ~lsn (op : Log_record.op) =
    if not (String.equal (Log_record.op_table op) source) then []
    else
      match op with
      | Log_record.Insert { row; _ } ->
        let key = Table.key_of_row tgt_tbl row in
        (match Table.find tgt_tbl key with
         | Some _ -> incr ignored
         | None ->
           incr applied;
           (match Table.insert tgt_tbl ~lsn row with
            | Ok () -> ()
            | Error `Duplicate_key -> assert false));
        [ (target, key) ]
      | Log_record.Delete { key; _ } ->
        (match Table.find tgt_tbl key with
         | Some r when Lsn.(r.Record.lsn >= lsn) ->
           incr ignored;
           [ (target, key) ]
         | Some _ ->
           incr applied;
           ignore (Table.delete tgt_tbl ~lsn key);
           [ (target, key) ]
         | None ->
           incr ignored;
           [])
      | Log_record.Update { key; changes; _ } ->
        (match Table.find tgt_tbl key with
         | Some r when Lsn.(r.Record.lsn >= lsn) ->
           incr ignored;
           [ (target, key) ]
         | Some _ ->
           incr applied;
           ignore (Table.update tgt_tbl ~lsn ~key changes);
           [ (target, key) ]
         | None ->
           incr ignored;
           [])
  in
  { Transformation.name = "copy";
    spec_payload = None;
    population = Population.scan_one src_tbl ~ingest;
    rules = Propagator.rules ~sources:[ source ] ~targets:[ target ] ~apply ();
    lock_map =
      { source_to_targets = (fun ~table:_ ~key -> [ (target, key) ]);
        target_to_sources = (fun ~table:_ ~key -> [ (source, key) ]) };
    counters = (fun () -> [ ("applied", !applied); ("ignored", !ignored) ]) }

let test_custom_operator () =
  let db = H.fresh_split_db ~t_rows:(H.seed_t_rows ~n:50) in
  let tf =
    Transform.create db ~options:cfg (copy_operator db ~source:"T" ~target:"T2")
  in
  Alcotest.(check string) "operator name" "copy" (Transform.name tf);
  let d = H.driver db in
  (match
     Transform.run tf ~between:(fun () ->
         if Transform.routing tf = `Sources then H.random_t_op d)
   with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  Alcotest.(check bool) "traffic committed" true (d.H.ops_done > 0);
  H.check_relations_equal "copy converged" (Db.snapshot db "T")
    (Db.snapshot db "T2");
  Alcotest.(check bool) "rules fired" true
    (List.assoc "applied" (Transform.counters tf) > 0)

(* {1 The job registry itself} *)

let test_registry_round_robin () =
  let db = Db.create () in
  let order = ref [] in
  let job name quanta =
    let left = ref quanta in
    Db.register_job db ~name
      ~step:(fun () ->
        order := name :: !order;
        decr left;
        if !left <= 0 then `Done else `Running)
      ()
  in
  job "a" 3;
  job "b" 1;
  (match Db.run_jobs db with Ok () -> () | Error m -> Alcotest.fail m);
  (* Fair interleaving: b finishes after one quantum, a keeps going. *)
  Alcotest.(check (list string))
    "round-robin order" [ "a"; "b"; "a"; "a" ]
    (List.rev !order);
  Alcotest.(check (list string)) "empty after completion" [] (Db.jobs db)

let test_registry_failure_and_bounds () =
  let db = Db.create () in
  Db.register_job db ~name:"stuck" ~step:(fun () -> `Running) ();
  (match Db.run_jobs ~max_rounds:3 db with
   | Ok () -> Alcotest.fail "must not converge"
   | Error _ -> ());
  Db.unregister_job db ~name:"stuck";
  Db.register_job db ~name:"bad" ~step:(fun () -> `Failed "boom") ();
  (match Db.run_jobs db with
   | Ok () -> Alcotest.fail "must fail"
   | Error m ->
     Alcotest.(check bool) "failure names the job" true
       (String.length m >= 3 && String.sub m 0 3 = "bad"));
  Alcotest.(check (list string)) "failed job removed" [] (Db.jobs db)

(* {1 Concurrent transformations at the SQL layer} *)

let test_sql_concurrent_transforms () =
  let s = Nbsc_sql.Exec.create (Db.create ()) in
  let run input =
    match Nbsc_sql.Exec.exec_string s input with
    | Ok outs -> outs
    | Error m -> Alcotest.failf "exec %S: %s" input m
  in
  ignore
    (run
       "CREATE TABLE t (a INT NOT NULL, b TEXT, c INT, PRIMARY KEY (a)); \
        INSERT INTO t VALUES (1, 'x', 10), (2, 'y', 40); \
        CREATE TABLE u (k INT NOT NULL, v TEXT, age INT, PRIMARY KEY (k)); \
        INSERT INTO u VALUES (1, 'p', 5), (2, 'q', 90);");
  (* Disjoint footprints: both may run at once. *)
  ignore (run "TRANSFORM ARCHIVE t INTO t_old AND t_new WHERE c > 30");
  ignore (run "TRANSFORM ARCHIVE u INTO u_old AND u_new WHERE age > 30");
  Alcotest.(check int) "two in flight" 2
    (List.length (Nbsc_sql.Exec.transformations s));
  (* An overlapping third is rejected. *)
  (match Nbsc_sql.Exec.exec_string s "TRANSFORM MERGE t, u INTO all_rows" with
   | Ok _ -> Alcotest.fail "overlap must be rejected"
   | Error _ -> ());
  ignore (run "TRANSFORM STEP 2");
  ignore (run "TRANSFORM RUN");
  let count table =
    match run (Printf.sprintf "SELECT * FROM %s" table) with
    | [ Nbsc_sql.Exec.Rows { rows; _ } ] -> List.length rows
    | _ -> Alcotest.fail "one row result"
  in
  Alcotest.(check int) "t archived" 1 (count "t_old");
  Alcotest.(check int) "t live" 1 (count "t_new");
  Alcotest.(check int) "u archived" 1 (count "u_old");
  Alcotest.(check int) "u live" 1 (count "u_new");
  List.iter
    (fun h ->
       Alcotest.(check bool) "done" true
         ((Db.Schema_change.status h).Db.Schema_change.sc_phase
          = Transform.Done))
    (Nbsc_sql.Exec.transformations s)

let () =
  Alcotest.run "executor"
    [ ( "executor",
        [ Alcotest.test_case "two transformations, one registry" `Quick
            test_concurrent_foj_and_hsplit;
          Alcotest.test_case "shared source keeps each change's freeze"
            `Quick test_shared_source_keeps_freezes;
          Alcotest.test_case "custom operator via Transformation.S" `Quick
            test_custom_operator ] );
      ( "registry",
        [ Alcotest.test_case "round-robin fairness" `Quick
            test_registry_round_robin;
          Alcotest.test_case "failure and bounds" `Quick
            test_registry_failure_and_bounds ] );
      ( "sql",
        [ Alcotest.test_case "concurrent TRANSFORMs" `Quick
            test_sql_concurrent_transforms ] ) ]
