(* Tests for the comparators: blocking INSERT INTO ... SELECT,
   trigger-based (Ronstrom-style) maintenance and the shadow table. *)

open Nbsc_value
open Nbsc_lock
open Nbsc_storage
open Nbsc_txn
open Nbsc_core
open Nbsc_baseline
module H = Helpers

(* {1 The operators every competitor runs}

   Each competitor takes the operator {!Transformation.of_spec}
   prepares, so one correctness case per competitor runs on every
   operator: a fresh database holding its sources, its spec, one round
   of single-op traffic on its sources, and each target's expected
   relation, read from the current sources. *)

type op = {
  fresh : unit -> Db.t;
  spec : Spec.any;
  traffic : H.driver -> unit;
  oracle : Db.t -> (string * Nbsc_relalg.Relalg.t) list;
}

let foj_op =
  { fresh =
      (fun () ->
         let r_rows, s_rows = H.seed_rows ~r:60 ~s:20 in
         H.fresh_foj_db ~r_rows ~s_rows);
    spec = Spec.Foj H.foj_spec;
    traffic =
      (fun d ->
         H.random_r_op d;
         H.random_s_op d);
    oracle = (fun db -> [ ("T", H.foj_oracle db) ]) }

let m2m_op =
  { fresh = H.fresh_m2m_db;
    spec = Spec.Foj H.m2m_spec;
    traffic = H.random_m2m_op;
    oracle = (fun db -> [ ("T", H.m2m_oracle db) ]) }

let split_op =
  { fresh = (fun () -> H.fresh_split_db ~t_rows:(H.seed_t_rows ~n:50));
    spec = Spec.Split (H.split_spec ~assume_consistent:true);
    traffic = H.random_t_op ~consistent:true;
    oracle =
      (fun db ->
         let r, s = H.split_oracle db in
         [ ("R", r); ("S", s) ]) }

let hpred = Pred.Cmp ("c", Pred.Gt, Value.Int 6)

let hsplit_op =
  { split_op with
    spec =
      Spec.Hsplit
        { Spec.h_source = "T";
          h_true_table = "archive";
          h_false_table = "live";
          h_pred = hpred };
    oracle =
      (fun db ->
         let archive, live = H.hsplit_oracle db hpred in
         [ ("archive", archive); ("live", live) ]) }

let merge_op =
  { fresh = H.fresh_merge_db;
    spec = Spec.Merge H.merge_spec;
    traffic = H.random_merge_op;
    oracle = (fun db -> [ ("AB", H.merge_oracle db) ]) }

let check_targets what expected db =
  List.iter
    (fun (table, want) ->
       H.check_relations_equal
         (Printf.sprintf "%s: %s = oracle" what table)
         want (Db.snapshot db table))
    expected

(* {1 Blocking INSERT INTO ... SELECT} *)

let test_dump_correct op () =
  let db = op.fresh () in
  let oracle = op.oracle db in
  let tf = Transformation.of_spec db op.spec in
  let dump = Insert_into_select.create db tf in
  let steps = ref 0 in
  while Insert_into_select.step dump ~limit:7 = `Running do incr steps done;
  Alcotest.(check bool) "multiple steps" true (!steps > 3);
  List.iter
    (fun src ->
       Alcotest.(check bool) (src ^ " dropped") false
         (Catalog.mem (Db.catalog db) src))
    tf.rules.sources;
  check_targets "dumped" oracle db

let test_dump_blocks_writers () =
  let r_rows, s_rows = H.seed_rows ~r:30 ~s:10 in
  let db = H.fresh_foj_db ~r_rows ~s_rows in
  let mgr = Db.manager db in
  let dump = Insert_into_select.create db (Transformation.foj db H.foj_spec) in
  ignore (Insert_into_select.step dump ~limit:5);
  (* Mid-dump, the sources are latched: every write stalls. *)
  let txn = Manager.begin_txn mgr in
  (match
     Manager.update mgr ~txn ~table:"R"
       ~key:(Row.make [ Value.Int 1 ])
       [ (1, Value.Text "nope") ]
   with
   | Error (`Latched "R") -> ()
   | _ -> Alcotest.fail "expected Latched");
  ignore (Manager.abort mgr txn);
  while Insert_into_select.step dump ~limit:50 = `Running do () done;
  Alcotest.(check bool) "finished" true (Insert_into_select.finished dump)

(* The first step latches both sources or neither: with S latched by
   another holder it fails, and must not leave R latched behind (user
   operations on R would pause forever). A later step retries. *)
let test_dump_latch_all_or_none () =
  let r_rows, s_rows = H.seed_rows ~r:30 ~s:10 in
  let db = H.fresh_foj_db ~r_rows ~s_rows in
  let mgr = Db.manager db in
  let latches = Manager.latches mgr in
  let oracle = H.foj_oracle db in
  let dump = Insert_into_select.create db (Transformation.foj db H.foj_spec) in
  Alcotest.(check bool) "S latched elsewhere" true
    (Latch.try_latch latches ~holder:7 ~table:"S");
  (match Insert_into_select.step dump ~limit:5 with
   | exception Failure _ -> ()
   | _ -> Alcotest.fail "step should fail while S is latched elsewhere");
  Alcotest.(check bool) "R not latched" false
    (Latch.is_latched latches ~table:"R");
  let txn = Manager.begin_txn mgr in
  (match Manager.read mgr ~txn ~table:"R" ~key:(Row.make [ Value.Int 1 ]) with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "read R: %a" Manager.pp_error e);
  H.ok "commit" (Manager.commit mgr txn);
  Latch.unlatch latches ~holder:7 ~table:"S";
  while Insert_into_select.step dump ~limit:7 = `Running do () done;
  H.check_relations_equal "T = oracle" oracle (Db.snapshot db "T")

(* {1 Trigger-based maintenance} *)

let test_trigger_keeps_t_fresh () =
  let r_rows, s_rows = H.seed_rows ~r:30 ~s:10 in
  let db = H.fresh_foj_db ~r_rows ~s_rows in
  let mgr = Db.manager db in
  let tr = Trigger_method.install db (Transformation.foj db H.foj_spec) in
  (* Initial population is already there. *)
  H.check_relations_equal "initial" (H.foj_oracle db) (Db.snapshot db "T");
  (* Every user op is reflected synchronously. *)
  let txn = Manager.begin_txn mgr in
  H.ok "u" (Manager.update mgr ~txn ~table:"R"
            ~key:(Row.make [ Value.Int 3 ]) [ (1, Value.Text "fresh") ]);
  H.ok "i" (Manager.insert mgr ~txn ~table:"R" (H.ri 999 "brand-new" 4));
  H.ok "d" (Manager.delete mgr ~txn ~table:"S" ~key:(Row.make [ Value.Int 2 ]));
  H.ok "c" (Manager.commit mgr txn);
  H.check_relations_equal "after ops" (H.foj_oracle db) (Db.snapshot db "T");
  Alcotest.(check bool) "trigger work counted" true
    (Trigger_method.triggered_ops tr > 0);
  (* Uninstall stops maintenance. *)
  Trigger_method.uninstall tr;
  let txn = Manager.begin_txn mgr in
  H.ok "u2" (Manager.update mgr ~txn ~table:"R"
             ~key:(Row.make [ Value.Int 5 ]) [ (1, Value.Text "missed") ]);
  H.ok "c2" (Manager.commit mgr txn);
  Alcotest.(check bool) "now stale" false
    (Nbsc_relalg.Relalg.equal_as_sets (H.foj_oracle db) (Db.snapshot db "T"))

(* While installed, the targets follow every committed write: they
   equal the oracle after each round of traffic. *)
let test_trigger_follows op () =
  let db = op.fresh () in
  let tr = Trigger_method.install db (Transformation.of_spec db op.spec) in
  check_targets "populated" (op.oracle db) db;
  let d = H.driver db in
  for round = 1 to 30 do
    op.traffic d;
    check_targets (Printf.sprintf "after round %d" round) (op.oracle db) db
  done;
  Alcotest.(check bool) "trigger work counted" true
    (Trigger_method.triggered_ops tr > 0);
  Trigger_method.uninstall tr

let test_trigger_work_attribution () =
  let r_rows, s_rows = H.seed_rows ~r:10 ~s:5 in
  let db = H.fresh_foj_db ~r_rows ~s_rows in
  let mgr = Db.manager db in
  let tr = Trigger_method.install db (Transformation.foj db H.foj_spec) in
  let txn = Manager.begin_txn mgr in
  H.ok "u" (Manager.update mgr ~txn ~table:"R"
            ~key:(Row.make [ Value.Int 1 ]) [ (1, Value.Text "w") ]);
  Alcotest.(check bool) "last op did work" true (Trigger_method.last_op_work tr > 0);
  H.ok "c" (Manager.commit mgr txn);
  Trigger_method.uninstall tr

(* Two concurrent installations must not clobber each other: post-op
   hooks live in an id-keyed registry, and uninstall removes only the
   caller's own id. Pre-registry, the second install silently replaced
   the first and either uninstall removed whichever hook was left. *)
let test_trigger_two_installs () =
  let r_rows, s_rows = H.seed_rows ~r:20 ~s:8 in
  let db = H.fresh_foj_db ~r_rows ~s_rows in
  let mgr = Db.manager db in
  let oracle_t2 () =
    (* Same join, different target table — the oracle is target-name
       agnostic. *)
    H.foj_oracle db
  in
  let tr1 = Trigger_method.install db (Transformation.foj db H.foj_spec) in
  let tr2 =
    Trigger_method.install db
      (Transformation.foj db { H.foj_spec with Spec.t_table = "T2" })
  in
  let write_r key text =
    let txn = Manager.begin_txn mgr in
    H.ok "u" (Manager.update mgr ~txn ~table:"R"
              ~key:(Row.make [ Value.Int key ]) [ (1, Value.Text text) ]);
    H.ok "c" (Manager.commit mgr txn)
  in
  (* Both hooks fire for the same write. *)
  write_r 3 "both";
  H.check_relations_equal "T fresh under two installs" (H.foj_oracle db)
    (Db.snapshot db "T");
  H.check_relations_equal "T2 fresh under two installs" (oracle_t2 ())
    (Db.snapshot db "T2");
  (* Uninstalling the second must leave the first maintaining T. *)
  Trigger_method.uninstall tr2;
  write_r 5 "only-tr1";
  H.check_relations_equal "T still fresh after tr2 uninstall"
    (H.foj_oracle db) (Db.snapshot db "T");
  Alcotest.(check bool) "T2 now stale" false
    (Nbsc_relalg.Relalg.equal_as_sets (oracle_t2 ()) (Db.snapshot db "T2"));
  Trigger_method.uninstall tr1;
  write_r 7 "nobody";
  Alcotest.(check bool) "T stale after tr1 uninstall" false
    (Nbsc_relalg.Relalg.equal_as_sets (H.foj_oracle db) (Db.snapshot db "T"))

(* Baseline targets are created through the engine facade, so the
   manager's retention hint covers them: with no snapshot active, the
   system writes that fill and maintain a target keep no versions.
   Split population bumps S's counters in place; the FOJ trigger
   rewrites T rows under a user's update of R. *)
let test_targets_keep_no_versions () =
  let db = H.fresh_split_db ~t_rows:(H.seed_t_rows ~n:40) in
  let dump =
    Insert_into_select.create db
      (Transformation.split db (H.split_spec ~assume_consistent:true))
  in
  while Insert_into_select.step dump ~limit:16 = `Running do () done;
  Alcotest.(check int) "S after a split dump" 0
    (Table.versions_count (Db.table db "S"));
  let r_rows, s_rows = H.seed_rows ~r:20 ~s:8 in
  let db = H.fresh_foj_db ~r_rows ~s_rows in
  let mgr = Db.manager db in
  let tr = Trigger_method.install db (Transformation.foj db H.foj_spec) in
  let txn = Manager.begin_txn mgr in
  H.ok "u" (Manager.update mgr ~txn ~table:"R"
            ~key:(Row.make [ Value.Int 3 ]) [ (1, Value.Text "fresh") ]);
  H.ok "c" (Manager.commit mgr txn);
  H.check_relations_equal "T fresh" (H.foj_oracle db) (Db.snapshot db "T");
  Alcotest.(check int) "T after a triggered update" 0
    (Table.versions_count (Db.table db "T"));
  Trigger_method.uninstall tr

(* {1 Shadow-table method} *)

let converge_shadow ?(between = fun () -> ()) sh =
  let steps = ref 0 in
  while not (Shadow_table.step sh ~limit:8) do
    incr steps;
    if !steps > 100_000 then Alcotest.fail "shadow did not converge";
    between ()
  done;
  !steps

let test_shadow_converges op () =
  let db = op.fresh () in
  let tf = Transformation.of_spec db op.spec in
  let sh = Shadow_table.create db ~drop_sources:false ~chunk:8 tf in
  let d = H.driver db in
  (* Writes before the backfill starts are pure audit captures. *)
  for _ = 1 to 5 do op.traffic d done;
  let tick = ref 0 in
  let steps =
    converge_shadow sh ~between:(fun () ->
        incr tick;
        if !tick mod 2 = 0 then op.traffic d)
  in
  Alcotest.(check bool) "many quanta" true (steps > 10);
  check_targets "converged" (op.oracle db) db;
  Alcotest.(check bool) "audit captured writes" true
    (Shadow_table.captured sh > 0);
  Alcotest.(check bool) "several latched windows" true
    (Shadow_table.latched_windows sh > 2);
  Alcotest.(check int) "audit drained" 0 (Shadow_table.audit_pending sh);
  Alcotest.(check bool) "sources kept" true
    (List.for_all (Catalog.mem (Db.catalog db)) tf.rules.sources)

(* An aborted transaction's writes are captured {e and} compensated:
   rollback fires the post-op hooks with the CLR inverses, so the
   audit replay nets the aborted insert out. Without that, the shadow
   target keeps a phantom row no oracle ever contains. *)
let test_shadow_aborted_writes () =
  let r_rows, s_rows = H.seed_rows ~r:25 ~s:10 in
  let db = H.fresh_foj_db ~r_rows ~s_rows in
  let mgr = Db.manager db in
  let sh =
    Shadow_table.create db ~drop_sources:false ~chunk:8
      (Transformation.foj db H.foj_spec)
  in
  let txn = Manager.begin_txn mgr in
  H.ok "i" (Manager.insert mgr ~txn ~table:"R" (H.ri 777 "phantom" 3));
  ignore (Manager.abort mgr txn);
  ignore (converge_shadow sh);
  H.check_relations_equal "no phantom from aborted txn" (H.foj_oracle db)
    (Db.snapshot db "T")

let test_shadow_blocks_during_chunk () =
  let r_rows, s_rows = H.seed_rows ~r:30 ~s:10 in
  let db = H.fresh_foj_db ~r_rows ~s_rows in
  let mgr = Db.manager db in
  let sh =
    Shadow_table.create db ~drop_sources:false ~chunk:8
      (Transformation.foj db H.foj_spec)
  in
  (* Step one: the latch for the first chunk is taken. *)
  ignore (Shadow_table.step sh ~limit:8);
  let txn = Manager.begin_txn mgr in
  (match
     Manager.update mgr ~txn ~table:"R"
       ~key:(Row.make [ Value.Int 1 ])
       [ (1, Value.Text "nope") ]
   with
   | Error (`Latched "R") -> ()
   | _ -> Alcotest.fail "expected Latched during shadow chunk");
  ignore (Manager.abort mgr txn);
  (* Step two scans the chunk and releases: writes flow again. *)
  ignore (Shadow_table.step sh ~limit:8);
  let txn = Manager.begin_txn mgr in
  H.ok "u" (Manager.update mgr ~txn ~table:"R"
            ~key:(Row.make [ Value.Int 1 ]) [ (1, Value.Text "yes") ]);
  H.ok "c" (Manager.commit mgr txn);
  ignore (converge_shadow sh);
  H.check_relations_equal "converged" (H.foj_oracle db) (Db.snapshot db "T")

let () =
  Alcotest.run "baseline"
    [ ( "insert-into-select",
        [ Alcotest.test_case "FOJ correct" `Quick (test_dump_correct foj_op);
          Alcotest.test_case "split correct" `Quick
            (test_dump_correct split_op);
          Alcotest.test_case "blocks writers" `Quick test_dump_blocks_writers;
          Alcotest.test_case "latches all sources or none" `Quick
            test_dump_latch_all_or_none;
          Alcotest.test_case "m2m FOJ correct" `Quick
            (test_dump_correct m2m_op);
          Alcotest.test_case "hsplit correct" `Quick
            (test_dump_correct hsplit_op);
          Alcotest.test_case "merge correct" `Quick
            (test_dump_correct merge_op) ] );
      ( "triggers",
        [ Alcotest.test_case "keeps T fresh" `Quick test_trigger_keeps_t_fresh;
          Alcotest.test_case "split variant" `Quick
            (test_trigger_follows split_op);
          Alcotest.test_case "work attribution" `Quick
            test_trigger_work_attribution;
          Alcotest.test_case "two installs coexist" `Quick
            test_trigger_two_installs;
          Alcotest.test_case "targets keep no versions" `Quick
            test_targets_keep_no_versions;
          Alcotest.test_case "FOJ variant" `Quick
            (test_trigger_follows foj_op);
          Alcotest.test_case "m2m FOJ variant" `Quick
            (test_trigger_follows m2m_op);
          Alcotest.test_case "hsplit variant" `Quick
            (test_trigger_follows hsplit_op);
          Alcotest.test_case "merge variant" `Quick
            (test_trigger_follows merge_op) ] );
      ( "shadow-table",
        [ Alcotest.test_case "FOJ converges under traffic" `Quick
            (test_shadow_converges foj_op);
          Alcotest.test_case "aborted writes compensated" `Quick
            test_shadow_aborted_writes;
          Alcotest.test_case "split converges under traffic" `Quick
            (test_shadow_converges split_op);
          Alcotest.test_case "chunk latches block writers" `Quick
            test_shadow_blocks_during_chunk;
          Alcotest.test_case "m2m FOJ converges under traffic" `Quick
            (test_shadow_converges m2m_op);
          Alcotest.test_case "hsplit converges under traffic" `Quick
            (test_shadow_converges hsplit_op);
          Alcotest.test_case "merge converges under traffic" `Quick
            (test_shadow_converges merge_op) ] ) ]
