(* Tests for deferred materialized views (the paper's closing
   suggestion): non-blocking creation, staleness, refresh-on-demand. *)

open Nbsc_value
open Nbsc_txn
open Nbsc_core
module H = Helpers

let view_spec = { H.foj_spec with Spec.t_table = "V" }

let foj_oracle db =
  Nbsc_relalg.Relalg.full_outer_join
    { Nbsc_relalg.Relalg.r_join = [ "c" ]; s_join = [ "c" ]; out_join = [ "c" ];
      r_cols = [ "a"; "b" ]; s_cols = [ "d" ]; out_key = [ "a" ] }
    (Db.snapshot db "R") (Db.snapshot db "S")

let test_create_and_refresh () =
  let r_rows, s_rows = H.seed_rows ~r:60 ~s:20 in
  let db = H.fresh_foj_db ~r_rows ~s_rows in
  let mv = Matview.create db ~config:{ Matview.scan_batch = 9; propagate_batch = 9 } view_spec in
  Alcotest.(check bool) "not populated yet" false (Matview.populated mv);
  Matview.refresh mv;
  Alcotest.(check bool) "populated" true (Matview.populated mv);
  Alcotest.(check int) "fresh" 0 (Matview.lag mv);
  H.check_relations_equal "V = FOJ(R,S)" (foj_oracle db) (Db.snapshot db "V")

let test_staleness_and_catchup () =
  let r_rows, s_rows = H.seed_rows ~r:30 ~s:10 in
  let db = H.fresh_foj_db ~r_rows ~s_rows in
  let mv = Matview.create db view_spec in
  Matview.refresh mv;
  let stale_oracle = foj_oracle db in
  (* Source writes make the view stale; it does NOT see them yet. *)
  let mgr = Db.manager db in
  let txn = Manager.begin_txn mgr in
  H.ok "u" (Manager.update mgr ~txn ~table:"R" ~key:(Row.make [ Value.Int 1 ])
            [ (1, Value.Text "changed") ]);
  H.ok "i" (Manager.insert mgr ~txn ~table:"R" (H.ri 777 "new" 3));
  H.ok "c" (Manager.commit mgr txn);
  Alcotest.(check bool) "stale" true (Matview.lag mv > 0);
  H.check_relations_equal "deferred: old image" stale_oracle (Db.snapshot db "V");
  (* Refresh catches up. *)
  Matview.refresh mv;
  Alcotest.(check int) "caught up" 0 (Matview.lag mv);
  H.check_relations_equal "fresh image" (foj_oracle db) (Db.snapshot db "V")

let test_incremental_steps_under_load () =
  let r_rows, s_rows = H.seed_rows ~r:50 ~s:15 in
  let db = H.fresh_foj_db ~r_rows ~s_rows in
  let d = H.driver ~seed:21 db in
  let mv = Matview.create db ~config:{ Matview.scan_batch = 5; propagate_batch = 5 } view_spec in
  (* Interleave maintenance steps with user writes. *)
  for _ = 1 to 120 do
    H.random_r_op d;
    ignore (Matview.step mv)
  done;
  Matview.refresh mv;
  H.check_relations_equal "converged under load" (foj_oracle db)
    (Db.snapshot db "V")

let test_no_lock_transfer () =
  (* View maintenance must not plant transferred locks: a user write to
     the view table (unusual but legal) is never blocked by phantom
     Source locks. *)
  let r_rows, s_rows = H.seed_rows ~r:20 ~s:8 in
  let db = H.fresh_foj_db ~r_rows ~s_rows in
  let mv = Matview.create db view_spec in
  let mgr = Db.manager db in
  let txn = Manager.begin_txn mgr in
  H.ok "source write" (Manager.update mgr ~txn ~table:"R"
                       ~key:(Row.make [ Value.Int 2 ]) [ (1, Value.Text "x") ]);
  Matview.refresh mv;  (* propagates the (uncommitted) write *)
  Alcotest.(check int) "no locks on V" 0
    (List.length
       (Nbsc_lock.Lock_table.locked_resources (Manager.locks mgr) ~table:"V"));
  H.ok "commit" (Manager.commit mgr txn)

let test_drop () =
  let r_rows, s_rows = H.seed_rows ~r:10 ~s:5 in
  let db = H.fresh_foj_db ~r_rows ~s_rows in
  let mv = Matview.create db view_spec in
  Matview.refresh mv;
  Matview.drop mv;
  Alcotest.(check bool) "gone" false
    (Nbsc_storage.Catalog.mem (Db.catalog db) "V");
  Alcotest.(check bool) "step is a no-op" false (Matview.step mv)

let test_m2m_view () =
  let r_rows, s_rows = H.seed_rows ~r:30 ~s:10 in
  let db = H.fresh_foj_db ~r_rows ~s_rows in
  let mv =
    Matview.create db { view_spec with Spec.many_to_many = true }
  in
  let d = H.driver ~seed:4 db in
  for _ = 1 to 60 do
    H.random_r_op d;
    ignore (Matview.step mv)
  done;
  Matview.refresh mv;
  H.check_relations_equal "m2m view converges" (foj_oracle db)
    (Db.snapshot db "V")

let () =
  Alcotest.run "matview"
    [ ( "views",
        [ Alcotest.test_case "create and refresh" `Quick test_create_and_refresh;
          Alcotest.test_case "staleness and catch-up" `Quick
            test_staleness_and_catchup;
          Alcotest.test_case "incremental under load" `Quick
            test_incremental_steps_under_load;
          Alcotest.test_case "no lock transfer" `Quick test_no_lock_transfer;
          Alcotest.test_case "drop" `Quick test_drop;
          Alcotest.test_case "many-to-many view" `Quick test_m2m_view ] ) ]
