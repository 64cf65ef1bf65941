(* The WAL-pin discipline of the log propagator: every propagator pins
   its cursor in the manager's retention registry, truncation never
   cuts below the oldest open pin, and closing a propagator (more than
   once, along any teardown path) releases exactly its own pin. *)

open Nbsc_wal
open Nbsc_txn
open Nbsc_storage
open Nbsc_core
module H = Helpers

let lsn = Alcotest.testable Lsn.pp Lsn.equal

let cfg =
  { Options.default with
    Options.scan_batch = 7;
    propagate_batch = 5;
    sync = Options.Nonblocking_abort;
    drop_sources = false }

let trivial_rules =
  Propagator.rules ~sources:[ "T" ] ~targets:[]
    ~apply:(fun ~lsn:_ _ -> [])
    ()

let drain_low_water mgr log =
  ignore (Manager.truncate_wal mgr);
  Lsn.equal (Manager.wal_low_water mgr) (Lsn.next (Log.head log))

let split_db () = H.fresh_split_db ~t_rows:(H.seed_t_rows ~n:60)

let start_split db =
  H.start db ~options:cfg (Spec.Split (H.split_spec ~assume_consistent:true))

(* {1 Teardown} *)

(* Abort after the executor already closed its population and
   propagator (the finalize path) double-closes both; no pin may be
   dropped twice, and nothing may keep the WAL alive. *)
let test_abort_after_done_and_double_abort () =
  let db = split_db () in
  let tf = start_split db in
  let d = H.driver ~seed:3 db in
  let budget = ref 40 in
  (match
     Transform.run tf ~between:(fun () ->
         if !budget > 0 then begin
           decr budget;
           H.random_t_op ~consistent:true d
         end)
   with
   | Ok () -> ()
   | Error m -> Alcotest.failf "transformation failed: %s" m);
  Alcotest.(check bool) "done" true (Transform.phase tf = Transform.Done);
  Transform.abort tf;
  Transform.abort tf;
  (* targets still intact: abort after Done is a no-op *)
  Alcotest.(check bool) "targets survive" true
    (Catalog.mem (Db.catalog db) "R" && Catalog.mem (Db.catalog db) "S");
  Alcotest.(check bool) "no leaked pins" true
    (drain_low_water (Db.manager db) (Db.log db));
  (* and aborting mid-flight twice releases exactly once too *)
  let db2 = split_db () in
  let tf2 = start_split db2 in
  for _ = 1 to 3 do
    ignore (Transform.step tf2)
  done;
  Transform.abort tf2;
  Transform.abort tf2;
  Alcotest.(check bool) "no leaked pins after mid-flight abort" true
    (drain_low_water (Db.manager db2) (Db.log db2))

(* {1 The retention floor} *)

(* Two propagators pinned at different positions: the cut stops at the
   older one, follows it as it reads ahead, and reaches the head once
   both are closed. The younger one keeps reading across every cut. *)
let test_oldest_pin_bounds_truncation () =
  let db = H.fresh_split_db ~t_rows:(H.seed_t_rows ~n:8) in
  let mgr = Db.manager db in
  let log = Db.log db in
  let d = H.driver ~seed:5 db in
  let traffic n =
    for _ = 1 to n do
      H.random_t_op ~consistent:true d
    done
  in
  traffic 5;
  let old_from = Log.head log in
  let older = Propagator.create mgr trivial_rules ~from:old_from in
  traffic 5;
  let young_from = Log.head log in
  let younger = Propagator.create mgr trivial_rules ~from:young_from in
  traffic 5;
  Alcotest.check lsn "cut at the older pin" old_from (Manager.truncate_wal mgr);
  ignore (Propagator.run_to_head older);
  Alcotest.check lsn "cut follows the older cursor past the younger pin"
    young_from (Manager.truncate_wal mgr);
  let behind = Propagator.lag younger in
  Alcotest.(check int) "younger reads its whole pinned suffix" behind
    (Propagator.run_to_head younger);
  traffic 5;
  Propagator.close older;
  Propagator.close older;
  Alcotest.check lsn "the open pin still holds" (Propagator.position younger)
    (Manager.truncate_wal mgr);
  Propagator.close younger;
  Alcotest.(check bool) "log drains once every pin is closed" true
    (drain_low_water mgr log)

(* Random pin / unpin / truncate / traffic schedules: truncation never
   reclaims a pinned suffix, double-closes are absorbed, and once every
   propagator is closed the log drains completely. *)
let prop_pin_schedules =
  QCheck.Test.make ~name:"pin/unpin/truncate schedules" ~count:40
    QCheck.small_nat
    (fun seed ->
       let db = H.fresh_split_db ~t_rows:(H.seed_t_rows ~n:8) in
       let mgr = Db.manager db in
       let log = Db.log db in
       let rng = Random.State.make [| seed + 1 |] in
       let d = H.driver ~seed db in
       let open_props = ref [] in
       let closed = ref [] in
       for _ = 1 to 60 do
         match Random.State.int rng 5 with
         | 0 | 1 -> H.random_t_op ~consistent:true d
         | 2 ->
           if Log.length log > 0 then begin
             let from = Log.head log in
             let p = Propagator.create mgr trivial_rules ~from in
             open_props := (p, from) :: !open_props
           end
         | 3 ->
           (match !open_props with
            | [] -> ()
            | (p, _) :: rest ->
              Propagator.close p;
              closed := p :: !closed;
              open_props := rest);
           (match !closed with
            | p :: _ when Random.State.bool rng -> Propagator.close p
            | _ -> ())
         | _ -> ignore (Manager.truncate_wal mgr)
       done;
       (* every still-open cursor must be able to read from its pinned
          position: truncation never cut under it *)
       List.iter (fun (p, _) -> ignore (Propagator.step p ~limit:1)) !open_props;
       List.iter (fun (p, _) -> Propagator.close p) !open_props;
       drain_low_water mgr log)

let () =
  Alcotest.run "wal_pins"
    [ ( "wal pins",
        [ Alcotest.test_case "abort after done / double abort" `Quick
            test_abort_after_done_and_double_abort ] );
      ( "wal retention floor",
        [ Alcotest.test_case "oldest pin bounds truncation" `Quick
            test_oldest_pin_bounds_truncation ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_pin_schedules ] ) ]
