(* Tests for the consistency checker (paper Sec. 5.3): the CC-begin /
   CC-ok protocol through the log, including invalidation by concurrent
   updates between the two records. *)

open Nbsc_value
open Nbsc_wal
open Nbsc_storage
open Nbsc_core
module H = Helpers

(* A manual harness: catalog + split engine + checker + a hand-driven
   propagator loop so tests control exactly when log records are
   consumed. *)
type h = {
  catalog : Catalog.t;
  t_tbl : Table.t;
  sp : Split.t;
  cc : Consistency.t;
  log : Log.t;
  cursor : Log.Cursor.t;
  mutable lsn : int;
}

let setup ~t_rows =
  let catalog = Catalog.create () in
  let t_tbl = Catalog.create_table catalog ~name:"T" H.t_flat_schema in
  List.iteri
    (fun i row -> ignore (Table.insert t_tbl ~lsn:(Lsn.of_int (i + 1)) row))
    t_rows;
  let layout = Spec.split_layout catalog (H.split_spec ~assume_consistent:false) in
  ignore (Catalog.create_table catalog ~name:"R" (Spec.split_r_schema layout));
  ignore (Catalog.create_table catalog ~name:"S" (Spec.split_s_schema layout));
  Table.add_index t_tbl ~name:Spec.ix_t_split ~columns:[ "c" ];
  let sp = Split.create catalog layout in
  let pop = Population.scan_one t_tbl ~ingest:(Split.ingest_initial sp) in
  while not (Population.step pop ~limit:max_int) do () done;
  let log = Log.create () in
  let cc = Consistency.create catalog sp ~log in
  { catalog;
    t_tbl;
    sp;
    cc;
    log;
    cursor = Log.Cursor.make log ~from:Lsn.first;
    lsn = 1000 }

(* Apply a T operation both to the source table and through the split
   rules' log path, like the real engine + propagator would. *)
let user_update h ~key ~changes ~before =
  h.lsn <- h.lsn + 1;
  let lsn = Lsn.of_int h.lsn in
  ignore (Table.update h.t_tbl ~lsn ~key changes);
  ignore
    (Log.append h.log ~txn:1 ~prev_lsn:Lsn.zero
       (Log_record.Op (Log_record.Update { table = "T"; key; changes; before })))

(* Drain the propagator: consume every pending log record, dispatching
   ops to the split rules and CC records to the checker. *)
let drain h =
  let continue = ref true in
  while !continue do
    match Log.Cursor.next h.cursor with
    | None -> continue := false
    | Some r ->
      (match r.Log_record.body with
       | Log_record.Op op ->
         Consistency.note_touched h.cc
           (Split.apply h.sp ~lsn:r.Log_record.lsn op)
       | Log_record.Cc_begin { key; _ } -> Consistency.on_cc_begin h.cc key
       | Log_record.Cc_ok { key; image; _ } ->
         Consistency.on_cc_ok h.cc ~lsn:r.Log_record.lsn key image
       | _ -> ())
  done

let skey c = Row.make [ Value.Int c ]

let flag_of h c =
  (Option.get (Table.find (Split.s_table h.sp) (skey c))).Record.flag

let inconsistent_rows =
  [ H.ti 1 "a" 10 "GOOD"; H.ti 2 "b" 10 "BAD"; H.ti 3 "c" 20 "Z" ]

let test_disagree_then_repair () =
  let h = setup ~t_rows:inconsistent_rows in
  Alcotest.(check int) "one unknown" 1 (Split.unknown_count h.sp);
  (* A check on inconsistent data refuses to confirm. *)
  Alcotest.(check bool) "work done" true (Consistency.step h.cc);
  drain h;
  Alcotest.(check bool) "still U" true (flag_of h 10 = Record.Unknown);
  Alcotest.(check int) "disagreed" 1 (Consistency.stats h.cc).Consistency.disagreed;
  (* Repair through a user transaction, then check again. *)
  user_update h ~key:(Row.make [ Value.Int 2 ])
    ~changes:[ (3, Value.Text "GOOD") ]
    ~before:[ (3, Value.Text "BAD") ];
  drain h;
  ignore (Consistency.step h.cc);  (* begin + read *)
  ignore (Consistency.step h.cc);  (* cc-ok *)
  drain h;
  Alcotest.(check bool) "C after repair" true (flag_of h 10 = Record.Consistent);
  Alcotest.(check int) "confirmed" 1 (Consistency.stats h.cc).Consistency.confirmed;
  Alcotest.(check int) "no unknowns" 0 (Split.unknown_count h.sp);
  (* The confirmed image is the agreed one. *)
  let s = Option.get (Table.find (Split.s_table h.sp) (skey 10)) in
  Alcotest.(check bool) "image installed" true
    (Value.equal (Row.get s.Record.row 1) (Value.Text "GOOD"))

let test_invalidation_between_begin_and_ok () =
  let h = setup ~t_rows:[ H.ti 1 "a" 10 "GOOD"; H.ti 2 "b" 10 "BAD" ] in
  (* Repair first so the group agrees... *)
  user_update h ~key:(Row.make [ Value.Int 2 ])
    ~changes:[ (3, Value.Text "GOOD") ]
    ~before:[ (3, Value.Text "BAD") ];
  drain h;
  (* ...begin a check (reads the agreed image)... *)
  ignore (Consistency.step h.cc);
  (* ...but a user transaction touches the group between CC-begin and
     CC-ok in the log. *)
  user_update h ~key:(Row.make [ Value.Int 1 ])
    ~changes:[ (3, Value.Text "NEWER") ]
    ~before:[ (3, Value.Text "GOOD") ];
  ignore (Consistency.step h.cc);  (* writes CC-ok *)
  drain h;
  Alcotest.(check int) "invalidated" 1
    (Consistency.stats h.cc).Consistency.invalidated;
  Alcotest.(check bool) "stays U" true (flag_of h 10 = Record.Unknown)

let test_nothing_to_do () =
  let h = setup ~t_rows:[ H.ti 1 "a" 10 "X" ] in
  Alcotest.(check int) "no unknowns" 0 (Split.unknown_count h.sp);
  Alcotest.(check bool) "idle" false (Consistency.step h.cc)

let test_cc_records_in_log () =
  let h = setup ~t_rows:inconsistent_rows in
  user_update h ~key:(Row.make [ Value.Int 2 ])
    ~changes:[ (3, Value.Text "GOOD") ]
    ~before:[ (3, Value.Text "BAD") ];
  ignore (Consistency.step h.cc);
  ignore (Consistency.step h.cc);
  let begins = ref 0 and oks = ref 0 in
  Log.iter h.log (fun r ->
      match r.Log_record.body with
      | Log_record.Cc_begin _ -> incr begins
      | Log_record.Cc_ok _ -> incr oks
      | _ -> ());
  Alcotest.(check int) "one begin" 1 !begins;
  Alcotest.(check int) "one ok" 1 !oks

(* {1 Tracked Unknown flags}

   S keeps the set of its U-flagged keys up to date on every write, so
   the checker's pick and count are O(1). After any history the set
   must equal what a full scan finds. *)

let scan_unknowns s_tbl =
  Table.fold s_tbl ~init:[] ~f:(fun acc key r ->
      if r.Record.flag = Record.Unknown then key :: acc else acc)

let check_tracking what s_tbl =
  let scanned = scan_unknowns s_tbl in
  Alcotest.(check int) (what ^ ": count") (List.length scanned)
    (Table.unknown_count s_tbl);
  match Table.first_unknown s_tbl with
  | None -> Alcotest.(check int) (what ^ ": none flagged") 0 (List.length scanned)
  | Some (key, record) ->
    Alcotest.(check bool) (what ^ ": chosen key is flagged") true
      (List.exists (Row.Key.equal key) scanned);
    Alcotest.(check bool) (what ^ ": chosen record is current") true
      (Table.find s_tbl key = Some record)

(* Like [user_update], for a delete, or a reinsert of a deleted key:
   emptying a group deletes its S record, flagged or not. *)
let user_delete_or_insert h ~a ~row_if_absent =
  h.lsn <- h.lsn + 1;
  let lsn = Lsn.of_int h.lsn in
  let key = Row.make [ Value.Int a ] in
  let op =
    match Table.find h.t_tbl key with
    | Some r ->
      ignore (Table.delete h.t_tbl ~lsn key);
      Log_record.Delete { table = "T"; key; before = r.Record.row }
    | None ->
      ignore (Table.insert h.t_tbl ~lsn row_if_absent);
      Log_record.Insert { table = "T"; row = row_if_absent }
  in
  ignore (Log.append h.log ~txn:1 ~prev_lsn:Lsn.zero (Log_record.Op op))

let test_tracked_unknowns_random_history () =
  let rng = Random.State.make [| 5 |] in
  let d_of () = if Random.State.int rng 8 = 0 then "y" else "x" in
  let group () = 10 * Random.State.int rng 6 in
  let h =
    setup ~t_rows:(List.init 18 (fun i -> H.ti (i + 1) "n" (10 * (i mod 6)) (d_of ())))
  in
  let s_tbl = Split.s_table h.sp in
  check_tracking "after population" s_tbl;
  let rose = ref 0 and fell = ref 0 and flagged_deleted = ref 0 in
  for step = 1 to 600 do
    let before = Table.unknown_count s_tbl in
    let flagged_before = scan_unknowns s_tbl in
    let a = 1 + Random.State.int rng 18 in
    let key = Row.make [ Value.Int a ] in
    (match (Random.State.int rng 5, Table.find h.t_tbl key) with
     | 0, Some r ->
       user_update h ~key ~changes:[ (3, Value.Text (d_of ())) ]
         ~before:[ (3, Row.get r.Record.row 3) ]
     | 1, Some r ->
       user_update h ~key ~changes:[ (2, Value.Int (group ())) ]
         ~before:[ (2, Row.get r.Record.row 2) ]
     | (0 | 1 | 4), _ ->
       user_delete_or_insert h ~a ~row_if_absent:(H.ti a "n" (group ()) (d_of ()))
     | 2, _ ->
       (* A whole check: begin, then ok, each seen by propagation. *)
       for _ = 1 to 2 do
         ignore (Consistency.step h.cc);
         drain h
       done
     | _ -> drain h);
    check_tracking (Printf.sprintf "step %d" step) s_tbl;
    let after = Table.unknown_count s_tbl in
    if after > before then incr rose;
    if after < before then incr fell;
    if List.exists (fun k -> not (Table.mem s_tbl k)) flagged_before then
      incr flagged_deleted
  done;
  drain h;
  check_tracking "drained" s_tbl;
  Alcotest.(check bool)
    (Printf.sprintf "flags set (%d), cleared (%d), flagged records deleted (%d)"
       !rose !fell !flagged_deleted)
    true
    (!rose > 5 && !fell > 5 && !flagged_deleted > 0)

let test_tracked_unknowns_restore_and_resume () =
  let module Persist = Nbsc_engine.Persist in
  let module Manager = Nbsc_txn.Manager in
  Nbsc_engine.Fault.reset ();
  let dir = H.fresh_dir "cc" in
  let p = H.ok_p "create" (Persist.create_dir ~dir) in
  let db = Persist.db p in
  ignore (Db.create_table db ~name:"T" H.t_flat_schema);
  (* Every fifth row breaks its group's FD: population flags those S
     records U. *)
  let rows =
    List.init 60 (fun i ->
        let c = i mod 6 in
        H.ti (i + 1) "n" c (if i mod 5 = 0 then "odd" else H.city_of c))
  in
  (match Db.load db ~table:"T" rows with
   | Ok () -> ()
   | Error e -> Alcotest.failf "load: %a" Manager.pp_error e);
  H.ok_p "ddl checkpoint" (Persist.checkpoint p);
  let options =
    { Options.default with
      Options.scan_batch = 7; propagate_batch = 5; drop_sources = false }
  in
  let tf = H.start db ~options (Spec.Split (H.split_spec ~assume_consistent:false)) in
  let rng = Random.State.make [| 9 |] in
  let set_d db ~a dv =
    let mgr = Db.manager db in
    let txn = Manager.begin_txn mgr in
    match
      Manager.update mgr ~txn ~table:"T" ~key:(Row.make [ Value.Int a ])
        [ (3, Value.Text dv) ]
    with
    | Ok () -> ignore (Manager.commit mgr txn)
    | Error _ -> ignore (Manager.abort mgr txn)
  in
  let noise db =
    let a = 1 + Random.State.int rng 60 in
    set_d db ~a
      (if Random.State.bool rng then "noise" else H.city_of ((a - 1) mod 6))
  in
  for _ = 1 to 25 do
    ignore (Transform.step tf);
    noise db;
    check_tracking "live" (Db.table db "S")
  done;
  Alcotest.(check bool) "past population" true
    (Transform.phase tf <> Transform.Populating);
  Alcotest.(check bool) "some flagged" true
    (Table.unknown_count (Db.table db "S") > 0);
  H.ok_p "checkpoint" (Persist.checkpoint p);
  Persist.crash p;
  let p2 = H.ok_p "reopen" (Persist.open_dir ~dir) in
  let db2 = Persist.db p2 in
  check_tracking "restored" (Db.table db2 "S");
  (match Transform.resume ~options p2 with
   | Ok [ _ ] -> ()
   | Ok _ -> Alcotest.fail "expected one resumed job"
   | Error e -> Alcotest.fail (Nbsc_error.to_string e));
  check_tracking "resumed" (Db.table db2 "S");
  (* Repair every group, then let the checker clear the flags. *)
  for a = 1 to 60 do
    set_d db2 ~a (H.city_of ((a - 1) mod 6))
  done;
  (match
     Db.run_jobs db2 ~max_rounds:5_000 ~between:(fun () ->
         check_tracking "checking" (Db.table db2 "S"))
   with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  check_tracking "done" (Db.table db2 "S");
  Alcotest.(check int) "all cleared" 0 (Table.unknown_count (Db.table db2 "S"));
  Persist.close p2;
  H.wipe dir

let () =
  Alcotest.run "consistency"
    [ ( "checker",
        [ Alcotest.test_case "disagree, repair, confirm" `Quick
            test_disagree_then_repair;
          Alcotest.test_case "invalidated by concurrent update" `Quick
            test_invalidation_between_begin_and_ok;
          Alcotest.test_case "idle when all consistent" `Quick
            test_nothing_to_do;
          Alcotest.test_case "protocol records in log" `Quick
            test_cc_records_in_log ] );
      ( "tracked unknowns",
        [ Alcotest.test_case "equal a scan over a random history" `Quick
            test_tracked_unknowns_random_history;
          Alcotest.test_case "equal a scan after restore and resume" `Quick
            test_tracked_unknowns_restore_and_resume ] ) ]
