(* The paper's closing remark that repeated splits build many-to-many
   normalizations, restart over a rollback that follows a Commit
   record, and a resumed change's targets hidden from snapshots until
   it is done. (The crash-and-restart scenario that used to live here moved
   to test_crash_matrix.ml, where it runs through the durable Persist
   path.) *)

open Nbsc_value
open Nbsc_wal
open Nbsc_storage
open Nbsc_txn
open Nbsc_engine
open Nbsc_core
module H = Helpers

let cfg =
  { Options.default with
    Options.scan_batch = 7;
    propagate_batch = 5;
    drop_sources = false }

(* The paper's conclusion: "the split framework is able to split one
   source table into a many-to-many relationship by repeating splits."
   enrollment(student, course, student_name, course_title) is
   normalized in two online steps:
     split on student -> enrollment'(student, course) + student(...)
     split on course  -> enrollment''(student, course) + course(...)   *)
let test_repeated_splits_normalize_m2m () =
  let db = Db.create () in
  let col = Schema.column in
  ignore
    (Db.create_table db ~name:"enrollment"
       (Schema.make
          ~key:[ "student"; "course" ]
          [ col ~nullable:false "student" Value.TInt;
            col ~nullable:false "course" Value.TInt;
            col "student_name" Value.TText;
            col "course_title" Value.TText ]));
  let rows =
    List.concat_map
      (fun s ->
         List.filter_map
           (fun c ->
              if (s + c) mod 3 = 0 then None
              else
                Some
                  (Row.make
                     [ Value.Int s; Value.Int c;
                       Value.Text (Printf.sprintf "student-%d" s);
                       Value.Text (Printf.sprintf "course-%d" c) ]))
           [ 0; 1; 2; 3; 4 ])
      (List.init 20 Fun.id)
  in
  H.ok "load" (Db.load db ~table:"enrollment" rows);
  let d_rng = Random.State.make [| 3 |] in
  let mutate () =
    (* FD-preserving rename: every enrollment row of the student gets
       the same new name, in one transaction. *)
    let mgr = Db.manager db in
    if Catalog.mem (Db.catalog db) "enrollment" then begin
      let s = Random.State.int d_rng 20 in
      let name = Value.Text (Printf.sprintf "student-%d-r%d" s (Random.State.int d_rng 100)) in
      let txn = Manager.begin_txn mgr in
      let all_ok =
        List.for_all
          (fun c ->
             match
               Manager.update mgr ~txn ~table:"enrollment"
                 ~key:(Row.make [ Value.Int s; Value.Int c ])
                 [ (2, name) ]
             with
             | Ok () | Error `Not_found -> true
             | Error _ -> false)
          [ 0; 1; 2; 3; 4 ]
      in
      if all_ok then ignore (Manager.commit mgr txn)
      else ignore (Manager.abort mgr txn)
    end
  in
  (* Step 1: extract the student dimension. *)
  let tf1 =
    H.start db ~options:cfg
      (Spec.Split
         { Spec.t_table' = "enrollment";
           r_table' = "enrollment1";
           s_table' = "student";
           r_cols = [ "student"; "course"; "course_title" ];
           s_cols = [ "student"; "student_name" ];
           split_key = [ "student" ];
           assume_consistent = true })
  in
  let budget = ref 40 in
  (match
     Transform.run tf1 ~between:(fun () ->
         if !budget > 0 then begin
           decr budget;
           mutate ()
         end)
   with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  (* Step 2: extract the course dimension from the intermediate. *)
  let tf2 =
    H.start db ~options:cfg
      (Spec.Split
         { Spec.t_table' = "enrollment1";
           r_table' = "enrollment2";
           s_table' = "course";
           r_cols = [ "student"; "course" ];
           s_cols = [ "course"; "course_title" ];
           split_key = [ "course" ];
           assume_consistent = true })
  in
  (match Transform.run tf2 with Ok () -> () | Error m -> Alcotest.fail m);
  (* The end state is the classic normalized trio. *)
  let base = Db.snapshot db "enrollment" in
  let want_link =
    Nbsc_relalg.Relalg.project base [ "student"; "course" ]
      ~key:[ "student"; "course" ]
  in
  let want_students =
    Nbsc_relalg.Relalg.project base [ "student"; "student_name" ]
      ~key:[ "student" ]
  in
  let want_courses =
    Nbsc_relalg.Relalg.project base [ "course"; "course_title" ]
      ~key:[ "course" ]
  in
  H.check_relations_equal "link table" want_link (Db.snapshot db "enrollment2");
  H.check_relations_equal "student table" want_students
    (Db.snapshot db "student");
  H.check_relations_equal "course table" want_courses (Db.snapshot db "course");
  (* And re-joining the three reproduces the original (round trip via
     two FOJ transformations). *)
  let tf3 =
    H.start db ~options:cfg
      (Spec.Foj
         { Spec.r_table = "enrollment2";
           s_table = "student";
           t_table = "with_names";
           join_r = [ "student" ];
           join_s = [ "student" ];
           t_join = [ "student" ];
           r_carry = [ "course" ];
           s_carry = [ "student_name" ];
           many_to_many = true })
  in
  (match Transform.run tf3 with Ok () -> () | Error m -> Alcotest.fail m);
  let tf4 =
    H.start db ~options:cfg
      (Spec.Foj
         { Spec.r_table = "with_names";
           s_table = "course";
           t_table = "denormalized";
           join_r = [ "course" ];
           join_s = [ "course" ];
           t_join = [ "course" ];
           r_carry = [ "student"; "student_name" ];
           s_carry = [ "course_title" ];
           many_to_many = true })
  in
  (match Transform.run tf4 with Ok () -> () | Error m -> Alcotest.fail m);
  (* Compare as sets of (student, course, name, title). *)
  let normalize rel cols key = Nbsc_relalg.Relalg.project rel cols ~key in
  let want =
    normalize base
      [ "student"; "course"; "student_name"; "course_title" ]
      [ "student"; "course" ]
  in
  let got =
    normalize
      (Db.snapshot db "denormalized")
      [ "student"; "course"; "student_name"; "course_title" ]
      [ "student"; "course" ]
  in
  H.check_relations_equal "round trip" want got

(* A commit whose durability barrier failed is rolled back after its
   Commit record. A crash that tears that rollback (Abort_begin and one
   CLR on disk, no Abort_done) must still finish it at restart: the
   Abort_begin re-opens the transaction, so recovery undoes the rest. *)
let test_torn_rollback_after_commit () =
  let log = Log.create () in
  let txn = 7 in
  let append prev body = Log.append log ~txn ~prev_lsn:prev body in
  let row1 = H.ri 1 "one" 1 and row2 = H.ri 2 "two" 2 in
  let b = append Lsn.zero Log_record.Begin in
  let op1 = append b (Log_record.Op (Log_record.Insert { table = "t"; row = row1 })) in
  let op2 = append op1 (Log_record.Op (Log_record.Insert { table = "t"; row = row2 })) in
  let c = append op2 Log_record.Commit in
  let ab = append c Log_record.Abort_begin in
  ignore
    (append ab
       (Log_record.Clr
          { undo_next = op1;
            op =
              Log_record.Delete
                { table = "t"; key = Row.make [ Value.Int 2 ]; before = row2 } }));
  let catalog, report =
    Recovery.recover ~table_defs:[ Recovery.table_def "t" H.r_schema ] log
  in
  Alcotest.(check (list int)) "the torn rollback is a loser" [ txn ]
    report.Recovery.losers;
  Alcotest.(check int) "recovered without the ops" 0
    (Table.cardinality (Catalog.find catalog "t"))

(* {1 Targets across a restart}

   A change's targets stay hidden from snapshots until routing flips
   to them. A change resumed while it still routes to its sources hides
   them again; one resumed after the flip leaves them visible, as no
   snapshot survives the restart. *)

(* A durable split of 60 rows of T under [sync], with its sync held
   shut by [gate]: [before_crash] drives it, then a checkpoint records
   the job's phase and the process crashes. Returns the reopened store
   and the resumed change. *)
let crash_and_resume ~sync ~gate ~before_crash =
  let dir = Filename.temp_dir "nbsc_restart" "" in
  let p = H.ok_p "create" (Persist.create_dir ~dir) in
  let db = Persist.db p in
  ignore (Db.create_table db ~name:"T" H.t_flat_schema);
  H.ok "load" (Db.load db ~table:"T" (H.seed_t_rows ~n:60));
  let options =
    { cfg with Options.sync; sync_gate = (fun () -> !gate) }
  in
  let tf = H.start db ~options (Spec.Split (H.split_spec ~assume_consistent:true)) in
  before_crash db tf;
  H.ok_p "checkpoint" (Persist.checkpoint p);
  Persist.crash p;
  let p2 = H.ok_p "reopen" (Persist.open_dir ~dir) in
  match Transform.resume ~options p2 with
  | Ok [ tf2 ] -> (dir, p2, tf2)
  | Ok tfs -> Alcotest.failf "expected one job, got %d" (List.length tfs)
  | Error e -> Alcotest.failf "resume: %s" (Nbsc_error.to_string e)

let step_ok tf =
  match Transform.step tf with
  | `Running | `Done -> ()
  | `Failed m -> Alcotest.failf "change failed: %s" m

let step_until tf what cond =
  let n = ref 0 in
  while not (cond ()) do
    if !n > 10_000 then Alcotest.failf "never reached %s" what;
    step_ok tf;
    incr n
  done

(* Finish the change and check the targets against the split of T. *)
let finish_and_check ~dir p tf =
  let db = Persist.db p in
  (match Transform.run tf with Ok () -> () | Error m -> Alcotest.fail m);
  let want_r, want_s = H.split_oracle db in
  H.check_relations_equal "R = split(T)" want_r (Db.snapshot db "R");
  H.check_relations_equal "S = split(T)" want_s (Db.snapshot db "S");
  Persist.close p;
  H.wipe dir

let test_resume_propagating_hides_targets () =
  let gate = ref false in
  let dir, p, tf =
    crash_and_resume ~sync:Options.Nonblocking_abort ~gate
      ~before_crash:(fun db tf ->
          let d = H.driver db in
          step_until tf "propagating" (fun () ->
              H.random_t_op d;
              Transform.phase tf = Transform.Propagating))
  in
  Alcotest.(check bool) "resumed propagating" true
    (Transform.phase tf = Transform.Propagating);
  let db = Persist.db p in
  let mgr = Db.manager db in
  let snap = Manager.begin_txn ~isolation:`Snapshot mgr in
  List.iter
    (fun table ->
       match Manager.read mgr ~txn:snap ~table ~key:(Row.make [ Value.Int 1 ]) with
       | Error (`No_table _) -> ()
       | Ok _ | Error _ ->
         Alcotest.failf "a snapshot found target %s before the flip" table)
    [ "R"; "S" ];
  let d = H.driver ~seed:7 db in
  for _ = 1 to 40 do
    H.random_t_op d;
    step_ok tf
  done;
  Alcotest.(check bool) "propagated under the snapshot" true
    ((Transform.progress tf).Transform.propagated > 0);
  List.iter
    (fun table ->
       Alcotest.(check int) (table ^ " takes no version") 0
         (Table.versions_count (Db.table db table)))
    [ "R"; "S" ];
  H.ok "snap commit" (Manager.commit mgr snap);
  gate := true;
  finish_and_check ~dir p tf

let test_resume_draining_hides_targets () =
  let gate = ref false in
  let dir, p, tf =
    crash_and_resume ~sync:Options.Nonblocking_commit ~gate
      ~before_crash:(fun db tf ->
          let mgr = Db.manager db in
          step_until tf "propagating" (fun () ->
              Transform.phase tf = Transform.Propagating);
          (* A transaction on T across the flip holds the change in
             Draining; it commits before the checkpoint, which needs
             none active. *)
          let old = Manager.begin_txn mgr in
          H.ok "old update"
            (Manager.update mgr ~txn:old ~table:"T"
               ~key:(Row.make [ Value.Int 1 ]) [ (1, Value.Text "old") ]);
          gate := true;
          step_until tf "draining" (fun () ->
              Transform.phase tf = Transform.Draining);
          H.ok "old commit" (Manager.commit mgr old))
  in
  Alcotest.(check bool) "resumed draining" true
    (Transform.phase tf = Transform.Draining);
  let db = Persist.db p in
  let mgr = Db.manager db in
  let read_targets () =
    let snap = Manager.begin_txn ~isolation:`Snapshot mgr in
    let rows =
      List.map
        (fun table ->
           Manager.read mgr ~txn:snap ~table ~key:(Row.make [ Value.Int 1 ]))
        [ "R"; "S" ]
    in
    H.ok "snap commit" (Manager.commit mgr snap);
    rows
  in
  List.iter
    (function
      | Error (`No_table _) -> ()
      | Ok _ | Error _ ->
        Alcotest.fail "a snapshot begun while draining found a target")
    (read_targets ());
  (match Transform.run tf with Ok () -> () | Error m -> Alcotest.fail m);
  let want_r, want_s = H.split_oracle db in
  let row_1 (rel : Nbsc_relalg.Relalg.t) =
    List.find_opt
      (fun row -> Value.equal (Row.get row 0) (Value.Int 1))
      rel.rows
  in
  List.iter2
    (fun (table, want) got ->
       match got with
       | Ok (Some row) when Option.equal Row.equal (Some row) (row_1 want) -> ()
       | Ok got ->
         Alcotest.failf "once done, a snapshot read %s key 1 as %s" table
           (Option.fold ~none:"absent" ~some:Row.to_string got)
       | Error e ->
         Alcotest.failf "snapshot read of %s: %a" table Manager.pp_error e)
    [ ("R", want_r); ("S", want_s) ]
    (read_targets ());
  finish_and_check ~dir p tf

let () =
  Alcotest.run "restart"
    [ ( "composition",
        [ Alcotest.test_case "repeated splits build a normalized m2m" `Quick
            test_repeated_splits_normalize_m2m ] );
      ( "recovery",
        [ Alcotest.test_case "a torn rollback after a Commit record finishes"
            `Quick test_torn_rollback_after_commit ] );
      ( "snapshots",
        [ Alcotest.test_case "resumed in propagating, targets hidden" `Quick
            test_resume_propagating_hides_targets;
          Alcotest.test_case "resumed in draining, hidden until done" `Quick
            test_resume_draining_hides_targets ] ) ]
