(* Tests for the durable database directory: journaling, crash
   recovery from snapshot + WAL, checkpoint truncation. *)

open Nbsc_value
open Nbsc_storage
open Nbsc_txn
open Nbsc_engine
module H = Helpers

let counter = ref 0

(* No unix dependency: uniqueness from a counter + random suffix. *)
let fresh_dir () =
  incr counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "nbsc_test_%d_%d" !counter (Random.int 1_000_000))

let setup_orders p =
  let db = Persist.db p in
  ignore (Db.create_table db ~name:"t" H.r_schema);
  (* Persist the DDL. *)
  H.ok_p "checkpoint" (Persist.checkpoint p)

let insert p a b c =
  let db = Persist.db p in
  let txn = Manager.begin_txn (Db.manager db) in
  H.ok "insert" (Manager.insert (Db.manager db) ~txn ~table:"t" (H.ri a b c));
  H.ok "commit" (Manager.commit (Db.manager db) txn)

let rows p =
  Table.fold (Db.table (Persist.db p) "t") ~init:[] ~f:(fun acc _ r ->
      r.Record.row :: acc)
  |> List.sort Row.compare

let test_journal_and_reopen () =
  let dir = fresh_dir () in
  let p = H.ok_p "create" (Persist.create_dir ~dir) in
  setup_orders p;
  insert p 1 "a" 10;
  insert p 2 "b" 20;
  let before = rows p in
  Persist.close p;
  (* Reopen: committed work survives via the WAL (no checkpoint since
     the inserts). *)
  let p2 = H.ok_p "open" (Persist.open_dir ~dir) in
  Alcotest.(check bool) "rows survived" true (rows p2 = before);
  (* And new work keeps journaling. *)
  insert p2 3 "c" 30;
  Persist.close p2;
  let p3 = H.ok_p "open again" (Persist.open_dir ~dir) in
  Alcotest.(check int) "three rows" 3 (List.length (rows p3));
  Persist.close p3;
  H.wipe dir

let test_crash_rolls_back_losers () =
  let dir = fresh_dir () in
  let p = H.ok_p "create" (Persist.create_dir ~dir) in
  setup_orders p;
  insert p 1 "a" 10;
  (* A transaction left in flight: simulate a crash by NOT committing
     and not closing cleanly (the WAL has its ops, no Commit). *)
  let db = Persist.db p in
  let txn = Manager.begin_txn (Db.manager db) in
  H.ok "ghost insert" (Manager.insert (Db.manager db) ~txn ~table:"t" (H.ri 99 "ghost" 1));
  H.ok "ghost update"
    (Manager.update (Db.manager db) ~txn ~table:"t"
       ~key:(Row.make [ Value.Int 1 ]) [ (1, Value.Text "ghost") ]);
  (* The buffered sink only writes at the group-commit barrier; raise
     it explicitly so the ghost ops are on disk without their Commit —
     the torn durability state this test is about. *)
  Nbsc_wal.Log.sync (Db.log db);
  (* crash: abandon p without close/commit *)
  let p2 = H.ok_p "open after crash" (Persist.open_dir ~dir) in
  (match Persist.last_recovery p2 with
   | Some report ->
     Alcotest.(check int) "one loser" 1 (List.length report.Recovery.losers)
   | None -> Alcotest.fail "expected recovery to run");
  let got = rows p2 in
  Alcotest.(check int) "ghost insert gone" 1 (List.length got);
  Alcotest.(check bool) "ghost update undone" true
    (Row.equal (List.hd got) (H.ri 1 "a" 10));
  Persist.close p2;
  H.wipe dir

let test_checkpoint_truncates () =
  let dir = fresh_dir () in
  let p = H.ok_p "create" (Persist.create_dir ~dir) in
  setup_orders p;
  for i = 1 to 50 do
    insert p i "x" i
  done;
  let wal = Filename.concat dir "wal.nbsc" in
  let size_before = (Stdlib.open_in wal |> fun ic -> let n = in_channel_length ic in close_in ic; n) in
  Alcotest.(check bool) "wal grew" true (size_before > 0);
  H.ok_p "checkpoint" (Persist.checkpoint p);
  let size_after = (Stdlib.open_in wal |> fun ic -> let n = in_channel_length ic in close_in ic; n) in
  (* Truncated down to the format header alone. *)
  Alcotest.(check int) "wal truncated"
    (String.length Disk_format.wal_magic + 1)
    size_after;
  (* State survives reopen through the snapshot alone. *)
  Persist.close p;
  let p2 = H.ok_p "open" (Persist.open_dir ~dir) in
  Alcotest.(check int) "all rows" 50 (List.length (rows p2));
  (* LSN continuity: an update after reopen is strictly newer. *)
  insert p2 77 "post" 7;
  Persist.close p2;
  let p3 = H.ok_p "open again" (Persist.open_dir ~dir) in
  Alcotest.(check int) "51 rows" 51 (List.length (rows p3));
  Persist.close p3;
  H.wipe dir

let test_create_refuses_existing () =
  let dir = fresh_dir () in
  let p = H.ok_p "create" (Persist.create_dir ~dir) in
  Persist.close p;
  (match Persist.create_dir ~dir with
   | Error (`Io _) -> ()
   | _ -> Alcotest.fail "expected refusal");
  H.wipe dir

let test_corrupt_wal_detected () =
  let dir = fresh_dir () in
  let p = H.ok_p "create" (Persist.create_dir ~dir) in
  setup_orders p;
  insert p 1 "a" 1;
  Persist.close p;
  let oc = open_out_gen [ Open_append ] 0o644 (Filename.concat dir "wal.nbsc") in
  output_string oc "garbage line\n";
  close_out oc;
  (match Persist.open_dir ~dir with
   | Error (`Corrupt _) -> ()
   | _ -> Alcotest.fail "expected Corrupt");
  H.wipe dir

let test_torn_tail_tolerated () =
  let dir = fresh_dir () in
  let p = H.ok_p "create" (Persist.create_dir ~dir) in
  setup_orders p;
  insert p 1 "a" 1;
  insert p 2 "b" 2;
  Persist.close p;
  (* A crash can tear the final WAL append: a prefix of the line with
     no terminating newline. Reopen must drop exactly that tail. *)
  let oc = open_out_gen [ Open_append ] 0o644 (Filename.concat dir "wal.nbsc") in
  output_string oc "Op|9|half-a-reco";
  close_out oc;
  let p2 = H.ok_p "open tolerates torn tail" (Persist.open_dir ~dir) in
  Alcotest.(check int) "committed rows intact" 2 (List.length (rows p2));
  (* The journal keeps working after the truncated tail. *)
  insert p2 3 "c" 3;
  Persist.close p2;
  let p3 = H.ok_p "open again" (Persist.open_dir ~dir) in
  Alcotest.(check int) "three rows" 3 (List.length (rows p3));
  Persist.close p3;
  H.wipe dir

(* The snapshot is replaced atomically (temp file + rename): a crash
   while streaming the new snapshot, or just before the rename, leaves
   the previous snapshot untouched and the store recoverable. *)
let test_snapshot_replace_is_atomic () =
  List.iter
    (fun site ->
       Fault.reset ();
       let dir = fresh_dir () in
       let p = H.ok_p "create" (Persist.create_dir ~dir) in
       setup_orders p;
       insert p 1 "a" 1;
       H.ok_p "first checkpoint" (Persist.checkpoint p);
       insert p 2 "b" 2;
       Fault.arm site;
       (match Persist.checkpoint p with
        | exception Fault.Injected _ -> ()
        | Ok () -> Alcotest.failf "%s: checkpoint should have crashed" site
        | Error e -> Alcotest.failf "%s: %a" site Persist.pp_error e);
       Fault.reset ();
       Persist.crash p;
       let p2 = H.ok_p (site ^ ": reopen") (Persist.open_dir ~dir) in
       Alcotest.(check int) (site ^ ": rows survive") 2
         (List.length (rows p2));
       (* The leftover temp file must not confuse a later checkpoint. *)
       insert p2 3 "c" 3;
       H.ok_p (site ^ ": checkpoint after recovery") (Persist.checkpoint p2);
       Persist.close p2;
       H.wipe dir)
    [ "snapshot_write"; "snapshot_rename"; "wal_rewrite" ]

(* A newline-terminated record whose prev_lsn chain is inconsistent is
   corruption, not a torn tail: open_dir must refuse, and with a
   diagnosable error rather than a stray Not_found from redo. *)
let test_bad_prev_lsn_is_corrupt () =
  let module W = Nbsc_wal in
  let bad_wals =
    [ ( "forward pointer",
        [ { W.Log_record.lsn = W.Lsn.of_int 1; txn = 1;
            prev_lsn = W.Lsn.of_int 1; body = W.Log_record.Begin } ] );
      ( "cross-transaction chain",
        [ { W.Log_record.lsn = W.Lsn.of_int 1; txn = 1;
            prev_lsn = W.Lsn.zero; body = W.Log_record.Begin };
          { W.Log_record.lsn = W.Lsn.of_int 2; txn = 2;
            prev_lsn = W.Lsn.zero; body = W.Log_record.Begin };
          { W.Log_record.lsn = W.Lsn.of_int 3; txn = 2;
            prev_lsn = W.Lsn.of_int 1; body = W.Log_record.Commit } ] ) ]
  in
  List.iter
    (fun (name, records) ->
       let dir = fresh_dir () in
       let p = H.ok_p "create" (Persist.create_dir ~dir) in
       Persist.close p;
       let oc = open_out (Filename.concat dir "wal.nbsc") in
       (* Correctly framed v2 lines — the chain check must trip, not the
          CRC. *)
       output_string oc (Disk_format.wal_magic ^ "\n");
       List.iter
         (fun r ->
            output_string oc (Disk_format.frame (W.Log_record.encode r));
            output_char oc '\n')
         records;
       close_out oc;
       (match Persist.open_dir ~dir with
        | Error (`Corrupt _) -> ()
        | Ok _ -> Alcotest.failf "%s: expected Corrupt, opened fine" name
        | Error e -> Alcotest.failf "%s: %a" name Persist.pp_error e);
       H.wipe dir)
    bad_wals

(* A crash between writing a temp file and renaming it strands a *.tmp
   orphan; reopening must sweep it so no stale bytes are ever mistaken
   for live state. *)
let test_orphan_tmp_removed () =
  let dir = fresh_dir () in
  let p = H.ok_p "create" (Persist.create_dir ~dir) in
  setup_orders p;
  insert p 1 "a" 1;
  Fault.arm "snapshot_rename";
  (match Persist.checkpoint p with
   | exception Fault.Injected _ -> ()
   | Ok () -> Alcotest.fail "checkpoint should have crashed"
   | Error e -> Alcotest.failf "checkpoint: %a" Persist.pp_error e);
  Fault.reset ();
  Persist.crash p;
  (* A hand-made orphan too, to cover non-snapshot temp names. *)
  let stray = Filename.concat dir "stale.tmp" in
  let oc = open_out stray in
  output_string oc "junk";
  close_out oc;
  let orphans () =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".tmp")
  in
  Alcotest.(check bool) "orphans present before reopen" true (orphans () <> []);
  let p2 = H.ok_p "reopen" (Persist.open_dir ~dir) in
  Alcotest.(check (list string)) "orphans swept" [] (orphans ());
  Alcotest.(check int) "rows intact" 1 (List.length (rows p2));
  Persist.close p2;
  H.wipe dir

(* Both files of the store [fixed_store] below builds, once its last
   checkpoint is taken and it is closed, as format v2 has always written
   them. *)
let snapshot_v2 = {fmt|nbsc:snapshot:v2
9adc6f4c:H:24
3caa2cb4:T:1:R40:1:31:a3:int1:01:b4:text1:11:c3:int1:11:a
6686ba39:R:1:R1:41:11:C1:016:2:I35:T2:r33:I40
5f15933f:R:1:R2:191:11:C1:018:2:I17:T4:r1:|3:I10
03315c78:T:1:S29:1:21:c3:int1:01:d4:text1:11:c
086a2de6:R:1:S1:91:11:C1:013:3:I306:T3:s30
19aed10e:R:1:S1:81:11:C1:013:3:I206:T3:s20
545e6f54:R:1:S1:71:11:C1:013:3:I106:T3:s10
ab949be7:R:1:S2:221:11:C1:013:3:I406:T3:s40
c9577e60:T:1:T55:1:41:c3:int1:11:a3:int1:11:b4:text1:11:d4:text1:11:a1:c
ccd49717:I:1:T8:by_r_key1:a
ee70f6a5:I:1:T8:by_s_key1:c
d75e8004:I:1:T7:by_join1:c
7668811a:R:1:T1:01:11:C1:324:3:I102:I15:T2:r16:T3:s10
b4a47a88:R:1:T1:01:11:C1:119:3:I402:I35:T2:r31:N
361ed80d:R:1:T1:01:11:C1:324:3:I202:I25:T2:r26:T3:s20
ad4c0025:R:1:T1:01:11:C1:219:3:I301:N1:N6:T3:s30
329e5a43:T:1:v65:1:51:k3:int1:01:n3:int1:11:f5:float1:11:b4:bool1:11:s4:text1:11:k
feee8a07:I:1:v6:v_by_s1:s
6c0a0078:O:1:v6:v_by_n1:n
54f33091:R:1:v2:181:11:C1:043:2:I21:N21:F-46297004169368698882:Bf6:T3:|:|
da56460e:R:1:v2:121:11:C1:047:2:I14:I-4220:F46128119183342305282:Bt8:T5:a:b|c
1f43f821:@end:22
|fmt}

let wal_v2 = {fmt|nbsc:wal:v2
71b103f8:2:141:01:05:fuzzy0:
7abba262:2:151:01:03:job14:foj#100000000161:2:v13:pop2:1445:3:foj1:R1:S1:T3:1:c3:1:c3:1:c6:1:a1:b3:1:d1:0
f611269b:2:161:01:05:fuzzy0:
7c714f2f:2:171:41:05:begin
0bd29e14:2:181:42:172:op3:ins1:v43:2:I21:N21:F-46297004169368698882:Bf6:T3:|:|
d6a83a2e:2:191:42:182:op3:upd1:R4:2:I112:1:17:T4:r1:|10:1:15:T2:r1
aa62b54f:2:201:42:196:commit
5440b120:2:211:51:05:begin
730b9b93:2:221:52:212:op3:ins1:S13:3:I406:T3:s40
add1de75:2:231:52:222:op3:del1:R4:2:I216:2:I25:T2:r23:I20
dddc11d0:2:241:52:236:commit
40d2f357:2:251:01:03:job14:foj#100000000162:2:v14:prop2:1445:3:foj1:R1:S1:T3:1:c3:1:c3:1:c6:1:a1:b3:1:d1:0
|fmt}

(* The extra checkpoint of the second store in [test_v2_bytes_stable],
   taken while the FOJ populates: its files as format v2 wrote them
   before a checkpoint left out the rows a resume rebuilds, and the WAL
   of the store's last checkpoint. *)
let snapshot_v2_populating = {fmt|nbsc:snapshot:v2
c6f60c19:H:15
3caa2cb4:T:1:R40:1:31:a3:int1:01:b4:text1:11:c3:int1:11:a
6686ba39:R:1:R1:41:11:C1:016:2:I35:T2:r33:I40
d4701e22:R:1:R1:31:11:C1:016:2:I25:T2:r23:I20
a7048aa5:R:1:R1:21:11:C1:016:2:I15:T2:r13:I10
03315c78:T:1:S29:1:21:c3:int1:01:d4:text1:11:c
086a2de6:R:1:S1:91:11:C1:013:3:I306:T3:s30
19aed10e:R:1:S1:81:11:C1:013:3:I206:T3:s20
545e6f54:R:1:S1:71:11:C1:013:3:I106:T3:s10
c9577e60:T:1:T55:1:41:c3:int1:11:a3:int1:11:b4:text1:11:d4:text1:11:a1:c
ccd49717:I:1:T8:by_r_key1:a
ee70f6a5:I:1:T8:by_s_key1:c
d75e8004:I:1:T7:by_join1:c
7668811a:R:1:T1:01:11:C1:324:3:I102:I15:T2:r16:T3:s10
361ed80d:R:1:T1:01:11:C1:324:3:I202:I25:T2:r26:T3:s20
329e5a43:T:1:v65:1:51:k3:int1:01:n3:int1:11:f5:float1:11:b4:bool1:11:s4:text1:11:k
feee8a07:I:1:v6:v_by_s1:s
6c0a0078:O:1:v6:v_by_n1:n
da56460e:R:1:v2:121:11:C1:047:2:I14:I-4220:F46128119183342305282:Bt8:T5:a:b|c
a3bc726a:@end:19
|fmt}

let wal_v2_populating = {fmt|nbsc:wal:v2
71b103f8:2:141:01:05:fuzzy0:
7abba262:2:151:01:03:job14:foj#100000000161:2:v13:pop2:1445:3:foj1:R1:S1:T3:1:c3:1:c3:1:c6:1:a1:b3:1:d1:0
88e98c49:2:161:01:03:job14:foj#100000000161:2:v13:pop2:1445:3:foj1:R1:S1:T3:1:c3:1:c3:1:c6:1:a1:b3:1:d1:0
|fmt}

let wal_v2_after_populating = {fmt|nbsc:wal:v2
71b103f8:2:141:01:05:fuzzy0:
7abba262:2:151:01:03:job14:foj#100000000161:2:v13:pop2:1445:3:foj1:R1:S1:T3:1:c3:1:c3:1:c6:1:a1:b3:1:d1:0
88e98c49:2:161:01:03:job14:foj#100000000161:2:v13:pop2:1445:3:foj1:R1:S1:T3:1:c3:1:c3:1:c6:1:a1:b3:1:d1:0
5879b70a:2:171:01:05:fuzzy0:
2ae5fbd9:2:181:41:05:begin
7b2c0f97:2:191:42:182:op3:ins1:v43:2:I21:N21:F-46297004169368698882:Bf6:T3:|:|
d55d007d:2:201:42:192:op3:upd1:R4:2:I112:1:17:T4:r1:|10:1:15:T2:r1
439e2986:2:211:42:206:commit
282194fb:2:221:51:05:begin
4373246a:2:231:52:222:op3:ins1:S13:3:I406:T3:s40
fc59f6f1:2:241:52:232:op3:del1:R4:2:I216:2:I25:T2:r23:I20
17d5ed88:2:251:52:246:commit
ec9c5839:2:261:01:03:job14:foj#100000000162:2:v14:prop2:1445:3:foj1:R1:S1:T3:1:c3:1:c3:1:c6:1:a1:b3:1:d1:0
|fmt}

(* {1 The on-disk bytes}

   A small fixed store exercising every line kind of format v2: a table
   with a hash and an ordered index; rows holding Null, a negative Int,
   a Float, a Bool and a Text containing ':' and '|'; two transactions
   committed after a checkpoint; and a FOJ caught propagating by the
   last checkpoint, so the rewritten WAL holds a retained suffix and a
   [Job_state]. Both files must stay byte for byte what the format
   always wrote. *)

let v_schema =
  Schema.make ~key:[ "k" ]
    [ Schema.column ~nullable:false "k" Value.TInt;
      Schema.column "n" Value.TInt; Schema.column "f" Value.TFloat;
      Schema.column "b" Value.TBool; Schema.column "s" Value.TText ]

(* The fixed store up to its last checkpoint, which the caller takes.
   [populating] runs once while the FOJ populates, as soon as T holds a
   row. *)
let fixed_store ?(populating = fun _ -> ()) dir =
  let p = H.ok_p "create" (Persist.create_dir ~dir) in
  let db = Persist.db p in
  let mgr = Db.manager db in
  let v = Db.create_table db ~name:"v" v_schema in
  Table.add_index v ~name:"v_by_s" ~columns:[ "s" ];
  Table.add_ordered_index v ~name:"v_by_n" ~columns:[ "n" ];
  ignore (Db.create_table db ~name:"R" H.r_schema);
  ignore (Db.create_table db ~name:"S" H.s_schema);
  H.ok "load R" (Db.load db ~table:"R" [ H.ri 1 "r1" 10; H.ri 2 "r2" 20; H.ri 3 "r3" 40 ]);
  H.ok "load S" (Db.load db ~table:"S" [ H.si 10 "s10"; H.si 20 "s20"; H.si 30 "s30" ]);
  H.ok "load v"
    (Db.load db ~table:"v"
       [ Row.make
           [ Value.Int 1; Value.Int (-42); Value.Float 2.5; Value.Bool true;
             Value.Text "a:b|c" ] ]);
  H.ok_p "ddl checkpoint" (Persist.checkpoint p);
  let tf =
    H.start db
      ~options:{ Nbsc_core.Options.default with
                 Nbsc_core.Options.scan_batch = 2; propagate_batch = 2;
                 drop_sources = false }
      (Nbsc_core.Spec.Foj H.foj_spec)
  in
  let guard = ref 0 and populated = ref false in
  while Nbsc_core.Transform.phase tf = Nbsc_core.Transform.Populating do
    incr guard;
    if !guard > 50 then Alcotest.fail "population never finished";
    if (not !populated) && Db.row_count db "T" > 0 then begin
      populated := true;
      populating p
    end;
    ignore (Nbsc_core.Transform.step tf)
  done;
  Alcotest.(check bool) "propagating" true
    (Nbsc_core.Transform.phase tf = Nbsc_core.Transform.Propagating);
  (* Two transactions the propagator has not read yet. *)
  let txn = Manager.begin_txn mgr in
  H.ok "insert v"
    (Manager.insert mgr ~txn ~table:"v"
       (Row.make
          [ Value.Int 2; Value.Null; Value.Float (-0.125); Value.Bool false;
            Value.Text "|:|" ]));
  H.ok "update R"
    (Manager.update mgr ~txn ~table:"R" ~key:(Row.make [ Value.Int 1 ])
       [ (1, Value.Text "r1:|") ]);
  H.ok "commit 1" (Manager.commit mgr txn);
  let txn = Manager.begin_txn mgr in
  H.ok "insert S" (Manager.insert mgr ~txn ~table:"S" (H.si 40 "s40"));
  H.ok "delete R" (Manager.delete mgr ~txn ~table:"R" ~key:(Row.make [ Value.Int 2 ]));
  H.ok "commit 2" (Manager.commit mgr txn);
  p

let check_v2_bytes name dir =
  Alcotest.(check string) (name ^ "snapshot.nbsc") snapshot_v2
    (H.read_file (Disk_format.snapshot_path dir));
  Alcotest.(check string) (name ^ "wal.nbsc") wal_v2
    (H.read_file (Disk_format.wal_path dir))

(* A file's payload lines: the header, the frames and a snapshot's
   trailer stripped. *)
let payloads file =
  String.split_on_char '\n' file
  |> List.tl
  |> List.filter_map (fun framed ->
         if String.equal framed "" then None
         else
           let payload = String.sub framed 9 (String.length framed - 9) in
           if String.starts_with ~prefix:"@end:" payload then None
           else Some payload)

let test_v2_bytes_stable () =
  Fault.reset ();
  let dir = fresh_dir () in
  let p = fixed_store dir in
  H.ok_p "checkpoint while propagating" (Persist.checkpoint p);
  Persist.close p;
  check_v2_bytes "" dir;
  H.wipe dir;
  (* The same store with one more checkpoint, taken while the FOJ
     populates. A resume would refill T, so that snapshot leaves out
     T's rows and nothing else; the WAL is what the format always
     wrote, then and at the last checkpoint. *)
  let dir = fresh_dir () in
  let p =
    fixed_store dir ~populating:(fun p ->
        H.ok_p "checkpoint while populating" (Persist.checkpoint p);
        Alcotest.(check string) "populating: wal.nbsc" wal_v2_populating
          (H.read_file (Disk_format.wal_path dir));
        Alcotest.(check (list string)) "populating: snapshot payloads"
          (List.filter
             (fun l -> not (String.starts_with ~prefix:"R:1:T" l))
             (payloads snapshot_v2_populating))
          (payloads (H.read_file (Disk_format.snapshot_path dir))))
  in
  H.ok_p "checkpoint while propagating" (Persist.checkpoint p);
  Persist.close p;
  Alcotest.(check string) "propagating: wal.nbsc" wal_v2_after_populating
    (H.read_file (Disk_format.wal_path dir));
  H.wipe dir

(* A WAL of the current format may hold the inert watermark pairs an
   earlier populator wrote between committed transactions. Recovery
   must skip them: the store reopens after a crash with the same rows
   as one whose WAL never held the pair. *)
let test_watermarks_recover () =
  let module W = Nbsc_wal in
  let recovered ~watermarks =
    let dir = fresh_dir () in
    let p = H.ok_p "create" (Persist.create_dir ~dir) in
    setup_orders p;
    insert p 1 "a" 10;
    let log = Db.log (Persist.db p) in
    if watermarks then
      List.iter
        (fun high ->
           ignore
             (W.Log.append log ~txn:W.Log_record.system_txn ~prev_lsn:W.Lsn.zero
                (W.Log_record.Watermark { job = "foj"; high })))
        [ false; true ];
    insert p 2 "b" 20;
    insert p 3 "c" 30;
    W.Log.sync log;
    let on_disk =
      H.read_file (Filename.concat dir "wal.nbsc")
      |> String.split_on_char '\n'
      |> List.filter (fun line ->
             String.ends_with ~suffix:":wmark3:foj2:lo" line
             || String.ends_with ~suffix:":wmark3:foj2:hi" line)
    in
    Alcotest.(check int) "watermarks on disk"
      (if watermarks then 2 else 0)
      (List.length on_disk);
    (* crash: abandon p without close *)
    let p2 = H.ok_p "open after crash" (Persist.open_dir ~dir) in
    Alcotest.(check bool) "recovery ran" true
      (Option.is_some (Persist.last_recovery p2));
    let got = rows p2 in
    Persist.close p2;
    H.wipe dir;
    got
  in
  let plain = recovered ~watermarks:false in
  Alcotest.(check int) "three rows" 3 (List.length plain);
  Alcotest.(check bool) "same rows with watermarks" true
    (recovered ~watermarks:true = plain)

(* A transient EIO at either checkpoint write reruns that whole write on
   a fresh temp file, streaming its lines again: the checkpoint still
   succeeds, publishes the very same bytes, and the store reopens with
   every row and scrubs clean. *)
let test_checkpoint_eio_retried () =
  List.iter
    (fun site ->
       Fault.reset ();
       let dir = fresh_dir () in
       let p = fixed_store dir in
       let retries () = Nbsc_obs.Obs.Counter.value (Disk_format.io_retries ()) in
       let before = retries () in
       Fault.arm
         ~mode:(Fault.Io_error { errno = Fault.EIO; transient = true })
         site;
       H.ok_p (site ^ ": checkpoint") (Persist.checkpoint p);
       Fault.reset ();
       Alcotest.(check bool) (site ^ ": retry counted") true
         (retries () > before);
       let tables = [ "R"; "S"; "T"; "v" ] in
       let images = List.map (Db.snapshot (Persist.db p)) tables in
       Persist.close p;
       check_v2_bytes (site ^ ": ") dir;
       (match Scrub.verify_dir ~dir with
        | Ok r -> Alcotest.(check bool) (site ^ ": scrubs clean") true (Scrub.ok r)
        | Error e -> Alcotest.failf "%s: scrub: %a" site Persist.pp_error e);
       let p2 = H.ok_p (site ^ ": reopen") (Persist.open_dir ~dir) in
       List.iter2
         (fun table want ->
            H.check_relations_equal (site ^ ": " ^ table) want
              (Db.snapshot (Persist.db p2) table))
         tables images;
       Persist.close p2;
       H.wipe dir)
    [ "snapshot_write"; "wal_rewrite" ]

(* {1 What a checkpoint writes while a change is in flight}

   A resume drops and refills the targets of a change saved while it
   populates, so a checkpoint taken then writes their definitions but
   none of their rows. Once population is over it writes every target
   row, and the resumed change scans nothing. Either way the sources
   are written whole, and the resumed change converges to its
   relational oracle. *)

module Spec = Nbsc_core.Spec
module Transform = Nbsc_core.Transform
module Relalg = Nbsc_relalg.Relalg

type op = {
  op_spec : Spec.any;
  op_targets : string list;
  op_load : Db.t -> unit;  (* create and fill the sources *)
  op_row : int -> string * Row.t;  (* a fresh source row for key [k] *)
  op_oracle : Db.t -> (string * Relalg.t) list;
}

let load_table db name schema rows =
  ignore (Db.create_table db ~name schema);
  H.ok ("load " ^ name) (Db.load db ~table:name rows)

let load_t db = load_table db "T" H.t_flat_schema (H.seed_t_rows ~n:30)

let t_row k = ("T", H.ti k "w" (k mod 13) (H.city_of (k mod 13)))

let hpred = Pred.Cmp ("c", Pred.Gt, Value.Int 6)

let ops =
  [ ( "foj",
      { op_spec = Spec.Foj H.foj_spec;
        op_targets = [ "T" ];
        op_load =
          (fun db ->
             let r, s = H.seed_rows ~r:30 ~s:12 in
             load_table db "R" H.r_schema r;
             load_table db "S" H.s_schema s);
        op_row = (fun k -> ("R", H.ri k "w" (k mod 17)));
        op_oracle = (fun db -> [ ("T", H.foj_oracle db) ]) } );
    ( "split",
      { op_spec = Spec.Split (H.split_spec ~assume_consistent:true);
        op_targets = [ "R"; "S" ];
        op_load = load_t;
        op_row = t_row;
        op_oracle =
          (fun db ->
             let r, s = H.split_oracle db in
             [ ("R", r); ("S", s) ]) } );
    ( "hsplit",
      { op_spec =
          Spec.Hsplit
            { Spec.h_source = "T";
              h_true_table = "archive";
              h_false_table = "live";
              h_pred = hpred };
        op_targets = [ "archive"; "live" ];
        op_load = load_t;
        op_row = t_row;
        op_oracle =
          (fun db ->
             let t = Db.snapshot db "T" in
             let p = Pred.compile H.t_flat_schema hpred in
             [ ("archive", Relalg.select t p);
               ("live", Relalg.select t (fun row -> not (p row))) ]) } );
    ( "merge",
      { op_spec = Spec.Merge { Spec.m_sources = [ "A"; "B" ]; m_target = "AB" };
        op_targets = [ "AB" ];
        op_load =
          (fun db ->
             load_table db "A" H.t_flat_schema
               (List.init 20 (fun i -> H.ti i "a" (i mod 5) "x"));
             load_table db "B" H.t_flat_schema
               (List.init 12 (fun i -> H.ti (100 + i) "b" (i mod 5) "y")));
        op_row = (fun k -> ("A", H.ti k "w" (k mod 5) "x"));
        op_oracle =
          (fun db ->
             let a = Db.snapshot db "A" and b = Db.snapshot db "B" in
             [ ("AB", Relalg.make H.t_flat_schema (a.Relalg.rows @ b.Relalg.rows))
             ]) } ) ]

(* Every [(kind, table)] of snapshot.nbsc's payload lines but its head
   and trailer, in file order. *)
let snapshot_lines dir =
  List.filter_map
    (fun payload ->
       match payload.[0] with
       | 'H' -> None
       | kind ->
         let fields =
           Codec.decode_string_list
             (String.sub payload 2 (String.length payload - 2))
         in
         Some (kind, List.hd fields))
    (payloads (H.read_file (Disk_format.snapshot_path dir)))

let test_checkpoint_in_flight ~populating () =
  List.iter
    (fun (name, op) ->
       Fault.reset ();
       let dir = fresh_dir () in
       let p = H.ok_p "create" (Persist.create_dir ~dir) in
       let db = Persist.db p in
       op.op_load db;
       H.ok_p "ddl checkpoint" (Persist.checkpoint p);
       let options =
         { Nbsc_core.Options.default with
           Nbsc_core.Options.scan_batch = 4; propagate_batch = 4;
           drop_sources = false }
       in
       let tf = H.start db ~options op.op_spec in
       let key = ref 1000 in
       let commit () =
         incr key;
         let table, row = op.op_row !key in
         H.ok "commit" (Db.load db ~table [ row ])
       in
       let empty () = List.for_all (fun t -> Db.row_count db t = 0) op.op_targets in
       let step () =
         ignore (Transform.step tf);
         commit ()
       in
       if populating then while empty () do step () done
       else while Transform.phase tf = Transform.Populating do step () done;
       Alcotest.(check (pair bool bool)) (name ^ ": populating, targets empty")
         (populating, false)
         (Transform.phase tf = Transform.Populating, empty ());
       H.ok_p (name ^ ": checkpoint") (Persist.checkpoint p);
       let lines = snapshot_lines dir in
       let count kind table =
         List.length (List.filter (( = ) (kind, table)) lines)
       in
       List.iter
         (fun table ->
            let tbl = Db.table db table in
            let written = if populating then 0 else Table.cardinality tbl in
            Alcotest.(check (list int)) (name ^ ": lines of " ^ table)
              [ 1; List.length (Table.index_definitions tbl); written ]
              [ count 'T' table; count 'I' table; count 'R' table ])
         op.op_targets;
       List.iter
         (fun tbl ->
            let table = Table.name tbl in
            if not (List.mem table op.op_targets) then
              Alcotest.(check int) (name ^ ": rows of source " ^ table)
                (Table.cardinality tbl) (count 'R' table))
         (Catalog.tables (Db.catalog db));
       (* A commit the checkpoint did not see, then the crash. *)
       commit ();
       Persist.crash p;
       let p2 = H.ok_p (name ^ ": reopen") (Persist.open_dir ~dir) in
       let db2 = Persist.db p2 in
       (match Transform.resume ~options p2 with
        | Ok [ tf2 ] ->
          Alcotest.(check bool) (name ^ ": resumed populating") populating
            (Transform.phase tf2 = Transform.Populating);
          (match Db.run_jobs db2 with
           | Ok () -> ()
           | Error m -> Alcotest.failf "%s: %s" name m);
          if not populating then
            Alcotest.(check int) (name ^ ": no re-scan") 0
              (Transform.progress tf2).Transform.scanned
        | Ok tfs ->
          Alcotest.failf "%s: expected one job, got %d" name (List.length tfs)
        | Error e -> Alcotest.failf "%s: %s" name (Nbsc_error.to_string e));
       List.iter
         (fun (table, want) ->
            H.check_relations_equal (name ^ ": " ^ table) want
              (Db.snapshot db2 table))
         (op.op_oracle db2);
       Persist.close p2;
       H.wipe dir)
    ops

(* Property: for a random history of committed transactions plus a
   random in-flight tail at the "crash", reopening yields exactly the
   committed state. *)
let prop_reopen_equals_committed =
  QCheck.Test.make ~name:"reopen = committed prefix" ~count:25
    QCheck.(pair (list_of_size Gen.(int_range 1 12)
                    (triple (int_bound 10) (int_bound 2) bool))
              (list_of_size Gen.(int_bound 5) (pair (int_bound 10) (int_bound 2))))
    (fun (committed_ops, tail_ops) ->
       let dir = fresh_dir () in
       let p = match Persist.create_dir ~dir with
         | Ok p -> p
         | Error _ -> QCheck.Test.fail_report "create_dir failed"
       in
       setup_orders p;
       let mgr = Db.manager (Persist.db p) in
       let run_op txn (a, action) =
         ignore
           (match action with
            | 0 -> Manager.insert mgr ~txn ~table:"t" (H.ri a "v" a)
            | 1 ->
              Manager.update mgr ~txn ~table:"t"
                ~key:(Row.make [ Value.Int a ]) [ (1, Value.Text "u") ]
            | _ ->
              Manager.delete mgr ~txn ~table:"t"
                ~key:(Row.make [ Value.Int a ]))
       in
       List.iter
         (fun (a, action, commit) ->
            let txn = Manager.begin_txn mgr in
            run_op txn (a, action);
            ignore
              (if commit then Manager.commit mgr txn
               else Manager.abort mgr txn))
         committed_ops;
       let committed_image = rows p in
       (* The crash tail: one transaction that never finishes. *)
       (if tail_ops <> [] then begin
          let txn = Manager.begin_txn mgr in
          List.iter (run_op txn) tail_ops
        end);
       (* Crash: abandon without closing. *)
       let p2 = match Persist.open_dir ~dir with
         | Ok p2 -> p2
         | Error _ -> QCheck.Test.fail_report "open_dir failed"
       in
       let got = rows p2 in
       Persist.close p2;
       H.wipe dir;
       List.length got = List.length committed_image
       && List.for_all2 Row.equal got committed_image)

(* The snapshot writes every integer as digits of its own. Rows holding
   both extremes and integers of every digit count, with counters and
   aux values drawn from the same list, must come back from a
   checkpoint and a reopen record for record. *)
let test_extreme_integers_survive () =
  let dir = fresh_dir () in
  let p = H.ok_p "create" (Persist.create_dir ~dir) in
  let db = Persist.db p in
  let table = Db.create_table db ~name:"t" H.r_schema in
  let lsn = Nbsc_wal.Log.head (Db.log db) in
  let ints =
    [ min_int; max_int; 0; -1; 9; -10; 4_220; -4_220; 99_999; -100_000;
      123_456_789; -9_876_543_210; 1_000_000_000_000_000; max_int / 7;
      min_int / 3; min_int + 1 ]
  in
  let n = List.length ints in
  List.iteri
    (fun i x ->
       match
         Table.insert table ~lsn
           ~counter:(List.nth ints ((i + 1) mod n))
           ~flag:(if i mod 2 = 0 then Record.Consistent else Record.Unknown)
           ~aux:(List.nth ints ((i + 2) mod n))
           (H.ri x (string_of_int x) (lnot x))
       with
       | Ok () -> ()
       | Error `Duplicate_key -> Alcotest.failf "duplicate key %d" x)
    ints;
  let records p =
    Table.fold (Db.table (Persist.db p) "t") ~init:[] ~f:(fun acc _ r ->
        ( Row.to_string r.Record.row,
          (r.Record.counter, r.Record.aux, r.Record.flag = Record.Consistent) )
        :: acc)
    |> List.sort compare
  in
  let before = records p in
  Alcotest.(check int) "every row" n (List.length before);
  H.ok_p "checkpoint" (Persist.checkpoint p);
  Persist.close p;
  let p2 = H.ok_p "reopen" (Persist.open_dir ~dir) in
  Alcotest.(check (list (pair string (triple int int bool))))
    "rows, counters, aux values and flags" before (records p2);
  Persist.close p2;
  H.wipe dir

let () =
  Random.self_init ();
  Alcotest.run "persist"
    [ ( "persist",
        [ Alcotest.test_case "journal and reopen" `Quick test_journal_and_reopen;
          Alcotest.test_case "crash rolls back losers" `Quick
            test_crash_rolls_back_losers;
          Alcotest.test_case "checkpoint truncates" `Quick
            test_checkpoint_truncates;
          Alcotest.test_case "create refuses existing" `Quick
            test_create_refuses_existing;
          Alcotest.test_case "corrupt wal detected" `Quick
            test_corrupt_wal_detected;
          Alcotest.test_case "torn wal tail tolerated" `Quick
            test_torn_tail_tolerated;
          Alcotest.test_case "snapshot replace is atomic" `Quick
            test_snapshot_replace_is_atomic;
          Alcotest.test_case "bad prev_lsn is corrupt" `Quick
            test_bad_prev_lsn_is_corrupt;
          Alcotest.test_case "orphan tmp files removed" `Quick
            test_orphan_tmp_removed;
          Alcotest.test_case "legacy watermarks recover" `Quick
            test_watermarks_recover;
          Alcotest.test_case "v2 bytes are stable" `Quick test_v2_bytes_stable;
          Alcotest.test_case "extreme integers survive a checkpoint" `Quick
            test_extreme_integers_survive;
          Alcotest.test_case
            "transient EIO while writing a checkpoint is retried" `Quick
            test_checkpoint_eio_retried;
          Alcotest.test_case
            "checkpoint while populating leaves out the target rows" `Quick
            (test_checkpoint_in_flight ~populating:true);
          Alcotest.test_case
            "checkpoint after population writes every target row" `Quick
            (test_checkpoint_in_flight ~populating:false) ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_reopen_equals_committed ] ) ]
