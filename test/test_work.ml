(* Work counts of three fixed-seed scenarios, pinned as literals.

   Each scenario runs an FOJ change under a live workload and counts
   the work it did: quanta, rows, log records, row versions, refused
   operations, words allocated. For a given seed these repeat exactly,
   so a change to the engine that does more (or less) work fails here
   on every run, where a throughput floor would pass or fail with the
   host's load. A change that moves one of these counts on purpose
   updates the literal and says why. *)

open Nbsc_value
open Nbsc_core
module H = Helpers
module Manager = Nbsc_txn.Manager
module Persist = Nbsc_engine.Persist
module Obs = Nbsc_obs.Obs

let step_ok what tf =
  match Transform.step tf with
  | `Running -> false
  | `Done -> true
  | `Failed m -> Alcotest.failf "%s: %s" what m

(* R(a, b, c) with [n] rows, c cycling over S's [n * 2 / 5] keys, and
   S(c, d), loaded in chunks of 2 048 rows. *)
let seed_sources db n =
  let ns = n * 2 / 5 in
  ignore (Db.create_table db ~name:"R" H.r_schema);
  ignore (Db.create_table db ~name:"S" H.s_schema);
  let load table rows =
    match Db.load db ~table rows with
    | Ok () -> ()
    | Error e -> Alcotest.failf "load %s: %a" table Manager.pp_error e
  in
  let rec chunked lo hi f =
    if lo <= hi then begin
      f lo (min hi (lo + 2047));
      chunked (lo + 2048) hi f
    end
  in
  chunked 1 n (fun lo hi ->
      load "R"
        (List.init (hi - lo + 1) (fun i ->
             let k = lo + i in
             Row.make
               [ Value.Int k; Value.Text ("r" ^ string_of_int k);
                 Value.Int ((k mod ns) + 1) ])));
  chunked 1 ns (fun lo hi ->
      load "S"
        (List.init (hi - lo + 1) (fun i ->
             let k = lo + i in
             Row.make [ Value.Int k; Value.Text ("s" ^ string_of_int k) ])))

let check_oracle what db =
  H.check_relations_equal what (H.foj_oracle db) (Db.snapshot db "T")

(* One single-operation transaction: 40 % locked updates, 30 % locked
   reads, 30 % snapshot reads of R. *)
let single_op_txn db rng ~rows =
  let mgr = Db.manager db in
  let k = Row.make [ Value.Int (1 + Random.State.int rng rows) ] in
  match Random.State.int rng 100 with
  | d when d < 40 ->
    Db.with_txn db (fun txn ->
        Manager.update mgr ~txn ~table:"R" ~key:k
          [ (1, Value.Text ("u" ^ string_of_int d)) ])
  | d when d < 70 ->
    Db.with_txn db (fun txn ->
        Result.map ignore (Manager.read mgr ~txn ~table:"R" ~key:k))
  | _ ->
    Db.with_txn ~isolation:`Snapshot db (fun txn ->
        Result.map ignore (Manager.read mgr ~txn ~table:"R" ~key:k))

(* {1 Engine mix}

   A durable store with an FOJ change of a 3 000-row R and a 1 200-row
   S: population, a drained 300-transaction backlog, then 1 500
   eight-operation transactions under group commit 32 with one job step
   after each, then the gate opens and the change runs to Done. *)

(* 6 509.3 words per committed transaction when this ceiling was set,
   plus 5 %. The figure repeats exactly at the default minor heap size;
   it moves with OCAMLRUNPARAM's [s] (6 621.0 at [s=64k]). *)
let alloc_ceiling = 6_834.

let metric obs name =
  match Obs.Registry.find obs name with
  | Some (Obs.Gauge_v v) -> int_of_float v
  | Some (Obs.Counter_v n) -> n
  | _ -> Alcotest.failf "no metric %s" name

let test_engine_mix () =
  let scale = 3_000 in
  let s_count = scale * 2 / 5 in
  let dir = Filename.temp_dir "nbsc_work" "" in
  let p = H.ok_p "create" (Persist.create_dir ~dir) in
  let db = Persist.db p in
  let mgr = Db.manager db in
  seed_sources db scale;
  let gate_open = ref false in
  let options =
    { Options.default with
      Options.scan_batch = 512;
      propagate_batch = 512;
      sync_lag = 64;
      drop_sources = false;
      sync_gate = (fun () -> !gate_open) }
  in
  let tf = H.start db ~options (Spec.Foj H.foj_spec) in
  while Transform.phase tf = Transform.Populating do
    ignore (step_ok "populate" tf)
  done;
  let populated = (Transform.progress tf).Transform.produced in
  (* Updates dominate, split across R's non-join column, its join
     column (the rekeying rule) and S; a slice of inserts grows R past
     the initial scan. *)
  let rng = Random.State.make [| 42 |] in
  let next_r = ref scale in
  let failed = ref 0 in
  let run_txn () =
    match
      Db.with_txn db (fun txn ->
          let rec ops n =
            if n = 0 then Ok ()
            else
              let r =
                match Random.State.int rng 100 with
                | d when d < 45 ->
                  let k = Row.make [ Value.Int (1 + Random.State.int rng scale) ] in
                  Manager.update mgr ~txn ~table:"R" ~key:k
                    [ (1, Value.Text ("u" ^ string_of_int n)) ]
                | d when d < 60 ->
                  let k = Row.make [ Value.Int (1 + Random.State.int rng scale) ] in
                  Manager.update mgr ~txn ~table:"R" ~key:k
                    [ (2, Value.Int (1 + Random.State.int rng s_count)) ]
                | d when d < 75 ->
                  let k =
                    Row.make [ Value.Int (1 + Random.State.int rng s_count) ]
                  in
                  Manager.update mgr ~txn ~table:"S" ~key:k
                    [ (1, Value.Text ("v" ^ string_of_int n)) ]
                | d when d < 90 ->
                  incr next_r;
                  Manager.insert mgr ~txn ~table:"R"
                    (Row.make
                       [ Value.Int !next_r;
                         Value.Text ("r" ^ string_of_int !next_r);
                         Value.Int (1 + Random.State.int rng s_count) ])
                | _ ->
                  let k = Row.make [ Value.Int (1 + Random.State.int rng scale) ] in
                  Result.map ignore (Manager.read mgr ~txn ~table:"R" ~key:k)
              in
              match r with Ok () -> ops (n - 1) | Error e -> Error e
          in
          ops 8)
    with
    | Ok () -> ()
    | Error _ -> incr failed
  in
  for _ = 1 to 300 do
    run_txn ()
  done;
  let lag = (Transform.progress tf).Transform.lag in
  while (Transform.progress tf).Transform.lag > 0 do
    ignore (step_ok "drain" tf)
  done;
  Manager.set_group_commit mgr 32;
  let commits0 = (Manager.Stats.get mgr).Manager.Stats.commits in
  let words () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let words0 = words () in
  for _ = 1 to 1_500 do
    run_txn ();
    ignore (Db.step_jobs db)
  done;
  Manager.flush_commits mgr;
  Manager.set_group_commit mgr 1;
  let words1 = words () in
  let commits = (Manager.Stats.get mgr).Manager.Stats.commits - commits0 in
  let obs = Manager.obs mgr in
  let wal_records = metric obs "wal.records" in
  let versions_live = metric obs "storage.versions_live" in
  let versions_reclaimed = metric obs "storage.versions_reclaimed" in
  gate_open := true;
  (match Db.run_jobs db with
   | Ok () -> ()
   | Error m -> Alcotest.failf "run to Done: %s" m);
  Alcotest.(check bool) "change done" true (Transform.phase tf = Transform.Done);
  let t_rows = Db.row_count db "T" in
  check_oracle "T = foj(R, S)" db;
  H.ok_p "checkpoint" (Persist.checkpoint p);
  Persist.close p;
  H.wipe dir;
  Alcotest.(check int) "populated rows" 3_000 populated;
  Alcotest.(check int) "backlog lag" 2_749 lag;
  Alcotest.(check int) "failed transactions" 0 !failed;
  Alcotest.(check int) "commits in the mix" 1_500 commits;
  Alcotest.(check int) "wal.records" 20_730 wal_records;
  Alcotest.(check int) "storage.versions_live" 0 versions_live;
  Alcotest.(check int) "storage.versions_reclaimed" 10_720 versions_reclaimed;
  Alcotest.(check int) "T rows" 5_215 t_rows;
  let per_txn = (words1 -. words0) /. float_of_int commits in
  Printf.printf "%.1f words allocated per transaction\n" per_txn;
  if per_txn > alloc_ceiling then
    Alcotest.failf "%.1f words allocated per transaction, ceiling %.0f" per_txn
      alloc_ceiling

(* {1 Migration strategies}

   The same FOJ change of a 10 000-row R and a 4 000-row S under eager,
   lazy and hybrid initial-image migration, one single-operation
   transaction after each quantum. The strategy moves work between the
   change's quanta and user operations; T's contents must not move. *)

let migrate_arm migration =
  let scale = 10_000 in
  let db = Db.create () in
  seed_sources db scale;
  let options =
    Options.{ default with scan_batch = 256; propagate_batch = 256;
              strategy = migration; drop_sources = false }
  in
  let tf = H.start db ~options (Spec.Foj H.foj_spec) in
  let rng = Random.State.make [| 7 |] in
  let quanta = ref 0 and populate_quanta = ref 0 in
  let finished = ref false in
  while not !finished do
    finished := step_ok "migrate" tf;
    incr quanta;
    if !populate_quanta = 0 && Transform.phase tf <> Transform.Populating then
      populate_quanta := !quanta;
    if not !finished then ignore (single_op_txn db rng ~rows:scale);
    if !quanta > scale * 20 then Alcotest.fail "did not converge"
  done;
  check_oracle "T = foj(R, S)" db;
  (!quanta, !populate_quanta, Transform.demand_migrations tf)

let test_migration_strategies () =
  List.iter
    (fun (label, migration, expected) ->
       Alcotest.(check (triple int int int))
         (label ^ ": quanta to Done, to end of population, demand migrations")
         expected (migrate_arm migration))
    [ ("eager", Options.Eager, (59, 57, 0));
      ("lazy", Options.Lazy, (14_134, 14_000, 13_999));
      ("hybrid", Options.Hybrid { sweep_quantum = 64 }, (224, 220, 219)) ]

(* {1 Paper vs shadow table}

   The same FOJ change of an 8 000-row R and a 3 200-row S by the
   paper's method and by the shadow-table baseline (audit trigger plus
   latched chunked backfill), ten single-operation transactions after
   each quantum. Then each is crashed on a 1 000-row durable store and
   resumed: the paper's job continues from its checkpointed position,
   the shadow table has no durable job state and starts over. *)

module Shadow = Nbsc_baseline.Shadow_table

let compare_scale = 8_000
let mini = 1_000

let options =
  Options.{ default with scan_batch = 256; propagate_batch = 256;
            drop_sources = false }

let mini_options = { options with Options.scan_batch = 32; propagate_batch = 32 }

(* Quanta to Done and refused transactions under the workload. *)
let under_load db ~step =
  let rng = Random.State.make [| 11 |] in
  let quanta = ref 0 and refused = ref 0 in
  let finished = ref false in
  while not !finished do
    finished := step ();
    incr quanta;
    if not !finished then
      for _ = 1 to 10 do
        match single_op_txn db rng ~rows:compare_scale with
        | Ok () -> ()
        | Error _ -> incr refused
      done;
    if !quanta > compare_scale * 30 then Alcotest.fail "did not converge"
  done;
  check_oracle "T = foj(R, S)" db;
  (!quanta, !refused)

let mini_traffic db rng =
  let mgr = Db.manager db in
  let k = Row.make [ Value.Int (1 + Random.State.int rng mini) ] in
  ignore
    (Db.with_txn db (fun txn ->
         Manager.update mgr ~txn ~table:"R" ~key:k [ (1, Value.Text "crashy") ]))

(* A checkpointed store of the mini sources, run through [f], which
   crashes it and returns the quanta its reopened copy took. *)
let on_mini_store f =
  let dir = Filename.temp_dir "nbsc_work" "" in
  let p = H.ok_p "create" (Persist.create_dir ~dir) in
  seed_sources (Persist.db p) mini;
  H.ok_p "checkpoint" (Persist.checkpoint p);
  let quanta = f dir p in
  H.wipe dir;
  quanta

let resume_quanta_paper dir p =
  let db = Persist.db p in
  let tf = H.start db ~options:mini_options (Spec.Foj H.foj_spec) in
  let rng = Random.State.make [| 23 |] in
  while Transform.phase tf = Transform.Populating do
    ignore (step_ok "populate" tf);
    mini_traffic db rng
  done;
  H.ok_p "checkpoint" (Persist.checkpoint p);
  for _ = 1 to 8 do
    ignore (Transform.step tf);
    mini_traffic db rng
  done;
  Persist.crash p;
  let p2 = H.ok_p "reopen" (Persist.open_dir ~dir) in
  let tf2 =
    match Transform.resume ~options:mini_options p2 with
    | Ok [ tf2 ] -> tf2
    | Ok l -> Alcotest.failf "resume: %d jobs" (List.length l)
    | Error e -> Alcotest.failf "resume: %s" (Nbsc_error.to_string e)
  in
  let quanta = ref 1 in
  while not (step_ok "resumed" tf2) do
    incr quanta;
    if !quanta > mini * 30 then Alcotest.fail "resume stuck"
  done;
  check_oracle "resumed T = foj(R, S)" (Persist.db p2);
  Persist.close p2;
  !quanta

let resume_quanta_shadow dir p =
  let db = Persist.db p in
  let sh =
    Shadow.create db ~drop_sources:false ~chunk:32
      (Transformation.foj ~options:mini_options db H.foj_spec)
  in
  let rng = Random.State.make [| 23 |] in
  while Shadow.backfilled sh < mini / 2 do
    ignore (Shadow.step sh ~limit:32);
    mini_traffic db rng
  done;
  H.ok_p "checkpoint" (Persist.checkpoint p);
  Persist.crash p;
  let p2 = H.ok_p "reopen" (Persist.open_dir ~dir) in
  let db2 = Persist.db p2 in
  (* No durable job state: drop the half-built target and start over. *)
  Nbsc_storage.Catalog.drop (Db.catalog db2) "T";
  let sh2 =
    Shadow.create db2 ~drop_sources:false ~chunk:32
      (Transformation.foj ~options:mini_options db2 H.foj_spec)
  in
  let quanta = ref 0 in
  while not (Shadow.step sh2 ~limit:32) do
    incr quanta;
    if !quanta > mini * 30 then Alcotest.fail "shadow stuck"
  done;
  check_oracle "restarted T = foj(R, S)" db2;
  Persist.close p2;
  !quanta

let test_paper_vs_shadow () =
  let shadow =
    let db = Db.create () in
    seed_sources db compare_scale;
    let sh =
      Shadow.create db ~drop_sources:false ~chunk:256
        (Transformation.foj ~options db H.foj_spec)
    in
    let quanta, refused =
      under_load db ~step:(fun () -> Shadow.step sh ~limit:256)
    in
    (quanta, refused, on_mini_store resume_quanta_shadow)
  in
  let paper =
    let db = Db.create () in
    seed_sources db compare_scale;
    let tf = H.start db ~options (Spec.Foj H.foj_spec) in
    let quanta, refused = under_load db ~step:(fun () -> step_ok "paper" tf) in
    (quanta, refused, on_mini_store resume_quanta_paper)
  in
  let check label =
    Alcotest.(check (triple int int int))
      (label ^ ": quanta to Done, refused, crash-resume quanta")
  in
  check "paper" (52, 8, 6) paper;
  check "shadow" (495, 331, 92) shadow

let () =
  Alcotest.run "work"
    [ ( "work",
        [ Alcotest.test_case "engine mix" `Quick test_engine_mix;
          Alcotest.test_case "migration strategies" `Quick
            test_migration_strategies;
          Alcotest.test_case "paper vs shadow" `Quick test_paper_vs_shadow ] ) ]
