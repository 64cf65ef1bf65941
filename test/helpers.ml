(* Shared fixtures and drivers for the test suites. *)

open Nbsc_value
open Nbsc_storage
open Nbsc_txn
open Nbsc_core

let col = Schema.column

let ok name = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %a" name Manager.pp_error e

let ok_p name = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %a" name Nbsc_engine.Persist.pp_error e

(* A store directory holds files only, so one level of removal empties
   it. *)
let wipe dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* The seed of the crash and integrity suites. *)
let crash_seed =
  match Sys.getenv_opt "NBSC_CRASH_SEED" with
  | Some s -> (try int_of_string s with Failure _ -> 42)
  | None -> 42

(* A store directory of its own for one test: [fresh_dir suite] names
   it [nbsc_<suite>_<n>_<suffix>] under the temp directory. No unix
   dependency: uniqueness from a counter and a random suffix. The
   suffix comes from a generator of its own: building a QCheck case
   reseeds the global one from the clock unless QCHECK_SEED is set. So
   the names follow from NBSC_CRASH_SEED alone, and a directory a
   failed run left behind under the same name is removed first. *)
let fresh_dir =
  let rng = Random.State.make [| crash_seed |] and n = ref 0 in
  fun suite ->
    incr n;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "nbsc_%s_%d_%d" suite !n
           (Random.State.int rng 1_000_000))
    in
    wipe dir;
    dir

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* The running example: R(a,b,c) joined with S(c,d) on c — the shape of
   the paper's Figure 1 — and T(a,b,c,d) split back into R(a,b,c) and
   S(c,d) — the shape of Figure 3. *)

let r_schema =
  Schema.make ~key:[ "a" ]
    [ col ~nullable:false "a" Value.TInt; col "b" Value.TText;
      col "c" Value.TInt ]

let s_schema =
  Schema.make ~key:[ "c" ]
    [ col ~nullable:false "c" Value.TInt; col "d" Value.TText ]

let t_flat_schema =
  Schema.make ~key:[ "a" ]
    [ col ~nullable:false "a" Value.TInt; col "b" Value.TText;
      col "c" Value.TInt; col "d" Value.TText ]

let foj_spec =
  { Spec.r_table = "R";
    s_table = "S";
    t_table = "T";
    join_r = [ "c" ];
    join_s = [ "c" ];
    t_join = [ "c" ];
    r_carry = [ "a"; "b" ];
    s_carry = [ "d" ];
    many_to_many = false }

let split_spec ~assume_consistent =
  { Spec.t_table' = "T";
    r_table' = "R";
    s_table' = "S";
    r_cols = [ "a"; "b"; "c" ];
    s_cols = [ "c"; "d" ];
    split_key = [ "c" ];
    assume_consistent }

let ri a b c = Row.make [ Value.Int a; Value.Text b; Value.Int c ]
let si c d = Row.make [ Value.Int c; Value.Text d ]
let ti a b c d = Row.make [ Value.Int a; Value.Text b; Value.Int c; Value.Text d ]

let fresh_foj_db ~r_rows ~s_rows =
  let db = Db.create () in
  ignore (Db.create_table db ~name:"R" r_schema);
  ignore (Db.create_table db ~name:"S" s_schema);
  (match Db.load db ~table:"R" r_rows with
   | Ok () -> ()
   | Error e -> Alcotest.failf "load R: %a" Manager.pp_error e);
  (match Db.load db ~table:"S" s_rows with
   | Ok () -> ()
   | Error e -> Alcotest.failf "load S: %a" Manager.pp_error e);
  db

let fresh_split_db ~t_rows =
  let db = Db.create () in
  ignore (Db.create_table db ~name:"T" t_flat_schema);
  (match Db.load db ~table:"T" t_rows with
   | Ok () -> ()
   | Error e -> Alcotest.failf "load T: %a" Manager.pp_error e);
  db

(* Start a change through [Db.Schema_change.start] and return its bare
   executor; a rejected start fails the test. *)
let start db ?options spec =
  match Db.Schema_change.start db ?options spec with
  | Ok sc -> Db.Schema_change.transform sc
  | Error e -> Alcotest.failf "Schema_change.start: %s" (Nbsc_error.to_string e)

(* Oracle: T must converge to the full outer join of the final R and S. *)
let foj_oracle db =
  let r = Db.snapshot db "R" and s = Db.snapshot db "S" in
  Nbsc_relalg.Relalg.full_outer_join
    { Nbsc_relalg.Relalg.r_join = [ "c" ];
      s_join = [ "c" ];
      out_join = [ "c" ];
      r_cols = [ "a"; "b" ];
      s_cols = [ "d" ];
      out_key = [ "a" ] }
    r s

(* The relational split of T(a,b,c,d) into R(a,b,c) keyed by a and
   S(c,d) keyed by c. *)
let split_relalg =
  { Nbsc_relalg.Relalg.r_cols' = [ "a"; "b"; "c" ];
    s_cols' = [ "c"; "d" ];
    r_key = [ "a" ];
    s_key = [ "c" ] }

(* Oracle: R and S must converge to the split of the final T. *)
let split_oracle db = Nbsc_relalg.Relalg.split split_relalg (Db.snapshot db "T")

(* Oracle: T's rows that satisfy [pred], then the rest — the two
   targets of a horizontal split of T by [pred]. *)
let hsplit_oracle db pred =
  let t = Db.snapshot db "T" in
  let p = Pred.compile t_flat_schema pred in
  ( Nbsc_relalg.Relalg.select t p,
    Nbsc_relalg.Relalg.select t (fun row -> not (p row)) )

(* Merge: A (keys 0-29) and B (keys 100-119), both of T's shape,
   into AB. *)
let merge_spec = { Spec.m_sources = [ "A"; "B" ]; m_target = "AB" }
let merge_a_rows = List.init 30 (fun i -> ti i "a" (i mod 5) "x")
let merge_b_rows = List.init 20 (fun i -> ti (100 + i) "b" (i mod 5) "y")

let fresh_merge_db () =
  let db = Db.create () in
  ignore (Db.create_table db ~name:"A" t_flat_schema);
  ignore (Db.create_table db ~name:"B" t_flat_schema);
  ok "load A" (Db.load db ~table:"A" merge_a_rows);
  ok "load B" (Db.load db ~table:"B" merge_b_rows);
  db

(* Oracle: AB must converge to the union of the final A and B, whose
   keys stay disjoint. *)
let merge_oracle db =
  let a = Db.snapshot db "A" and b = Db.snapshot db "B" in
  Nbsc_relalg.Relalg.make t_flat_schema
    (a.Nbsc_relalg.Relalg.rows @ b.Nbsc_relalg.Relalg.rows)

(* Many-to-many FOJ: person P(pid, city) and store Q(sid, city, chain)
   joined on city into T, where both sides repeat join values. *)
let p_schema =
  Schema.make ~key:[ "pid" ]
    [ col ~nullable:false "pid" Value.TInt; col "city" Value.TInt ]

let q_schema =
  Schema.make ~key:[ "sid" ]
    [ col ~nullable:false "sid" Value.TInt; col "city" Value.TInt;
      col "chain" Value.TText ]

let m2m_spec =
  { Spec.r_table = "P";
    s_table = "Q";
    t_table = "T";
    join_r = [ "city" ];
    join_s = [ "city" ];
    t_join = [ "city" ];
    r_carry = [ "pid" ];
    s_carry = [ "sid"; "chain" ];
    many_to_many = true }

let pi pid city = Row.make [ Value.Int pid; Value.Int city ]
let qi sid city chain = Row.make [ Value.Int sid; Value.Int city; Value.Text chain ]

(* 60 persons and 25 stores over 7 cities. *)
let fresh_m2m_db () =
  let db = Db.create () in
  ignore (Db.create_table db ~name:"P" p_schema);
  ignore (Db.create_table db ~name:"Q" q_schema);
  ok "load P" (Db.load db ~table:"P" (List.init 60 (fun i -> pi i (i mod 7))));
  ok "load Q"
    (Db.load db ~table:"Q"
       (List.init 25 (fun i -> qi i (i mod 7) ("c" ^ string_of_int i))));
  db

(* Oracle: T must converge to the many-to-many full outer join of the
   final P and Q. *)
let m2m_oracle db =
  Nbsc_relalg.Relalg.full_outer_join
    { Nbsc_relalg.Relalg.r_join = [ "city" ];
      s_join = [ "city" ];
      out_join = [ "city" ];
      r_cols = [ "pid" ];
      s_cols = [ "sid"; "chain" ];
      out_key = [ "pid"; "sid" ] }
    (Db.snapshot db "P") (Db.snapshot db "Q")

let check_relations_equal msg expected actual =
  if not (Nbsc_relalg.Relalg.equal_as_sets expected actual) then begin
    let only_e, only_a = Nbsc_relalg.Relalg.diff_as_sets expected actual in
    Alcotest.failf "%s:@.only in expected: %s@.only in actual: %s" msg
      (String.concat "; " (List.map Row.to_string only_e))
      (String.concat "; " (List.map Row.to_string only_a))
  end

(* A deterministic workload driver: single-operation auto-committed
   transactions against the routed schema version. *)
type driver = {
  db : Db.t;
  rng : Random.State.t;
  mutable next_r_key : int;
  mutable next_s_key : int;
  mutable ops_done : int;
}

let driver ?(seed = 42) db =
  { db;
    rng = Random.State.make [| seed |];
    next_r_key = 1_000_000;
    next_s_key = 1_000_000;
    ops_done = 0 }

let existing_key d table =
  match Catalog.find_opt (Db.catalog d.db) table with
  | None -> None
  | Some tbl ->
    let n = Table.cardinality tbl in
    if n = 0 then None
    else begin
      let target = Random.State.int d.rng n in
      let i = ref 0 in
      let found = ref None in
      (try
         Table.iter tbl (fun key _ ->
             if !i = target then begin
               found := Some key;
               raise Exit
             end;
             incr i)
       with Exit -> ());
      !found
    end

let run_txn d f =
  let mgr = Db.manager d.db in
  let txn = Manager.begin_txn mgr in
  match f txn with
  | Ok () ->
    (match Manager.commit mgr txn with
     | Ok () ->
       d.ops_done <- d.ops_done + 1;
       true
     | Error _ ->
       ignore (Manager.abort mgr txn);
       false)
  | Error _ ->
    ignore (Manager.abort mgr txn);
    false

(* One random mutation against table R of the FOJ fixture. *)
let random_r_op d =
  let mgr = Db.manager d.db in
  ignore
    (run_txn d (fun txn ->
         match Random.State.int d.rng 4 with
         | 0 ->
           d.next_r_key <- d.next_r_key + 1;
           let c = Random.State.int d.rng 40 in
           Manager.insert mgr ~txn ~table:"R"
             (ri d.next_r_key ("u" ^ string_of_int d.next_r_key) c)
         | 1 ->
           (match existing_key d "R" with
            | Some key -> Manager.delete mgr ~txn ~table:"R" ~key
            | None -> Ok ())
         | 2 ->
           (* join-attribute update: the interesting rule 5 path *)
           (match existing_key d "R" with
            | Some key ->
              Manager.update mgr ~txn ~table:"R" ~key
                [ (2, Value.Int (Random.State.int d.rng 40)) ]
            | None -> Ok ())
         | _ ->
           (match existing_key d "R" with
            | Some key ->
              Manager.update mgr ~txn ~table:"R" ~key
                [ (1, Value.Text ("w" ^ string_of_int (Random.State.int d.rng 1000))) ]
            | None -> Ok ())))

let random_s_op d =
  let mgr = Db.manager d.db in
  ignore
    (run_txn d (fun txn ->
         match Random.State.int d.rng 4 with
         | 0 ->
           d.next_s_key <- d.next_s_key + 1;
           Manager.insert mgr ~txn ~table:"S"
             (si d.next_s_key ("v" ^ string_of_int d.next_s_key))
         | 1 ->
           (match existing_key d "S" with
            | Some key -> Manager.delete mgr ~txn ~table:"S" ~key
            | None -> Ok ())
         | _ ->
           (match existing_key d "S" with
            | Some key ->
              Manager.update mgr ~txn ~table:"S" ~key
                [ (1, Value.Text ("z" ^ string_of_int (Random.State.int d.rng 1000))) ]
            | None -> Ok ())))

(* One random mutation against the flat T of the split fixture.
   [consistent] keeps the c->d functional dependency intact by deriving
   d from c. *)
let city_of c = "city" ^ string_of_int c

let random_t_op ?(consistent = true) d =
  let mgr = Db.manager d.db in
  ignore
    (run_txn d (fun txn ->
         match Random.State.int d.rng 4 with
         | 0 ->
           d.next_r_key <- d.next_r_key + 1;
           let c = Random.State.int d.rng 40 in
           let dv =
             if consistent then city_of c
             else "noise" ^ string_of_int (Random.State.int d.rng 1000)
           in
           Manager.insert mgr ~txn ~table:"T"
             (ti d.next_r_key ("u" ^ string_of_int d.next_r_key) c dv)
         | 1 ->
           (match existing_key d "T" with
            | Some key -> Manager.delete mgr ~txn ~table:"T" ~key
            | None -> Ok ())
         | 2 ->
           (* split-attribute update, keeping or breaking the FD *)
           (match existing_key d "T" with
            | Some key ->
              let c = Random.State.int d.rng 40 in
              let changes =
                if consistent then
                  [ (2, Value.Int c); (3, Value.Text (city_of c)) ]
                else [ (2, Value.Int c) ]
              in
              Manager.update mgr ~txn ~table:"T" ~key changes
            | None -> Ok ())
         | _ ->
           (match existing_key d "T" with
            | Some key ->
              Manager.update mgr ~txn ~table:"T" ~key
                [ (1, Value.Text ("w" ^ string_of_int (Random.State.int d.rng 1000))) ]
            | None -> Ok ())))

(* One random mutation against A or B of the merge fixture. The shared
   fresh-key counter keeps A and B keys disjoint. *)
let random_merge_op d =
  let mgr = Db.manager d.db in
  ignore
    (run_txn d (fun txn ->
         let table = if Random.State.bool d.rng then "A" else "B" in
         match Random.State.int d.rng 3 with
         | 0 ->
           d.next_r_key <- d.next_r_key + 1;
           Manager.insert mgr ~txn ~table
             (ti d.next_r_key "new" (Random.State.int d.rng 10) "z")
         | 1 ->
           (match existing_key d table with
            | Some key ->
              Manager.update mgr ~txn ~table ~key
                [ (1, Value.Text ("w" ^ string_of_int (Random.State.int d.rng 100))) ]
            | None -> Ok ())
         | _ ->
           (match existing_key d table with
            | Some key -> Manager.delete mgr ~txn ~table ~key
            | None -> Ok ())))

(* One random mutation against P or Q of the many-to-many fixture:
   inserts, deletes and moves between cities. *)
let random_m2m_op d =
  let mgr = Db.manager d.db in
  ignore
    (run_txn d (fun txn ->
         let table = if Random.State.bool d.rng then "P" else "Q" in
         let city = Random.State.int d.rng 9 in
         match Random.State.int d.rng 3 with
         | 0 when table = "P" ->
           d.next_r_key <- d.next_r_key + 1;
           Manager.insert mgr ~txn ~table (pi d.next_r_key city)
         | 0 ->
           d.next_s_key <- d.next_s_key + 1;
           Manager.insert mgr ~txn ~table
             (qi d.next_s_key city ("v" ^ string_of_int d.next_s_key))
         | 1 ->
           (match existing_key d table with
            | Some key -> Manager.update mgr ~txn ~table ~key [ (1, Value.Int city) ]
            | None -> Ok ())
         | _ ->
           (match existing_key d table with
            | Some key -> Manager.delete mgr ~txn ~table ~key
            | None -> Ok ())))

let seed_rows ~r ~s =
  ( List.init r (fun i -> ri (i + 1) ("name" ^ string_of_int i) (i mod 17)),
    List.init s (fun i -> si i ("d" ^ string_of_int i)) )

(* What a blocking build of the split index holds over T's current
   rows: a copy of T, indexed in one call. *)
let blocking_split_index db =
  let t = Db.table db "T" in
  let copy = Table.create ~name:"T_copy" (Table.schema t) in
  Table.iter t (fun _ r -> ignore (Table.insert copy ~lsn:r.Record.lsn r.Record.row));
  Table.add_index copy ~name:Spec.ix_t_split ~columns:[ "c" ];
  Table.index_entries copy ~index:Spec.ix_t_split

(* Whether T's split index refuses readers, as a partial one must. *)
let refuses_split_index db =
  match
    Table.index_lookup (Db.table db "T") ~index:Spec.ix_t_split
      (Row.make [ Value.Int 1 ])
  with
  | _ -> false
  | exception Invalid_argument _ -> true

let check_split_index what db =
  let entries = Alcotest.(list (pair (array string) (array string))) in
  let show =
    List.map (fun (p, k) -> (Array.map Value.to_string p, Array.map Value.to_string k))
  in
  Alcotest.check entries what
    (show (blocking_split_index db))
    (show (Table.index_entries (Db.table db "T") ~index:Spec.ix_t_split))

let seed_t_rows ~n =
  List.init n (fun i ->
      let c = i mod 13 in
      ti (i + 1) ("name" ^ string_of_int i) c (city_of c))
