(* Many-to-many full outer join (the paper's Sec. 4.2 extension).

     dune exec examples/many_to_many.exe

   person(pid, name, city) and store(sid, city, chain) are joined on
   city — many people and many stores share a city, so each source
   record contributes to several result records and the transformed
   table is keyed by (pid, sid). Concurrent movers (people changing
   city) exercise the many-to-many join-attribute-update rule, the
   heaviest rule in the framework. *)

open Nbsc_value
open Nbsc_core
module Manager = Nbsc_txn.Manager
module Sc = Db.Schema_change

let people = 600
let stores = 90
let cities = 12

let ok = function
  | Ok v -> v
  | Error e -> failwith (Format.asprintf "%a" Manager.pp_error e)

let sc_ok = function
  | Ok v -> v
  | Error e -> failwith (Nbsc_error.to_string e)

let () =
  let db = Db.create () in
  let col = Schema.column in
  ignore
    (Db.create_table db ~name:"person"
       (Schema.make ~key:[ "pid" ]
          [ col ~nullable:false "pid" Value.TInt; col "name" Value.TText;
            col "city" Value.TInt ]));
  ignore
    (Db.create_table db ~name:"store"
       (Schema.make ~key:[ "sid" ]
          [ col ~nullable:false "sid" Value.TInt; col "city" Value.TInt;
            col "chain" Value.TText ]));
  ok
    (Db.load db ~table:"person"
       (List.init people (fun i ->
            Row.make
              [ Value.Int i; Value.Text (Printf.sprintf "p%d" i);
                Value.Int (i mod cities) ])));
  ok
    (Db.load db ~table:"store"
       (List.init stores (fun i ->
            Row.make
              [ Value.Int i; Value.Int (i mod cities);
                Value.Text (Printf.sprintf "chain%d" (i mod 7)) ])));

  let spec =
    { Spec.r_table = "person";
      s_table = "store";
      t_table = "person_store";
      join_r = [ "city" ];
      join_s = [ "city" ];
      t_join = [ "city" ];
      r_carry = [ "pid"; "name" ];
      s_carry = [ "sid"; "chain" ];
      many_to_many = true }
  in
  let options =
    { Options.default with
      Options.drop_sources = false;
      scan_batch = 8;
      propagate_batch = 8 }
  in
  let sc = sc_ok (Sc.start db ~options (Spec.Foj spec)) in

  let mgr = Db.manager db in
  let rng = Random.State.make [| 7 |] in
  let moves = ref 0 in
  let move_someone () =
    if !moves < 300 then begin
      incr moves;
      let txn = Manager.begin_txn mgr in
      let pid = Random.State.int rng people in
      (match
         Manager.update mgr ~txn ~table:"person"
           ~key:(Row.make [ Value.Int pid ])
           [ (2, Value.Int (Random.State.int rng cities)) ]
       with
       | Ok () -> ok (Manager.commit mgr txn)
       | Error _ -> ignore (Manager.abort mgr txn))
    end
  in
  sc_ok (Sc.run ~between:move_someone sc);

  let oracle =
    Nbsc_relalg.Relalg.full_outer_join
      { Nbsc_relalg.Relalg.r_join = [ "city" ]; s_join = [ "city" ];
        out_join = [ "city" ]; r_cols = [ "pid"; "name" ];
        s_cols = [ "sid"; "chain" ]; out_key = [ "pid"; "sid" ] }
      (Db.snapshot db "person") (Db.snapshot db "store")
  in
  let equal =
    Nbsc_relalg.Relalg.equal_as_sets oracle (Db.snapshot db "person_store")
  in
  Format.printf "%a@." Transform.pp_progress (Sc.status sc).Sc.sc_progress;
  Format.printf "moves while transforming: %d@." !moves;
  Format.printf
    "person_store: %d rows (each person x each matching store); oracle: %d; \
     equal: %b@."
    (Db.row_count db "person_store")
    (List.length oracle.Nbsc_relalg.Relalg.rows)
    equal;
  if not equal then exit 1
