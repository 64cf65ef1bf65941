(* The paper's motivating scenario: an operational telecom database
   that cannot stop taking traffic while its schema is denormalized.

     dune exec examples/telecom_foj.exe

   subscriber(imsi, name, plan_id) and plan(plan_id, rate_cents) are
   joined into account(plan_id, imsi, name, rate_cents) while a call
   workload keeps updating subscribers. Synchronization uses the
   non-blocking abort strategy: at switch-over, in-flight transactions
   on the old tables are rolled back and new traffic continues on the
   new table; the old tables are dropped. *)

open Nbsc_value
open Nbsc_core
module Manager = Nbsc_txn.Manager
module Sc = Db.Schema_change

let subscribers = 20_000
let plans = 40

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
    (Db.create_table db ~name:"subscriber"
       (Schema.make ~key:[ "imsi" ]
          [ col ~nullable:false "imsi" Value.TInt; col "name" Value.TText;
            col "plan_id" Value.TInt ]));
  ignore
    (Db.create_table db ~name:"plan"
       (Schema.make ~key:[ "plan_id" ]
          [ col ~nullable:false "plan_id" Value.TInt;
            col "rate_cents" Value.TInt ]));
  let rec load_range table make lo hi =
    if lo < hi then begin
      let upper = min hi (lo + 1000) in
      ok (Db.load db ~table (List.init (upper - lo) (fun i -> make (lo + i))));
      load_range table make upper hi
    end
  in
  load_range "subscriber"
    (fun i ->
       Row.make
         [ Value.Int i; Value.Text (Printf.sprintf "sub-%d" i);
           Value.Int (i mod plans) ])
    0 subscribers;
  load_range "plan"
    (fun p -> Row.make [ Value.Int p; Value.Int (100 + p) ])
    0 plans;

  let spec =
    { Spec.r_table = "subscriber";
      s_table = "plan";
      t_table = "account";
      join_r = [ "plan_id" ];
      join_s = [ "plan_id" ];
      t_join = [ "plan_id" ];
      r_carry = [ "imsi"; "name" ];
      s_carry = [ "rate_cents" ];
      many_to_many = false }
  in
  let options =
    { Options.default with
      Options.sync = Options.Nonblocking_abort;
      drop_sources = true;
      scan_batch = 512;
      propagate_batch = 256 }
  in
  let sc = sc_ok (Sc.start db ~options (Spec.Foj spec)) in

  (* Call traffic: short transactions touching subscribers; after the
     switch-over they move to the new account table. *)
  let mgr = Db.manager db in
  let rng = Random.State.make [| 2006 |] in
  let traffic = ref 0 and rerouted = ref 0 and rejected = ref 0 in
  let one_call () =
    incr traffic;
    let imsi = Random.State.int rng subscribers in
    let txn = Manager.begin_txn mgr in
    let outcome =
      if (Sc.status sc).Sc.sc_routing = `Sources then
        Manager.update mgr ~txn ~table:"subscriber"
          ~key:(Row.make [ Value.Int imsi ])
          [ (1, Value.Text (Printf.sprintf "sub-%d'" imsi)) ]
      else begin
        incr rerouted;
        (* The new table is keyed by (imsi, plan_id); look the record up
           through the subscriber-key index. *)
        let account = Db.table db "account" in
        match
          Nbsc_storage.Table.index_lookup account ~index:Spec.ix_by_r_key
            (Row.make [ Value.Int imsi ])
        with
        | [ key ] ->
          Manager.update mgr ~txn ~table:"account" ~key
            [ (2, Value.Text (Printf.sprintf "sub-%d''" imsi)) ]
        | _ -> Ok ()
      end
    in
    match outcome with
    | Ok () -> ok (Manager.commit mgr txn)
    | Error _ ->
      incr rejected;
      ignore (Manager.abort mgr txn)
  in

  let phase_log = ref [] in
  let last_phase = ref (Sc.status sc).Sc.sc_phase in
  sc_ok
    (Sc.run sc ~between:(fun () ->
         one_call ();
         let phase = (Sc.status sc).Sc.sc_phase in
         if phase <> !last_phase then begin
           phase_log := (!traffic, phase) :: !phase_log;
           last_phase := phase
         end));

  Format.printf "phases (after N calls):@.";
  List.iter
    (fun (n, phase) ->
       Format.printf "  after %6d calls -> %a@." n Transform.pp_phase phase)
    (List.rev !phase_log);
  let p = (Sc.status sc).Sc.sc_progress in
  Format.printf "%a@." Transform.pp_progress p;
  Format.printf
    "calls made: %d (rerouted to new schema: %d, rejected during change: %d)@."
    !traffic !rerouted !rejected;
  let dropped table = not (Nbsc_storage.Catalog.mem (Db.catalog db) table) in
  Format.printf "old tables dropped: subscriber=%b plan=%b; account rows: %d@."
    (dropped "subscriber") (dropped "plan")
    (Db.row_count db "account");
  Format.printf "forced aborts at switch-over: %d (their work was rolled back)@."
    p.Transform.forced_aborts;
  if not (dropped "subscriber" && dropped "plan") then exit 1
