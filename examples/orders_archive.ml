(* Extension operators in one scenario:

     dune exec examples/orders_archive.exe

   An orders table is split horizontally online — closed orders move to
   an archive, open ones stay hot — while order-processing traffic
   keeps running; rows migrate between the two tables live as orders
   close. Alongside, a deferred materialized view joins orders with
   their customers and is refreshed on demand (the paper's closing
   suggestion). *)

open Nbsc_value
open Nbsc_core
module Manager = Nbsc_txn.Manager
module Sc = Db.Schema_change

let orders = 5_000
let customers = 200

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
    (Db.create_table db ~name:"orders"
       (Schema.make ~key:[ "oid" ]
          [ col ~nullable:false "oid" Value.TInt;
            col "customer_id" Value.TInt;
            col "status" Value.TText;       (* 'open' | 'closed' *)
            col "total_cents" Value.TInt ]));
  ignore
    (Db.create_table db ~name:"customer"
       (Schema.make ~key:[ "customer_id" ]
          [ col ~nullable:false "customer_id" Value.TInt;
            col "name" Value.TText ]));
  let rec load table make lo hi =
    if lo < hi then begin
      let upper = min hi (lo + 1000) in
      ok (Db.load db ~table (List.init (upper - lo) (fun i -> make (lo + i))));
      load table make upper hi
    end
  in
  load "orders"
    (fun i ->
       Row.make
         [ Value.Int i; Value.Int (i mod customers);
           Value.Text (if i mod 3 = 0 then "open" else "closed");
           Value.Int (100 + (i mod 900)) ])
    0 orders;
  load "customer"
    (fun c -> Row.make [ Value.Int c; Value.Text (Printf.sprintf "cust-%d" c) ])
    0 customers;

  (* A deferred materialized view: orders joined with customer names. *)
  let view =
    Matview.create db
      { Spec.r_table = "orders";
        s_table = "customer";
        t_table = "orders_with_names";
        join_r = [ "customer_id" ];
        join_s = [ "customer_id" ];
        t_join = [ "customer_id" ];
        r_carry = [ "oid"; "status"; "total_cents" ];
        s_carry = [ "name" ];
        many_to_many = false }
  in

  (* The online archive split. *)
  let sc =
    sc_ok
      (Sc.start db
         ~options:
           { Options.default with
             Options.drop_sources = true;
             scan_batch = 256;
             propagate_batch = 128 }
         (Spec.Hsplit
            { Spec.h_source = "orders";
              h_true_table = "orders_archive";
              h_false_table = "orders_live";
              h_pred = Pred.Cmp ("status", Pred.Eq, Value.Text "closed") }))
  in

  let mgr = Db.manager db in
  let rng = Random.State.make [| 11 |] in
  let closed_during = ref 0 and traffic = ref 0 in
  let business () =
    incr traffic;
    if (Sc.status sc).Sc.sc_routing = `Sources then begin
      let oid = Random.State.int rng orders in
      let txn = Manager.begin_txn mgr in
      let outcome =
        if Random.State.int rng 4 = 0 then begin
          incr closed_during;
          Manager.update mgr ~txn ~table:"orders"
            ~key:(Row.make [ Value.Int oid ])
            [ (2, Value.Text "closed") ]
        end
        else
          Manager.update mgr ~txn ~table:"orders"
            ~key:(Row.make [ Value.Int oid ])
            [ (3, Value.Int (Random.State.int rng 1000)) ]
      in
      (match outcome with
       | Ok () -> ok (Manager.commit mgr txn)
       | Error _ -> ignore (Manager.abort mgr txn));
      (* An idle-loop tick of view maintenance. *)
      ignore (Matview.step view)
    end
  in
  sc_ok (Sc.run ~between:business sc);

  Format.printf "%a@." Transform.pp_progress (Sc.status sc).Sc.sc_progress;
  Format.printf
    "orders processed while archiving: %d (%d closed mid-flight; %d rows \
     migrated between live and archive)@."
    !traffic !closed_during
    (List.assoc "migrations" (Transform.counters (Sc.transform sc)));
  Format.printf "orders_live: %d rows; orders_archive: %d rows (sum = %d)@."
    (Db.row_count db "orders_live")
    (Db.row_count db "orders_archive")
    (Db.row_count db "orders_live" + Db.row_count db "orders_archive");
  (* The view was created against "orders", which is now dropped — its
     maintenance simply has nothing further to consume, but its content
     as of the switch is still queryable; refresh and report. *)
  Matview.refresh view;
  Format.printf "materialized view %s: %d rows, staleness %d log records@."
    (Matview.table view)
    (Db.row_count db "orders_with_names")
    (Matview.lag view);
  (* Verify the split partitioned exactly. *)
  let archive = Db.snapshot db "orders_archive" in
  let live = Db.snapshot db "orders_live" in
  let bad_archive =
    List.exists
      (fun row -> not (Value.equal (Row.get row 2) (Value.Text "closed")))
      archive.Nbsc_relalg.Relalg.rows
  in
  let bad_live =
    List.exists
      (fun row -> Value.equal (Row.get row 2) (Value.Text "closed"))
      live.Nbsc_relalg.Relalg.rows
  in
  Format.printf "partition clean: archive all closed=%b, live none closed=%b@."
    (not bad_archive) (not bad_live);
  if bad_archive || bad_live then exit 1
