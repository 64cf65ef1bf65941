(* Normalization online: the paper's Figure 3 / Example 1.

     dune exec examples/customer_split.exe

   A denormalized customer table with the functional dependency
   postal_code -> city is split into customer(id, name, postal_code)
   and place(postal_code, city) — except the data contains the paper's
   Example 1 inconsistency ("Trnodheim"), so the transformation runs in
   checked mode: the offending place record is U-flagged, the
   consistency checker keeps refusing to confirm it, and the
   transformation cannot synchronize until a user transaction repairs
   the typo. *)

open Nbsc_value
open Nbsc_core
module Manager = Nbsc_txn.Manager
module Table = Nbsc_storage.Table
module Record = Nbsc_storage.Record
module Sc = Db.Schema_change

let ok = function
  | Ok v -> v
  | Error e -> failwith (Format.asprintf "%a" Manager.pp_error e)

let sc_ok = function
  | Ok v -> v
  | Error e -> failwith (Nbsc_error.to_string e)

(* Ordered so that customer 134 (postal code 5004) lives in Trondheim,
   matching the paper's Example 1. *)
let cities = [| "Bergen"; "Oslo"; "Stavanger"; "Molde"; "Trondheim" |]

let () =
  let db = Db.create () in
  let col = Schema.column in
  ignore
    (Db.create_table db ~name:"customer"
       (Schema.make ~key:[ "id" ]
          [ col ~nullable:false "id" Value.TInt; col "name" Value.TText;
            col "postal_code" Value.TInt; col "city" Value.TText ]));
  ok
    (Db.load db ~table:"customer"
       (List.init 2000 (fun i ->
            let pc = 5000 + (i mod 5) in
            Row.make
              [ Value.Int i; Value.Text (Printf.sprintf "cust-%d" i);
                Value.Int pc; Value.Text cities.(pc - 5000) ])));
  (* The Example 1 inconsistency: one record spells its city wrong. *)
  let txn = Manager.begin_txn (Db.manager db) in
  ok
    (Manager.update (Db.manager db) ~txn ~table:"customer"
       ~key:(Row.make [ Value.Int 134 ])
       [ (3, Value.Text "Trnodheim") ]);
  ok (Manager.commit (Db.manager db) txn);

  let spec =
    { Spec.t_table' = "customer";
      r_table' = "customer_norm";
      s_table' = "place";
      r_cols = [ "id"; "name"; "postal_code" ];
      s_cols = [ "postal_code"; "city" ];
      split_key = [ "postal_code" ];
      assume_consistent = false }
  in
  let options =
    { Options.default with
      Options.drop_sources = false;
      scan_batch = 128;
      propagate_batch = 128 }
  in
  let sc = sc_ok (Sc.start db ~options (Spec.Split spec)) in

  let repaired = ref false in
  let checking_steps = ref 0 in
  let total = ref 0 in
  sc_ok
    (Sc.run sc ~between:(fun () ->
         incr total;
         if !total > 100_000 then failwith "no convergence";
         if (Sc.status sc).Sc.sc_phase = Transform.Checking then begin
           incr checking_steps;
           (* Give the checker a few rounds to demonstrate that it keeps
              refusing the inconsistent group, then repair the typo. *)
           if !checking_steps = 10 && not !repaired then begin
             repaired := true;
             let mgr = Db.manager db in
             let txn = Manager.begin_txn mgr in
             ok
               (Manager.update mgr ~txn ~table:"customer"
                  ~key:(Row.make [ Value.Int 134 ])
                  [ (3, Value.Text "Trondheim") ]);
             ok (Manager.commit mgr txn);
             Format.printf
               "DBA transaction repaired customer 134: Trnodheim -> Trondheim@."
           end
         end));

  let cc = Option.get (Transform.checker (Sc.transform sc)) in
  let st = Consistency.stats cc in
  Format.printf "%a@." Transform.pp_progress (Sc.status sc).Sc.sc_progress;
  Format.printf
    "consistency checker: %d checks started, %d confirmed, %d refused \
     (inconsistent data), %d invalidated by concurrent updates@."
    st.Consistency.started st.Consistency.confirmed st.Consistency.disagreed
    st.Consistency.invalidated;
  Format.printf "place table (every record C-flagged, counters = customers per \
                 postal code):@.";
  Table.iter (Db.table db "place") (fun _ record ->
      Format.printf "  %a@." Record.pp record);
  (* Verify against the oracle. *)
  let t = Db.snapshot db "customer" in
  let expected_r, expected_s =
    Nbsc_relalg.Relalg.split
      { Nbsc_relalg.Relalg.r_cols' = [ "id"; "name"; "postal_code" ];
        s_cols' = [ "postal_code"; "city" ];
        r_key = [ "id" ];
        s_key = [ "postal_code" ] }
      t
  in
  let r_ok =
    Nbsc_relalg.Relalg.equal_as_sets expected_r (Db.snapshot db "customer_norm")
  and s_ok = Nbsc_relalg.Relalg.equal_as_sets expected_s (Db.snapshot db "place") in
  Format.printf "customer_norm matches oracle: %b; place matches oracle: %b@."
    r_ok s_ok;
  if not (r_ok && s_ok) then exit 1
