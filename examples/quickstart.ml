(* Quickstart: join two tables into one without blocking writers.

     dune exec examples/quickstart.exe

   Creates R(a,b,c) and S(c,d), starts a full-outer-join transformation
   into T, keeps updating R while the transformation runs in the
   background, and shows that T ends up exactly equal to R FOJ S over
   the final data. *)

open Nbsc_value
open Nbsc_core
module Manager = Nbsc_txn.Manager
module Sc = Db.Schema_change

let ok = function
  | Ok v -> v
  | Error e -> failwith (Format.asprintf "%a" Manager.pp_error e)

let sc_ok = function
  | Ok v -> v
  | Error e -> failwith (Nbsc_error.to_string e)

let () =
  (* 1. A little database. *)
  let db = Db.create () in
  let col = Schema.column in
  ignore
    (Db.create_table db ~name:"R"
       (Schema.make ~key:[ "a" ]
          [ col ~nullable:false "a" Value.TInt; col "b" Value.TText;
            col "c" Value.TInt ]));
  ignore
    (Db.create_table db ~name:"S"
       (Schema.make ~key:[ "c" ]
          [ col ~nullable:false "c" Value.TInt; col "d" Value.TText ]));
  ok
    (Db.load db ~table:"R"
       (List.init 1000 (fun i ->
            Row.make
              [ Value.Int i; Value.Text (Printf.sprintf "user-%d" i);
                Value.Int (i mod 50) ])));
  ok
    (Db.load db ~table:"S"
       (List.init 50 (fun c ->
            Row.make [ Value.Int c; Value.Text (Printf.sprintf "group-%d" c) ])));

  (* 2. Describe the transformation: T(c,a,b,d) = R FOJ S on c. *)
  let spec =
    { Spec.r_table = "R";
      s_table = "S";
      t_table = "T";
      join_r = [ "c" ];
      join_s = [ "c" ];
      t_join = [ "c" ];
      r_carry = [ "a"; "b" ];
      s_carry = [ "d" ];
      many_to_many = false }
  in
  let options =
    { Options.default with
      Options.drop_sources = false;  (* keep R and S for the final check *)
      scan_batch = 8;
      propagate_batch = 8 }
  in
  let sc = sc_ok (Sc.start db ~options (Spec.Foj spec)) in

  (* 3. Drive it to completion while writers keep writing. *)
  let mgr = Db.manager db in
  let writes = ref 0 in
  let write_something () =
    (* Write only while the old schema is live — after the switch-over
       the sources are frozen and new work belongs on T. *)
    if !writes < 500 && (Sc.status sc).Sc.sc_routing = `Sources then begin
      incr writes;
      let txn = Manager.begin_txn mgr in
      ok
        (Manager.update mgr ~txn ~table:"R"
           ~key:(Row.make [ Value.Int (!writes mod 1000) ])
           [ (1, Value.Text (Printf.sprintf "updated-%d" !writes)) ]);
      ok (Manager.commit mgr txn)
    end
  in
  sc_ok (Sc.run ~between:write_something sc);

  (* 4. Verify against the relational-algebra oracle. *)
  let oracle =
    Nbsc_relalg.Relalg.full_outer_join
      { Nbsc_relalg.Relalg.r_join = [ "c" ]; s_join = [ "c" ];
        out_join = [ "c" ]; r_cols = [ "a"; "b" ]; s_cols = [ "d" ];
        out_key = [ "a" ] }
      (Db.snapshot db "R") (Db.snapshot db "S")
  in
  let equal = Nbsc_relalg.Relalg.equal_as_sets oracle (Db.snapshot db "T") in
  Format.printf "transformation finished: %a@." Transform.pp_progress
    (Sc.status sc).Sc.sc_progress;
  Format.printf "concurrent writes while it ran: %d@." !writes;
  Format.printf "T has %d rows; oracle says %d; equal: %b@."
    (Db.row_count db "T")
    (List.length oracle.Nbsc_relalg.Relalg.rows)
    equal;
  if not equal then exit 1
