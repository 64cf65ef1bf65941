(* The observability layer: registry semantics, trace spans, sinks,
   JSON round-trips, and the Db.Schema_change facade that feeds it. *)

open Nbsc_core
module Obs = Nbsc_obs.Obs
module Json = Nbsc_obs.Json
module E = Nbsc_sim.Experiment
module H = Helpers

(* {1 Registry instruments} *)

let test_counter () =
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter r "a.count" in
  Alcotest.(check int) "starts at zero" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  Obs.Counter.add c 4;
  Alcotest.(check int) "incr + add" 5 (Obs.Counter.value c);
  (* Get-or-create: the same name is the same instrument. *)
  let c' = Obs.Registry.counter r "a.count" in
  Obs.Counter.incr c';
  Alcotest.(check int) "aliased" 6 (Obs.Counter.value c);
  (* A kind mismatch on an existing name is a programming error. *)
  (match Obs.Registry.gauge r "a.count" with
   | _ -> Alcotest.fail "kind mismatch must raise"
   | exception Invalid_argument _ -> ());
  Obs.Registry.zero r;
  Alcotest.(check int) "zeroed" 0 (Obs.Counter.value c)

let test_gauge_and_probe () =
  let r = Obs.Registry.create () in
  let g = Obs.Registry.gauge r "a.gauge" in
  Obs.Gauge.set g 2.5;
  Alcotest.(check (float 0.)) "set" 2.5 (Obs.Gauge.value g);
  let live = ref 7. in
  Obs.Registry.probe r "a.probe" (fun () -> !live);
  (match Obs.Registry.find r "a.probe" with
   | Some (Obs.Gauge_v v) -> Alcotest.(check (float 0.)) "probe reads" 7. v
   | _ -> Alcotest.fail "probe must read as a gauge");
  live := 9.;
  (match Obs.Registry.find r "a.probe" with
   | Some (Obs.Gauge_v v) -> Alcotest.(check (float 0.)) "probe live" 9. v
   | _ -> Alcotest.fail "probe must read as a gauge");
  Obs.Registry.remove r "a.probe";
  Alcotest.(check bool) "removed" true (Obs.Registry.find r "a.probe" = None)

let test_histogram () =
  let r = Obs.Registry.create () in
  let h = Obs.Registry.histogram ~edges:[ 1.; 10.; 100. ] r "a.hist" in
  List.iter (Obs.Histogram.observe h) [ 0.5; 5.; 5.; 50.; 1000. ];
  Alcotest.(check int) "count" 5 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 1060.5 (Obs.Histogram.sum h);
  (match Obs.Histogram.buckets h with
   | [ (e1, 1); (e2, 2); (e3, 1); (e4, 1) ] ->
     Alcotest.(check (list (float 0.))) "edges" [ 1.; 10.; 100.; infinity ]
       [ e1; e2; e3; e4 ]
   | bs -> Alcotest.failf "unexpected buckets (%d)" (List.length bs));
  (* The 0.5 quantile of 5 samples lands in the second bucket. *)
  Alcotest.(check (float 0.)) "median upper-edge" 10.
    (Obs.Histogram.quantile h 0.5)

let test_snapshot_sorted () =
  let r = Obs.Registry.create () in
  ignore (Obs.Registry.counter r "zz");
  ignore (Obs.Registry.counter r "aa");
  ignore (Obs.Registry.gauge r "mm");
  let names = List.map fst (Obs.Registry.snapshot r) in
  Alcotest.(check (list string)) "sorted" [ "aa"; "mm"; "zz" ] names

(* {1 Sinks and the no-op guarantee} *)

let test_noop_without_sink () =
  let r = Obs.Registry.create () in
  Alcotest.(check bool) "not tracing" false (Obs.Registry.tracing r);
  (* Emitting with no sink is a guarded no-op; spans still get distinct
     deterministic ids so a later-attached sink sees a consistent
     stream. *)
  let s1 = Obs.span_open r "one" in
  Obs.span_close r s1;
  let mem = Obs.memory_sink () in
  Obs.Registry.attach r mem;
  Alcotest.(check bool) "tracing" true (Obs.Registry.tracing r);
  let s2 = Obs.span_open r "two" in
  Obs.span_close r s2;
  Alcotest.(check bool) "ids advance while untraced" true
    (s2.Obs.span_id > s1.Obs.span_id);
  Alcotest.(check int) "only traced events captured" 2
    (List.length (Obs.memory_events mem));
  Obs.Registry.detach r mem;
  Alcotest.(check bool) "detached" false (Obs.Registry.tracing r)

let test_memory_ring_drops_oldest () =
  let r = Obs.Registry.create () in
  let mem = Obs.memory_sink ~capacity:4 () in
  Obs.Registry.attach r mem;
  for i = 1 to 10 do
    Obs.point r "p" [ ("i", Json.Int i) ]
  done;
  let is =
    List.map
      (function
        | Obs.Point { attrs = [ ("i", Json.Int i) ]; _ } -> i
        | _ -> Alcotest.fail "point expected")
      (Obs.memory_events mem)
  in
  Alcotest.(check (list int)) "last 4, oldest first" [ 7; 8; 9; 10 ] is

let test_subscribe () =
  let db = Db.create () in
  let seen = ref 0 in
  let cancel = Db.Observe.subscribe db (fun _ -> incr seen) in
  ignore (Db.create_table db ~name:"X"
            (Nbsc_value.Schema.make ~key:[ "k" ]
               [ Nbsc_value.Schema.column ~nullable:false "k"
                   Nbsc_value.Value.TInt ]));
  let before = !seen in
  let sc =
    match
      Db.Schema_change.start db
        (Spec.Hsplit
           { Spec.h_source = "X"; h_true_table = "X1"; h_false_table = "X2";
             h_pred = Nbsc_value.Pred.True })
    with
    | Ok sc -> sc
    | Error e -> Alcotest.fail (Nbsc_error.to_string e)
  in
  (match Db.Schema_change.run sc with
   | Ok () -> ()
   | Error e -> Alcotest.fail (Nbsc_error.to_string e));
  Alcotest.(check bool) "events delivered" true (!seen > before);
  cancel ();
  let at_cancel = !seen in
  ignore (Db.create_table db ~name:"Y"
            (Nbsc_value.Schema.make ~key:[ "k" ]
               [ Nbsc_value.Schema.column ~nullable:false "k"
                   Nbsc_value.Value.TInt ]));
  Alcotest.(check int) "unsubscribed" at_cancel !seen

(* {1 JSON} *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [ ("s", Json.String "a\"b\\c\nd");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.String "x" ]) ]
  in
  (match Json.of_string (Json.to_string v) with
   | Ok v' -> Alcotest.(check bool) "roundtrip" true (v = v')
   | Error m -> Alcotest.fail m);
  (match Json.of_string "{\"a\": 1} trailing" with
   | Ok _ -> Alcotest.fail "trailing garbage must fail"
   | Error _ -> ());
  Alcotest.(check bool) "single line" true
    (not (String.contains (Json.to_string v) '\n'))

let test_event_json_fields () =
  let r = Obs.Registry.create () in
  Obs.Registry.set_clock r (fun () -> 12.);
  let mem = Obs.memory_sink () in
  Obs.Registry.attach r mem;
  let sp = Obs.span_open r "phase" ~attrs:[ ("k", Json.Int 1) ] in
  Obs.point r ~in_span:sp "tick" [];
  Obs.span_close r sp;
  List.iter
    (fun ev ->
       let j = Obs.event_to_json ev in
       List.iter
         (fun k ->
            if Json.member k j = None then
              Alcotest.failf "missing %S in %s" k (Json.to_string j))
         [ "ev"; "name"; "at" ];
       match Json.of_string (Json.to_string j) with
       | Ok j' -> Alcotest.(check bool) "event roundtrip" true (j = j')
       | Error m -> Alcotest.fail m)
    (Obs.memory_events mem)

(* {1 Phase spans from a fixed-seed simulation} *)

let traced = lazy (E.traced_run ())

let test_span_nesting () =
  let tr = Lazy.force traced in
  let phases = tr.E.tr_phases in
  Alcotest.(check (list string)) "phases in order"
    [ "schema_change"; "populate"; "propagate"; "sync" ]
    (List.map (fun p -> p.E.ph_name) phases);
  match phases with
  | root :: rest ->
    Alcotest.(check bool) "root has no parent" true (root.E.ph_parent = None);
    List.iter
      (fun p ->
         Alcotest.(check (option int)) (p.E.ph_name ^ " nested under root")
           (Some root.E.ph_span) p.E.ph_parent;
         (match p.E.ph_end with
          | None -> Alcotest.failf "%s never closed" p.E.ph_name
          | Some e ->
            Alcotest.(check bool) (p.E.ph_name ^ " start<=end") true
              (p.E.ph_start <= e));
         Alcotest.(check bool) "within root" true
           (p.E.ph_start >= root.E.ph_start))
      rest;
    (* Phases tile the change: populate ends where propagate begins. *)
    (match rest with
     | [ pop; prop; sync ] ->
       Alcotest.(check (option (float 0.))) "populate -> propagate"
         (Some prop.E.ph_start) pop.E.ph_end;
       Alcotest.(check (option (float 0.))) "propagate -> sync"
         (Some sync.E.ph_start) prop.E.ph_end;
       Alcotest.(check (option (float 0.))) "sync closes the change"
         root.E.ph_end sync.E.ph_end
     | _ -> Alcotest.fail "three phase spans expected")
  | [] -> Alcotest.fail "no spans captured"

let test_quantum_points () =
  let tr = Lazy.force traced in
  let quanta =
    List.filter
      (function
        | Obs.Point { name = "transform.quantum"; _ } -> true
        | _ -> false)
      tr.E.tr_events
  in
  Alcotest.(check bool) "many quantum points" true (List.length quanta > 10);
  List.iter
    (function
      | Obs.Point { attrs; in_span; _ } ->
        List.iter
          (fun k ->
             if not (List.mem_assoc k attrs) then
               Alcotest.failf "quantum point missing %S" k)
          [ "job"; "phase"; "scanned"; "propagated"; "lag"; "position" ];
        Alcotest.(check bool) "attributed to a phase span" true
          (in_span <> None)
      | _ -> ())
    quanta

let test_fixed_seed_traces_equal () =
  let a = E.traced_run () and b = E.traced_run () in
  Alcotest.(check int) "same event count" (List.length a.E.tr_events)
    (List.length b.E.tr_events);
  Alcotest.(check bool) "identical event streams" true
    (a.E.tr_events = b.E.tr_events);
  Alcotest.(check bool) "spans present" true (a.E.tr_phases <> [])

(* {1 The Schema_change facade} *)

let fresh_split_db rows =
  let db = Db.create () in
  let col = Nbsc_value.Schema.column in
  ignore
    (Db.create_table db ~name:"T"
       (Nbsc_value.Schema.make ~key:[ "a" ]
          [ col ~nullable:false "a" Nbsc_value.Value.TInt;
            col "b" Nbsc_value.Value.TText;
            col "c" Nbsc_value.Value.TInt ]));
  (match
     Db.load db ~table:"T"
       (List.init rows (fun i ->
            Nbsc_value.Row.make
              [ Nbsc_value.Value.Int i;
                Nbsc_value.Value.Text ("b" ^ string_of_int i);
                Nbsc_value.Value.Int (i mod 7) ]))
   with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "load");
  db

let split_spec =
  { Spec.t_table' = "T"; r_table' = "R"; s_table' = "S";
    r_cols = [ "a"; "b"; "c" ]; s_cols = [ "c" ];
    split_key = [ "c" ]; assume_consistent = true }

let test_schema_change_lifecycle () =
  let db = fresh_split_db 50 in
  let sc =
    match Db.Schema_change.start db (Spec.Split split_spec) with
    | Ok sc -> sc
    | Error e -> Alcotest.fail (Nbsc_error.to_string e)
  in
  let i = Db.Schema_change.status sc in
  Alcotest.(check string) "operator" "split" i.Db.Schema_change.sc_operator;
  Alcotest.(check bool) "routing at sources" true
    (i.Db.Schema_change.sc_routing = `Sources);
  let rec drive n =
    if n > 100_000 then Alcotest.fail "did not converge"
    else
      match Db.Schema_change.step sc with
      | `Running -> drive (n + 1)
      | `Done -> ()
      | `Failed e -> Alcotest.fail (Nbsc_error.to_string e)
  in
  drive 0;
  let i = Db.Schema_change.status sc in
  Alcotest.(check bool) "done" true
    (i.Db.Schema_change.sc_phase = Transform.Done);
  Alcotest.(check bool) "routing switched" true
    (i.Db.Schema_change.sc_routing = `Targets);
  Alcotest.(check int) "R populated" 50 (Db.row_count db "R");
  Alcotest.(check int) "S populated" 7 (Db.row_count db "S")

let test_schema_change_invalid () =
  (* The facade reports every rejection as a result, never an
     exception, and rejects before the preparation step creates a table
     or adds an index to the source. An existing target is refused, not
     adopted: adopting it would merge its rows into the result. *)
  let existing_r db =
    let layout = Spec.split_layout (Db.catalog db) split_spec in
    ignore (Db.create_table db ~name:"R" (Spec.split_r_schema layout))
  in
  List.iter
    (fun (name, prepare, options, spec) ->
       let db = fresh_split_db 5 in
       prepare db;
       let tables () =
         List.sort String.compare (Nbsc_storage.Catalog.names (Db.catalog db))
       in
       let indexes () = Nbsc_storage.Table.index_definitions (Db.table db "T") in
       let tables0 = tables () and indexes0 = indexes () in
       (match Db.Schema_change.start db ~options spec with
        | Ok _ -> Alcotest.failf "%s: must be rejected" name
        | Error (`Invalid _) -> ()
        | Error e ->
          Alcotest.failf "%s: wrong error: %s" name (Nbsc_error.to_string e));
       Alcotest.(check (list string)) (name ^ ": tables") tables0 (tables ());
       Alcotest.(check (list (pair string (list string))))
         (name ^ ": source indexes") indexes0 (indexes ()))
    [ ( "split key T does not have",
        ignore,
        Options.default,
        Spec.Split { split_spec with Spec.split_key = [ "nope" ] } );
      ( "scan_batch = 0",
        ignore,
        { Options.default with Options.scan_batch = 0 },
        Spec.Split split_spec );
      ("existing target", existing_r, Options.default, Spec.Split split_spec) ]

let test_schema_change_cancel () =
  let db = fresh_split_db 50 in
  let sc =
    match
      Db.Schema_change.start db
        ~options:{ Options.default with Options.scan_batch = 8 }
        (Spec.Split split_spec)
    with
    | Ok sc -> sc
    | Error e -> Alcotest.fail (Nbsc_error.to_string e)
  in
  ignore (Db.Schema_change.step sc);
  Db.Schema_change.cancel sc;
  let i = Db.Schema_change.status sc in
  (match i.Db.Schema_change.sc_phase with
   | Transform.Failed _ -> ()
   | p -> Alcotest.failf "cancelled change in phase %a" Transform.pp_phase p);
  Alcotest.(check bool) "targets dropped" true
    (not (Nbsc_storage.Catalog.mem (Db.catalog db) "R"));
  Alcotest.(check int) "source intact" 50 (Db.row_count db "T")

(* [start] is the one place that hands [options] to both the
   operator's preparation (the lazy demand scan) and the executor (the
   lazy access hook). Oracle equality cannot tell a dropped [options]
   apart: the eager populator converges too. *)
let test_options_reach_every_operator () =
  let r_rows, s_rows = H.seed_rows ~r:40 ~s:15 in
  let foj_db () = H.fresh_foj_db ~r_rows ~s_rows in
  let split_db () = H.fresh_split_db ~t_rows:(H.seed_t_rows ~n:40) in
  let merge_db () =
    let db = Db.create () in
    List.iter
      (fun (table, first) ->
         ignore (Db.create_table db ~name:table H.t_flat_schema);
         match
           Db.load db ~table
             (List.init 20 (fun i -> H.ti (first + i) "m" (i mod 5) "x"))
         with
         | Ok () -> ()
         | Error _ -> Alcotest.failf "load %s" table)
      [ ("A", 1); ("B", 101) ];
    db
  in
  let options =
    { Options.default with Options.scan_batch = 4; drop_sources = false }
  in
  List.iter
    (fun (name, fresh, spec, source) ->
       let db = fresh () in
       let tf =
         H.start db ~options:{ options with Options.strategy = Options.Lazy } spec
       in
       Alcotest.(check bool) (name ^ ": lazy") true
         (Transform.migration tf = Options.Lazy
          && Transform.phase tf = Transform.Populating);
       let mgr = Db.manager db in
       let txn = Nbsc_txn.Manager.begin_txn mgr in
       (match
          Nbsc_txn.Manager.read mgr ~txn ~table:source
            ~key:(Nbsc_value.Row.make [ Nbsc_value.Value.Int 5 ])
        with
        | Ok (Some _) -> ()
        | Ok None | Error _ -> Alcotest.failf "%s: read %s" name source);
       ignore (Nbsc_txn.Manager.commit mgr txn);
       Alcotest.(check bool) (name ^ ": demand migration") true
         (Transform.demand_migrations tf > 0))
    [ ("foj", foj_db, Spec.Foj H.foj_spec, "R");
      ("split", split_db, Spec.Split (H.split_spec ~assume_consistent:true), "T");
      ( "hsplit",
        split_db,
        Spec.Hsplit
          { Spec.h_source = "T";
            h_true_table = "T_hi";
            h_false_table = "T_lo";
            h_pred = Nbsc_value.(Pred.Cmp ("c", Pred.Gt, Value.Int 5)) },
        "T" );
      ( "merge",
        merge_db,
        Spec.Merge { Spec.m_sources = [ "A"; "B" ]; m_target = "AB" },
        "A" ) ]

(* {1 Registry contents after engine work} *)

let test_one_way_to_read () =
  let db = fresh_split_db 50 in
  let sc =
    match Db.Schema_change.start db (Spec.Split split_spec) with
    | Ok sc -> sc
    | Error e -> Alcotest.fail (Nbsc_error.to_string e)
  in
  (match Db.Schema_change.run sc with
   | Ok () -> ()
   | Error e -> Alcotest.fail (Nbsc_error.to_string e));
  (* Manager.Stats reads the same counters the registry snapshot
     serves: the two views must agree exactly. *)
  let stats = Nbsc_txn.Manager.Stats.get (Db.manager db) in
  let counter name =
    match Obs.Registry.find (Db.obs db) name with
    | Some (Obs.Counter_v n) -> n
    | _ -> Alcotest.failf "counter %S missing from registry" name
  in
  Alcotest.(check int) "ops" stats.Nbsc_txn.Manager.Stats.ops
    (counter "txn.ops");
  Alcotest.(check int) "commits" stats.Nbsc_txn.Manager.Stats.commits
    (counter "txn.commits");
  Alcotest.(check int) "lock waits" stats.Nbsc_txn.Manager.Stats.lock_waits
    (counter "lock.waits")

(* The transaction table and the reclamation queue stay bounded: with
   no snapshot, committed transactions leave [txns] and their versions
   go at commit; a held snapshot queues keys until its release. *)
let test_reclaim_probes () =
  let module M = Nbsc_txn.Manager in
  let db = Db.create () in
  ignore (Db.create_table db ~name:"t" H.r_schema);
  let mgr = Db.manager db in
  let probe name =
    match Obs.Registry.find (Db.obs db) name with
    | Some (Obs.Gauge_v v) -> int_of_float v
    | _ -> Alcotest.failf "probe %S missing from registry" name
  in
  let key k = Nbsc_value.Row.make [ Nbsc_value.Value.Int k ] in
  let write i =
    match
      Db.with_txn db (fun txn ->
          M.update mgr ~txn ~table:"t" ~key:(key (i mod 10))
            [ (1, Nbsc_value.Value.Text (string_of_int i)) ])
    with
    | Ok () -> ()
    | Error e -> Alcotest.failf "write: %a" M.pp_error e
  in
  (match Db.load db ~table:"t" (List.init 10 (fun k -> H.ri k "v" k)) with
   | Ok () -> ()
   | Error e -> Alcotest.failf "load: %a" M.pp_error e);
  for i = 1 to 1_000 do
    write i
  done;
  Alcotest.(check int) "txn.tracked = txn.active" (probe "txn.active")
    (probe "txn.tracked");
  Alcotest.(check int) "nothing pending without a snapshot" 0
    (probe "storage.versions_pending");
  let snap = M.begin_txn ~isolation:`Snapshot mgr in
  for i = 1 to 20 do
    write i
  done;
  Alcotest.(check bool) "a held snapshot queues keys" true
    (probe "storage.versions_pending" > 0);
  (match M.commit mgr snap with
   | Ok () -> ()
   | Error e -> Alcotest.failf "snapshot commit: %a" M.pp_error e);
  ignore (M.gc_versions mgr);
  Alcotest.(check int) "drained after the release" 0
    (probe "storage.versions_pending");
  Alcotest.(check int) "txn.tracked after the release" 0 (probe "txn.tracked")

let () =
  Alcotest.run "obs"
    [ ( "registry",
        [ Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "gauge and probe" `Quick test_gauge_and_probe;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "snapshot sorted" `Quick test_snapshot_sorted ] );
      ( "sinks",
        [ Alcotest.test_case "no-op without sink" `Quick test_noop_without_sink;
          Alcotest.test_case "ring drops oldest" `Quick
            test_memory_ring_drops_oldest;
          Alcotest.test_case "subscribe" `Quick test_subscribe ] );
      ( "json",
        [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "event fields" `Quick test_event_json_fields ] );
      ( "trace",
        [ Alcotest.test_case "span nesting" `Slow test_span_nesting;
          Alcotest.test_case "quantum points" `Slow test_quantum_points;
          Alcotest.test_case "fixed-seed equality" `Slow
            test_fixed_seed_traces_equal ] );
      ( "schema_change",
        [ Alcotest.test_case "lifecycle" `Quick test_schema_change_lifecycle;
          Alcotest.test_case "invalid spec" `Quick test_schema_change_invalid;
          Alcotest.test_case "cancel" `Quick test_schema_change_cancel;
          Alcotest.test_case "options reach every operator" `Quick
            test_options_reach_every_operator;
          Alcotest.test_case "one way to read" `Quick test_one_way_to_read;
          Alcotest.test_case "reclamation probes stay bounded" `Quick
            test_reclaim_probes ] )
    ]
