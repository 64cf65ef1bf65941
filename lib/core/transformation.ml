open Nbsc_value
open Nbsc_wal
open Nbsc_storage
open Nbsc_txn
module Db = Nbsc_engine.Db

type lock_map = {
  source_to_targets :
    table:string -> key:Row.Key.t -> (string * Row.Key.t) list;
  target_to_sources :
    table:string -> key:Row.Key.t -> (string * Row.Key.t) list;
}

type t = {
  name : string;
  spec_payload : string option;
  population : Population.t;
  rules : Propagator.rules;
  lock_map : lock_map;
  counters : unit -> (string * int) list;
}

(* Preparation must tolerate targets that already exist: after a crash
   the targets were restored from the snapshot and the builder re-runs
   to rebuild the operator around them. A pre-existing table is only
   accepted with the exact schema the spec derives. *)
(* Target tables go through the engine facade's [create_table] so the
   manager wires its version-retention hint into them — bulk population
   writes must stay free of version churn while no snapshot is live.
   [size] is the target's capacity hint: an upper bound of its final
   row count, read from the sources' cardinalities, so that population
   and propagation never rehash a target inside a quantum. A target
   restored from a snapshot keeps the size the restore gave it. *)
let ensure_table db ~size ?indexes ~name schema =
  let catalog = Db.catalog db in
  match Catalog.find_opt catalog name with
  | None -> ignore (Db.create_table db ~size ?indexes ~name schema)
  | Some tbl ->
    if not (Schema.equal (Table.schema tbl) schema) then
      invalid_arg
        (Printf.sprintf
           "Transformation: table %S already exists with a different schema"
           name);
    List.iter
      (fun (ix, columns) -> Table.add_index tbl ~name:ix ~columns)
      (match indexes with Some ixs -> ixs | None -> [])

let start_propagator mgr rules =
  let active = Manager.active_snapshot mgr in
  let mark =
    Log.append (Manager.log mgr) ~txn:Log_record.system_txn ~prev_lsn:Lsn.zero
      (Log_record.Fuzzy_mark { active })
  in
  let from =
    List.fold_left
      (fun acc (_, first) -> if Lsn.(first < acc) then first else acc)
      mark active
  in
  Propagator.create mgr rules ~from

(* {1 Lazy migration: the uniform demand scan}

   Under [Options.Lazy]/[Hybrid] the eager, operator-specialized
   population is replaced by a uniform sweep that replays each source
   record's {e current} state through the propagation rules, exactly as
   if its insert had just been logged. The rules are LSN-gated
   idempotent upserts, so a record already migrated — by first-touch
   demand migration or by actual log propagation — is simply ignored.
   This gives every operator lazy migration for free: no second
   population path per operator. *)

let demand_population catalog (rules : Propagator.rules) =
  let tables = List.map (fun n -> (n, Catalog.find catalog n)) rules.sources in
  Population.scan_tagged tables ~ingest:(fun ~table record ->
      ignore
        (rules.apply ~lsn:record.Record.lsn
           (Log_record.Insert { table; row = record.Record.row })))

(* The population [options] select: the demand scan under [Lazy] or
   [Hybrid], else the operator's own, built only then (building it
   opens its fuzzy cursors). *)
let population options catalog rules eager =
  match options with
  | Some { Options.strategy = Options.Lazy | Options.Hybrid _; _ } ->
    demand_population catalog rules
  | Some _ | None -> eager ()

let counter op name =
  match List.assoc_opt name (op.counters ()) with
  | Some n -> n
  | None -> 0

(* {1 Full outer join} *)

let foj_source_to_targets fj ~table ~key =
  let cctx = Foj.ctx fj in
  let l = cctx.Foj_common.layout in
  let spec = l.Spec.spec in
  let t_name = spec.Spec.t_table in
  if String.equal table spec.Spec.r_table then
    List.map (fun (k, _) -> (t_name, k)) (Foj_common.by_r_key cctx key)
  else if String.equal table spec.Spec.s_table then
    List.map (fun (k, _) -> (t_name, k)) (Foj_common.by_s_key cctx key)
  else []

let foj_target_to_sources fj ~table:_ ~key =
  let cctx = Foj.ctx fj in
  let l = cctx.Foj_common.layout in
  let spec = l.Spec.spec in
  (* T's composite key carries both source keys (possibly overlapping
     on shared join columns); project each side out by index. *)
  let part indices = Array.of_list (List.map (Array.get key) indices) in
  let r_part = part l.Spec.r_key_in_tkey in
  let s_part = part l.Spec.s_key_in_tkey in
  (if Row.Key.has_null r_part then [] else [ (spec.Spec.r_table, r_part) ])
  @ if Row.Key.has_null s_part then [] else [ (spec.Spec.s_table, s_part) ]

let foj ?(transfer_locks = true) ?options db spec =
  let catalog = Db.catalog db in
  let layout = Spec.foj_layout catalog spec in
  let r_tbl = Catalog.find catalog spec.Spec.r_table in
  let s_tbl = Catalog.find catalog spec.Spec.s_table in
  (* |R| + |S| bounds a one-to-many join's T; many-to-many can exceed
     it, so there it is only an estimate. *)
  ensure_table db
    ~size:(Table.cardinality r_tbl + Table.cardinality s_tbl)
    ~indexes:(Spec.foj_t_indexes layout)
    ~name:spec.Spec.t_table (Spec.foj_t_schema layout);
  let fj = Foj.create catalog layout in
  let apply =
    if spec.Spec.many_to_many then
      fun ~lsn op ->
        List.map (fun k -> (spec.Spec.t_table, k)) (Foj_mm.apply fj ~lsn op)
    else
      fun ~lsn op ->
        List.map (fun k -> (spec.Spec.t_table, k)) (Foj.apply fj ~lsn op)
  in
  let rules =
    Propagator.rules ~transfer_locks
      ~sources:[ spec.Spec.r_table; spec.Spec.s_table ]
      ~targets:[ spec.Spec.t_table ] ~apply ()
  in
  { name = "foj";
    spec_payload = Some (Spec.encode (Spec.Foj spec));
    population =
      population options catalog rules (fun () ->
          Population.foj fj ~r_tbl ~s_tbl);
    rules;
    lock_map =
      { source_to_targets = foj_source_to_targets fj;
        target_to_sources = foj_target_to_sources fj };
    counters =
      (fun () ->
         let st = Foj.stats fj in
         [ ("applied", st.Foj.applied); ("ignored", st.Foj.ignored);
           ("foreign", st.Foj.foreign) ]) }

(* {1 Vertical split} *)

let split_source_to_targets sp db ~table:_ ~key =
  let layout = Split.layout sp in
  let spec = layout.Spec.sspec in
  let r_name = spec.Spec.r_table' and s_name = spec.Spec.s_table' in
  let base = [ (r_name, key) ] in
  match Catalog.find_opt (Db.catalog db) spec.Spec.t_table' with
  | None -> base
  | Some t_tbl ->
    (match Table.find t_tbl key with
     | None -> base
     | Some record ->
       let v = Row.project record.Record.row layout.Spec.split_in_t in
       (s_name, v) :: base)

let split_target_to_sources sp db ~table ~key =
  let layout = Split.layout sp in
  let spec = layout.Spec.sspec in
  let t_name = spec.Spec.t_table' in
  if String.equal table spec.Spec.r_table' then [ (t_name, key) ]
  else if String.equal table spec.Spec.s_table' then
    match Catalog.find_opt (Db.catalog db) t_name with
    | None -> []
    | Some t_tbl ->
      List.map
        (fun k -> (t_name, k))
        (Table.index_lookup t_tbl ~index:Spec.ix_t_split key)
  else []

let split ?options db spec =
  let catalog = Db.catalog db in
  let layout = Spec.split_layout catalog spec in
  let t_tbl = Catalog.find catalog spec.Spec.t_table' in
  (* One R row per T row; S holds at most one record per T row. *)
  let size = Table.cardinality t_tbl in
  ensure_table db ~size ~name:spec.Spec.r_table' (Spec.split_r_schema layout);
  ensure_table db ~size ~name:spec.Spec.s_table' (Spec.split_s_schema layout);
  (* Registered empty and filled online inside the population quanta
     (below): its only readers, the consistency checker and the
     sync-time lock map, run after population. *)
  let ix_build =
    Table.Index_build.start t_tbl ~name:Spec.ix_t_split
      ~columns:spec.Spec.split_key
  in
  let sp = Split.create catalog layout in
  let cc =
    if spec.Spec.assume_consistent then None
    else Some (Consistency.create catalog sp ~log:(Db.log db))
  in
  let rules =
    Propagator.rules ?cc ~sources:[ spec.Spec.t_table' ]
      ~targets:[ spec.Spec.r_table'; spec.Spec.s_table' ]
      ~apply:(fun ~lsn op -> Split.apply sp ~lsn op)
      ()
  in
  let pop =
    population options catalog rules (fun () ->
        Population.scan_one t_tbl ~ingest:(Split.ingest_initial sp))
  in
  { name = "split";
    spec_payload = Some (Spec.encode (Spec.Split spec));
    population =
      Population.with_fill pop
        ~fill:(fun ~limit -> Table.Index_build.step ix_build ~limit)
        ~close:(fun () -> Table.Index_build.close ix_build);
    rules;
    lock_map =
      { source_to_targets = split_source_to_targets sp db;
        target_to_sources = split_target_to_sources sp db };
    counters =
      (fun () ->
         let st = Split.stats sp in
         [ ("applied", st.Split.applied); ("ignored", st.Split.ignored);
           ("foreign", st.Split.foreign); ("unknown", Split.unknown_count sp) ])
  }

(* {1 Horizontal (selection) split} *)

let hsplit ?options db spec =
  let catalog = Db.catalog db in
  let layout = Spec.hsplit_layout catalog spec in
  let source = Catalog.find catalog spec.Spec.h_source in
  (* Either side may receive every source row. *)
  let size = Table.cardinality source in
  ensure_table db ~size ~name:spec.Spec.h_true_table layout.Spec.h_schema;
  ensure_table db ~size ~name:spec.Spec.h_false_table layout.Spec.h_schema;
  let hs = Hsplit.create catalog layout in
  let rules =
    Propagator.rules ~sources:[ spec.Spec.h_source ]
      ~targets:[ spec.Spec.h_true_table; spec.Spec.h_false_table ]
      ~apply:(fun ~lsn op -> Hsplit.apply hs ~lsn op)
      ()
  in
  { name = "hsplit";
    spec_payload = Some (Spec.encode (Spec.Hsplit spec));
    population =
      population options catalog rules (fun () ->
          Population.scan_one source ~ingest:(Hsplit.ingest_initial hs));
    rules;
    lock_map =
      { source_to_targets =
          (fun ~table:_ ~key ->
             (* The key lives in exactly one target, but lock both
                conservatively (an update may migrate the row). *)
             [ (Table.name (Hsplit.true_table hs), key);
               (Table.name (Hsplit.false_table hs), key) ]);
        target_to_sources =
          (fun ~table:_ ~key -> [ (spec.Spec.h_source, key) ]) };
    counters =
      (fun () ->
         let st = Hsplit.stats hs in
         [ ("applied", st.Hsplit.applied); ("ignored", st.Hsplit.ignored);
           ("foreign", st.Hsplit.foreign); ("migrations", st.Hsplit.migrations)
         ]) }

(* {1 Merge (union)} *)

let merge ?options db spec =
  let catalog = Db.catalog db in
  let layout = Spec.merge_layout catalog spec in
  let sources = List.map (Catalog.find catalog) spec.Spec.m_sources in
  ensure_table db
    ~size:(List.fold_left (fun n tbl -> n + Table.cardinality tbl) 0 sources)
    ~name:spec.Spec.m_target layout.Spec.m_schema;
  let mg = Merge.create catalog layout in
  let rules =
    Propagator.rules ~sources:spec.Spec.m_sources
      ~targets:[ spec.Spec.m_target ]
      ~apply:(fun ~lsn op -> Merge.apply mg ~lsn op)
      ()
  in
  { name = "merge";
    spec_payload = Some (Spec.encode (Spec.Merge spec));
    population =
      population options catalog rules (fun () ->
          Population.scan_many sources ~ingest:(Merge.ingest_initial mg));
    rules;
    lock_map =
      { source_to_targets =
          (fun ~table:_ ~key -> [ (Table.name (Merge.target mg), key) ]);
        target_to_sources =
          (fun ~table:_ ~key ->
             (* The target key could stem from any source; lock all. *)
             List.map (fun src -> (src, key)) spec.Spec.m_sources) };
    counters =
      (fun () ->
         let st = Merge.stats mg in
         [ ("applied", st.Merge.applied); ("ignored", st.Merge.ignored);
           ("foreign", st.Merge.foreign); ("collisions", st.Merge.collisions)
         ]) }

(* {1 Building from a specification} *)

let of_spec ?options db = function
  | Spec.Foj s -> foj ?options db s
  | Spec.Split s -> split ?options db s
  | Spec.Hsplit s -> hsplit ?options db s
  | Spec.Merge s -> merge ?options db s

(* {1 Rebuilding from a durable payload} *)

let of_payload ?options db payload =
  match Spec.decode payload with
  | exception Failure m -> Error m
  | spec ->
    (try Ok (of_spec ?options db spec)
     with Invalid_argument m | Failure m -> Error m)
