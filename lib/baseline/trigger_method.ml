open Nbsc_storage
open Nbsc_txn
open Nbsc_engine
open Nbsc_core

type engine = E_foj of Foj.t | E_split of Split.t

type t = {
  mgr : Manager.t;
  id : int;  (* interceptor id — removal must be ours only *)
  engine : engine;
  mutable triggered : int;
  mutable last : int;
}

let applied = function
  | E_foj fj -> (Foj.stats fj).Foj.applied + (Foj.stats fj).Foj.ignored
  | E_split sp -> (Split.stats sp).Split.applied + (Split.stats sp).Split.ignored

let install t =
  let trigger ~txn:_ ~lsn op =
    let before = applied t.engine in
    (match t.engine with
     | E_foj fj -> ignore (Foj.apply fj ~lsn op)
     | E_split sp -> ignore (Split.apply sp ~lsn op));
    t.last <- applied t.engine - before;
    t.triggered <- t.triggered + t.last
  in
  Manager.intercept t.mgr ~id:t.id
    { Manager.empty_interceptor with on_write = Some trigger }

(* Populate the target in bounded chunks, consulting the standard
   quantum fault-injection site between chunks — Ronström's scan is
   conceptually latched, but its copy loop crashes at the same points
   the framework's population does, so the crash matrix can arm it. *)
let populate pop =
  let rec go () =
    let finished = Population.step pop ~limit:256 in
    Fault.hit "quantum_end";
    if not finished then go ()
  in
  go ()

(* Targets are sized from the sources exactly as the paper's method
   sizes them, so a comparison measures the method, not hash-table
   growth. *)
let install_foj db spec =
  let catalog = Db.catalog db in
  let layout = Spec.foj_layout catalog spec in
  let r_tbl = Catalog.find catalog spec.Spec.r_table in
  let s_tbl = Catalog.find catalog spec.Spec.s_table in
  ignore
    (Db.create_table db
       ~size:(Table.cardinality r_tbl + Table.cardinality s_tbl)
       ~indexes:(Spec.foj_t_indexes layout)
       ~name:spec.Spec.t_table (Spec.foj_t_schema layout));
  let fj = Foj.create catalog layout in
  populate (Population.foj fj ~r_tbl ~s_tbl);
  let t =
    { mgr = Db.manager db;
      id = Db.fresh_holder db;
      engine = E_foj fj;
      triggered = 0;
      last = 0 }
  in
  install t;
  t

let install_split db spec =
  let catalog = Db.catalog db in
  let layout = Spec.split_layout catalog spec in
  let t_tbl = Catalog.find catalog spec.Spec.t_table' in
  let size = Table.cardinality t_tbl in
  ignore
    (Db.create_table db ~size ~name:spec.Spec.r_table'
       (Spec.split_r_schema layout));
  ignore
    (Db.create_table db ~size ~name:spec.Spec.s_table'
       (Spec.split_s_schema layout));
  (* Ronström's method builds its index blocking, like its scan. *)
  Table.add_index t_tbl ~name:Spec.ix_t_split ~columns:spec.Spec.split_key;
  let sp = Split.create catalog layout in
  populate (Population.split sp ~t_tbl);
  let t =
    { mgr = Db.manager db;
      id = Db.fresh_holder db;
      engine = E_split sp;
      triggered = 0;
      last = 0 }
  in
  install t;
  t

let uninstall t = Manager.release t.mgr ~id:t.id
let triggered_ops t = t.triggered
let last_op_work t = t.last
