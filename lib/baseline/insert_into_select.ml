open Nbsc_lock
open Nbsc_storage
open Nbsc_txn
open Nbsc_core

type state = Not_started | Running | Finished

type t = {
  db : Db.t;
  mgr : Manager.t;
  sources : string list;
  holder : int;
  pop : Population.t;
  mutable state : state;
  mutable rows : int;
}

let next_holder =
  let counter = ref 2_000_000_000 in
  fun () ->
    incr counter;
    !counter

let foj db spec =
  let catalog = Db.catalog db in
  let layout = Spec.foj_layout catalog spec in
  ignore
    (Db.create_table db
       ~indexes:(Spec.foj_t_indexes layout)
       ~name:spec.Spec.t_table (Spec.foj_t_schema layout));
  let fj = Foj.create catalog layout in
  let r_tbl = Catalog.find catalog spec.Spec.r_table in
  let s_tbl = Catalog.find catalog spec.Spec.s_table in
  { db;
    mgr = Db.manager db;
    sources = [ spec.Spec.r_table; spec.Spec.s_table ];
    holder = next_holder ();
    pop = Population.foj fj ~r_tbl ~s_tbl;
    state = Not_started;
    rows = 0 }

let split db spec =
  let catalog = Db.catalog db in
  let layout = Spec.split_layout catalog spec in
  ignore
    (Db.create_table db ~name:spec.Spec.r_table'
       (Spec.split_r_schema layout));
  ignore
    (Db.create_table db ~name:spec.Spec.s_table'
       (Spec.split_s_schema layout));
  let t_tbl = Catalog.find catalog spec.Spec.t_table' in
  Table.add_index t_tbl ~name:Spec.ix_t_split ~columns:spec.Spec.split_key;
  let sp = Split.create catalog layout in
  { db;
    mgr = Db.manager db;
    sources = [ spec.Spec.t_table' ];
    holder = next_holder ();
    pop = Population.split sp ~t_tbl;
    state = Not_started;
    rows = 0 }

let step t ~limit =
  match t.state with
  | Finished -> `Done
  | Not_started | Running ->
    if t.state = Not_started then begin
      (* The whole point of the paper: this latch stays until the end. *)
      if
        not
          (Latch.try_latch_all (Manager.latches t.mgr) ~holder:t.holder
             t.sources)
      then
        failwith
          ("Insert_into_select: cannot latch " ^ String.concat ", " t.sources);
      t.state <- Running
    end;
    let before = Population.scanned t.pop in
    let finished = Population.step t.pop ~limit in
    t.rows <- t.rows + (Population.scanned t.pop - before);
    if finished then begin
      List.iter
        (fun table ->
           Latch.unlatch (Manager.latches t.mgr) ~holder:t.holder ~table)
        t.sources;
      List.iter
        (fun table ->
           if Catalog.mem (Db.catalog t.db) table then
             Catalog.drop (Db.catalog t.db) table)
        t.sources;
      t.state <- Finished;
      `Done
    end
    else `Running

let rows_processed t = t.rows
let finished t = t.state = Finished
