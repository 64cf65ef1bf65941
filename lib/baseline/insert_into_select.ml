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

let create db (op : Transformation.t) =
  { db;
    mgr = Db.manager db;
    sources = op.rules.sources;
    holder = Db.fresh_holder db;
    pop = op.population;
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
      Latch.unlatch_all (Manager.latches t.mgr) ~holder:t.holder t.sources;
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
