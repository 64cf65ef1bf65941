open Nbsc_storage
module Db = Nbsc_engine.Db

type config = {
  scan_batch : int;
  propagate_batch : int;
}

let default_config = { scan_batch = 256; propagate_batch = 256 }

type t = {
  db : Db.t;
  config : config;
  name : string;
  pop : Population.t;
  prop : Propagator.t;
  mutable dropped : bool;
}

let create db ?(config = default_config) spec =
  (* A materialized view is an FOJ transformation that never
     synchronizes: same preparation, population and redo rules, but no
     lock transfer (the view never takes over from its sources). The
     executor's lifecycle is not used — the view propagates forever and
     is never registered as a completable background job. *)
  let op = Transformation.foj ~transfer_locks:false db spec in
  { db;
    config;
    name = spec.Spec.t_table;
    pop = op.population;
    prop = Transformation.start_propagator (Db.manager db) op.rules;
    dropped = false }

let populated t = Population.finished t.pop

let step t =
  if t.dropped then false
  else if not (Population.finished t.pop) then begin
    ignore (Population.step t.pop ~limit:t.config.scan_batch);
    true
  end
  else Propagator.step t.prop ~limit:t.config.propagate_batch > 0

let refresh t =
  if not t.dropped then begin
    while not (Population.finished t.pop) do
      ignore (Population.step t.pop ~limit:max_int)
    done;
    ignore (Propagator.run_to_head t.prop)
  end

let lag t = Propagator.lag t.prop
let table t = t.name

let drop t =
  if not t.dropped then begin
    t.dropped <- true;
    Population.close t.pop;
    Propagator.close t.prop;
    if Catalog.mem (Db.catalog t.db) t.name then
      Catalog.drop (Db.catalog t.db) t.name
  end
