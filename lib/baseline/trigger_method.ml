open Nbsc_txn
open Nbsc_engine
open Nbsc_core

type t = {
  mgr : Manager.t;
  id : int;  (* interceptor id — removal must be ours only *)
  mutable triggered : int;
  mutable last : int;
}

(* Rule applications so far, effective or LSN-gated away alike. *)
let work op =
  Transformation.counter op "applied" + Transformation.counter op "ignored"

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

let install db (op : Transformation.t) =
  populate op.population;
  let t =
    { mgr = Db.manager db; id = Db.fresh_holder db; triggered = 0; last = 0 }
  in
  let trigger ~txn:_ ~lsn write =
    let before = work op in
    ignore (op.rules.apply ~lsn write);
    t.last <- work op - before;
    t.triggered <- t.triggered + t.last
  in
  Manager.intercept t.mgr ~id:t.id
    { Manager.empty_interceptor with on_write = Some trigger };
  t

let uninstall t = Manager.release t.mgr ~id:t.id
let triggered_ops t = t.triggered
let last_op_work t = t.last
