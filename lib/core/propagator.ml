open Nbsc_value
open Nbsc_wal
open Nbsc_lock
open Nbsc_txn

type rules = {
  sources : string list;
  targets : string list;
  apply : lsn:Lsn.t -> Log_record.op -> (string * Row.Key.t) list;
  cc : Consistency.t option;
  transfer_locks : bool;
}

let rules ?cc ?(transfer_locks = true) ~sources ~targets ~apply () =
  { sources; targets; apply; cc; transfer_locks }

type t = {
  mgr : Manager.t;
  rules : rules;
  cursor : Log.Cursor.t;
  (* WAL-retention pin on [cursor]'s position. *)
  pin : Manager.pin;
  (* Source-table name -> position in [rules.sources], and the target
     set — precomputed because [handle_op] consults them for every log
     record on the redo path. *)
  source_index : (string, int) Hashtbl.t;
  target_set : (string, unit) Hashtbl.t;
  (* Transactions whose records must be ignored wholesale. Crash
     recovery rolls loser transactions back without logging the undo, so
     a propagator resumed from a retained log suffix would otherwise
     apply loser operations that no Abort record ever compensates. *)
  skip_set : (Log_record.txn_id, unit) Hashtbl.t;
  mutable processed : int;
  mutable transferred : int;
}

let create ?(skip = []) mgr rules ~from =
  let source_index = Hashtbl.create 8 in
  List.iteri
    (fun i s ->
       if not (Hashtbl.mem source_index s) then Hashtbl.add source_index s i)
    rules.sources;
  let target_set = Hashtbl.create 8 in
  List.iter (fun tgt -> Hashtbl.replace target_set tgt ()) rules.targets;
  let skip_set = Hashtbl.create 8 in
  List.iter (fun txn -> Hashtbl.replace skip_set txn ()) skip;
  let cursor = Log.Cursor.make (Manager.log mgr) ~from in
  let pin = Manager.pin_wal mgr (fun () -> Log.Cursor.position cursor) in
  { mgr;
    rules;
    cursor;
    pin;
    source_index;
    target_set;
    skip_set;
    processed = 0;
    transferred = 0 }

let close t = Manager.unpin_wal t.mgr t.pin

let provenance_of t table = Hashtbl.find_opt t.source_index table

let transfer_locks t ~owner ~source touched =
  if not t.rules.transfer_locks then ()
  else
  match provenance_of t source with
  | None -> ()
  | Some i ->
    let locks = Manager.locks t.mgr in
    let lock = { Compat.mode = Compat.X; provenance = Compat.Source i } in
    List.iter
      (fun (table, key) ->
         (* Transfers are upserts; only count the ones that actually
            add coverage, or re-propagating a record (resume, repeated
            transfer) inflates the metric. *)
         if Lock_table.transfer locks ~owner ~table ~key lock then
           t.transferred <- t.transferred + 1)
      touched

let is_transferred_on_target t ~table (lock : Compat.lock) =
  (match lock.Compat.provenance with
   | Compat.Source _ -> true
   | Compat.Native -> false)
  && Hashtbl.mem t.target_set table

let release_transferred t ~owner =
  Lock_table.release_owner_where (Manager.locks t.mgr) ~owner
    (fun ~table ~lock -> is_transferred_on_target t ~table lock)

let handle_op t ~txn ~lsn op =
  let source = Log_record.op_table op in
  if Hashtbl.mem t.source_index source then begin
    let touched = t.rules.apply ~lsn op in
    (match t.rules.cc with
     | Some cc -> Consistency.note_touched cc touched
     | None -> ());
    (* Transferred locks extend a {e live} transaction's source locks to
       the target records it implicates. A transaction that already
       committed or rolled back holds no source locks — its Commit /
       Abort_done record (later in the log) would release the transfer
       immediately anyway. Skipping the dead-owner upsert matters: a
       caught-up propagator processes almost every record after its
       transaction finished. *)
    if Manager.is_active t.mgr txn then
      transfer_locks t ~owner:txn ~source touched
  end

let handle_record t (r : Log_record.t) =
  if Hashtbl.mem t.skip_set r.Log_record.txn then ()
  else
  match r.Log_record.body with
  | Log_record.Op op -> handle_op t ~txn:r.Log_record.txn ~lsn:r.Log_record.lsn op
  | Log_record.Clr { op; _ } ->
    handle_op t ~txn:r.Log_record.txn ~lsn:r.Log_record.lsn op
  | Log_record.Commit | Log_record.Abort_done ->
    release_transferred t ~owner:r.Log_record.txn
  | Log_record.Cc_begin { key; _ } ->
    (match t.rules.cc with
     | Some cc -> Consistency.on_cc_begin cc key
     | None -> ())
  | Log_record.Cc_ok { key; image; _ } ->
    (match t.rules.cc with
     | Some cc -> Consistency.on_cc_ok cc ~lsn:r.Log_record.lsn key image
     | None -> ())
  | Log_record.Begin | Log_record.Abort_begin | Log_record.Fuzzy_mark _
  | Log_record.Checkpoint _ | Log_record.Job_state _ | Log_record.Job_done _
  | Log_record.Watermark _ ->
    ()

let step t ~limit =
  let consumed = ref 0 in
  let continue = ref true in
  while !continue && !consumed < limit do
    match Log.Cursor.next t.cursor with
    | None -> continue := false
    | Some r ->
      handle_record t r;
      incr consumed;
      t.processed <- t.processed + 1
  done;
  !consumed

let lag t = Log.Cursor.lag t.cursor

let rec run_to_head t =
  let n = step t ~limit:max_int in
  (* Rule application never appends to the log, but the consistency
     checker does not run inside this loop, so one pass suffices; be
     defensive anyway. *)
  if lag t > 0 then n + run_to_head t else n

let position t = Log.Cursor.position t.cursor
let records_processed t = t.processed
let locks_transferred t = t.transferred

let transfer_current_source_locks t to_targets =
  let locks = Manager.locks t.mgr in
  (* One pass over the grants table for all sources at once;
     per-source [locked_resources] would rescan every granted lock once
     per source table. *)
  List.iter
    (fun (source, key, owner, (lock : Compat.lock)) ->
       match Hashtbl.find_opt t.source_index source with
       | None -> ()
       | Some i ->
         if Manager.is_active t.mgr owner then
           List.iter
             (fun (table, tkey) ->
                let target_lock =
                  { Compat.mode = lock.Compat.mode;
                    provenance = Compat.Source i }
                in
                if Lock_table.transfer locks ~owner ~table ~key:tkey target_lock
                then t.transferred <- t.transferred + 1)
             (to_targets ~table:source ~key))
    (Lock_table.locked_resources_in locks ~tables:t.rules.sources)
