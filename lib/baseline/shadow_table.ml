open Nbsc_wal
open Nbsc_lock
open Nbsc_storage
open Nbsc_txn
open Nbsc_engine
open Nbsc_core

(* The backfill alternates [Unlatched] (user ops run; audit triggers
   capture their writes) and [Latched] (one chunk is scanned under the
   table latch) so every chunk reads a stable image — the latch is
   taken in one step and the chunk scanned in the next, which is what
   makes the latched windows visible to interleaved user transactions
   (and thus to the throughput measurement). *)
type phase =
  | Backfill of [ `Unlatched | `Latched ]
  | Catch_up
  | Done

type t = {
  db : Db.t;
  mgr : Manager.t;
  holder : int;  (* latch holder and interceptor id *)
  sources : string list;
  rules : Propagator.rules;
  pop : Population.t;
  chunk : int;
  drop_sources : bool;
  audit : (Lsn.t * Log_record.op) Queue.t;
  mutable phase : phase;
  mutable captured : int;
  mutable backfilled : int;
  mutable latched_windows : int;
}

let create db ?(drop_sources = true) ?(chunk = 256) (op : Transformation.t) =
  let mgr = Db.manager db in
  let holder = Db.fresh_holder db in
  let t =
    { db;
      mgr;
      holder;
      sources = op.rules.sources;
      rules = op.rules;
      pop = op.population;
      chunk = max 1 chunk;
      drop_sources;
      audit = Queue.create ();
      phase = Backfill `Unlatched;
      captured = 0;
      backfilled = 0;
      latched_windows = 0 }
  in
  (* The audit-log trigger: every write a user transaction performs on
     a source table — compensations during rollback included — is
     captured for later replay. This is the shadow-table method's
     analogue of reading the WAL, paid synchronously inside the user
     operation like any trigger. *)
  let capture ~txn:_ ~lsn op =
    if List.exists (String.equal (Log_record.op_table op)) t.sources then begin
      Queue.add (lsn, op) t.audit;
      t.captured <- t.captured + 1
    end
  in
  Manager.intercept mgr ~id:holder
    { Manager.empty_interceptor with on_write = Some capture };
  t

let audit_pending t = Queue.length t.audit
let captured t = t.captured
let backfilled t = t.backfilled
let latched_windows t = t.latched_windows

(* All or nothing: when some other reorganizer holds a latch we need,
   retry next quantum. *)
let latch_sources t =
  Latch.try_latch_all (Manager.latches t.mgr) ~holder:t.holder t.sources

let unlatch_sources t =
  Latch.unlatch_all (Manager.latches t.mgr) ~holder:t.holder t.sources

let drain_audit t ~limit =
  let n = ref 0 in
  while !n < limit && not (Queue.is_empty t.audit) do
    let lsn, op = Queue.pop t.audit in
    ignore (t.rules.Propagator.apply ~lsn op);
    incr n
  done

let drop_sources_now t =
  let catalog = Db.catalog t.db in
  List.iter
    (fun table -> if Catalog.mem catalog table then Catalog.drop catalog table)
    t.sources

(* Cut over: with the sources latched and the audit log empty, the
   targets are exactly the transformed image — the switch is the
   (conceptually atomic) rename. Uses the same commit fault site as the
   framework's synchronization so the crash matrix can arm it. *)
let cutover t =
  drain_audit t ~limit:max_int;
  Fault.hit "sync_commit";
  Manager.release t.mgr ~id:t.holder;
  unlatch_sources t;
  if t.drop_sources then drop_sources_now t;
  t.phase <- Done

let step t ~limit =
  (match t.phase with
   | Done -> ()
   | Backfill `Unlatched ->
     (* The audit log only accumulates during the backfill — replay
        must wait for the copy to finish (the population's initial
        inserts assume they are the only writer of the targets). The
        growing queue during a long backfill is part of the method's
        honest cost. *)
     if latch_sources t then begin
       t.latched_windows <- t.latched_windows + 1;
       t.phase <- Backfill `Latched
     end;
     Fault.hit "quantum_end"
   | Backfill `Latched ->
     let before = Population.scanned t.pop in
     let finished = Population.step t.pop ~limit:(min limit t.chunk) in
     t.backfilled <- t.backfilled + (Population.scanned t.pop - before);
     unlatch_sources t;
     t.phase <- (if finished then Catch_up else Backfill `Unlatched);
     Fault.hit "quantum_end"
   | Catch_up ->
     if Queue.is_empty t.audit then begin
       if latch_sources t then cutover t
     end
     else drain_audit t ~limit;
     Fault.hit "quantum_end");
  t.phase = Done
