open Nbsc_value
open Nbsc_wal
open Nbsc_lock
open Nbsc_storage
module Obs = Nbsc_obs.Obs
module Json = Nbsc_obs.Json

type txn_id = Log_record.txn_id

type status = Active | Committed | Aborted

type error =
  [ `Blocked of txn_id list
  | `Deadlock of txn_id list
  | `Latched of string
  | `Frozen of string
  | `Duplicate_key
  | `Not_found
  | `No_table of string
  | `Txn_not_active
  | `Abort_only
  | `Key_update
  | `Disk_full ]

type isolation = [ `Read_committed | `Snapshot ]

type txn = {
  id : txn_id;
  mutable txn_status : status;
  mutable first_lsn : Lsn.t;
  mutable last_lsn : Lsn.t;
  mutable abort_only : bool;
  snapshot : Lsn.t option;  (* Snapshot isolation: reads as of this LSN *)
  (* Keys this transaction pushed versions on (its updates and deletes),
     pruned or queued at its finish. *)
  mutable pushed : (Table.t * Row.Key.t) list;
}

(* A key whose chain waits for the horizon to pass [p_lsn]. *)
type pending = { p_table : Table.t; p_key : Row.Key.t; p_lsn : Lsn.t }

type pin = int

type interceptor = {
  frozen : string list;
  extra_locks :
    (txn:txn_id -> table:string -> key:Row.Key.t -> mode:Compat.mode ->
     Lock_table_many.request list)
      option;
  on_write : (txn:txn_id -> lsn:Lsn.t -> Log_record.op -> unit) option;
  on_access : (table:string -> key:Row.Key.t -> unit) option;
}

type installed = {
  owner : int;  (* the holder id it was installed under *)
  icpt : interceptor;
  cutoff : txn_id;  (* last id begun before [icpt.frozen] froze *)
}

(* Check the low-water mark only every this many live records: a
   truncation pass walks actives and pins, so doing it per commit
   would put an O(active) scan on the hot path for nothing. *)
let truncate_check_interval = 4 * 1024

let reclaim_budget = 4

type t = {
  log : Log.t;
  locks : Lock_table.t;
  latches : Latch.t;
  catalog : Catalog.t;
  (* Active transactions, and committed ones a live snapshot began
     before; an aborted one leaves at its abort, its id into [aborted]. *)
  txns : (txn_id, txn) Hashtbl.t;
  actives : (txn_id, txn) Hashtbl.t;  (* the Active subset of txns *)
  retained : txn Queue.t;  (* the committed subset of txns, commit order *)
  aborted : (txn_id, unit) Hashtbl.t;
  pending : pending Queue.t;  (* chains queued behind the horizon *)
  pins : (pin, unit -> Lsn.t) Hashtbl.t;  (* registered cursor positions *)
  mutable next_pin : pin;
  mutable durable_floor : Lsn.t option;  (* last durable checkpoint LSN *)
  mutable truncate_after : int;  (* re-check low water at this length *)
  mutable group_window : int;  (* commits per durability barrier *)
  mutable pending_syncs : int;  (* commits since the last barrier *)
  mutable disk_full : bool;  (* degraded: a durable append hit ENOSPC *)
  wait_graph : Wait_graph.t;
  victims : (txn_id, unit) Hashtbl.t;  (* sentenced by deadlock handling *)
  mutable next_id : txn_id;
  mutable first_id : txn_id;  (* the first id this manager handed out *)
  mutable interceptors : installed list;  (* newest first, none empty *)
  (* Active `Snapshot transactions. Feeds the tables' version-retention
     hint: while zero, system overwrites skip version pushes entirely
     (nobody can ever resolve the superseded state), and a finishing
     writer drops its chains whole. *)
  mutable snapshot_txns : int;
  (* `Snapshot transactions in begin order; finished ones leave from
     the front when the oldest live one is asked for. *)
  snapshots : txn Queue.t;
  obs : Obs.Registry.t;
  n_ops : Obs.Counter.t;
  n_commits : Obs.Counter.t;
  n_aborts : Obs.Counter.t;
  n_blocked : Obs.Counter.t;
  n_deadlocks : Obs.Counter.t;
  n_victims : Obs.Counter.t;
  g_low_water : Obs.Gauge.t;
  n_versions_reclaimed : Obs.Counter.t;
  h_batch : Obs.Histogram.t;  (* engine.commit_batch_size *)
}

(* Wire the table's version policy to this manager: system overwrites
   keep versions only while a snapshot is open, and its chains queue
   here. *)
let track_table t table =
  Table.set_version_policy table
    ~retain:(fun () -> t.snapshot_txns > 0)
    ~defer:(fun key lsn ->
        Queue.push { p_table = table; p_key = key; p_lsn = lsn } t.pending)

let create ?log ?obs catalog =
  let obs = match obs with Some r -> r | None -> Obs.Registry.create () in
  let t =
    { log = (match log with Some l -> l | None -> Log.create ());
      locks = Lock_table.create ();
      latches = Latch.create ();
      catalog;
      txns = Hashtbl.create 64;
      actives = Hashtbl.create 64;
      retained = Queue.create ();
      aborted = Hashtbl.create 16;
      pending = Queue.create ();
      pins = Hashtbl.create 8;
      next_pin = 1;
      durable_floor = None;
      truncate_after = truncate_check_interval;
      group_window = 1;
      pending_syncs = 0;
      disk_full = false;
      wait_graph = Wait_graph.create ~obs ();
      victims = Hashtbl.create 16;
      next_id = 1;
      first_id = 1;
      interceptors = [];
      snapshot_txns = 0;
      snapshots = Queue.create ();
      obs;
      n_ops = Obs.Registry.counter obs "txn.ops";
      n_commits = Obs.Registry.counter obs "txn.commits";
      n_aborts = Obs.Registry.counter obs "txn.aborts";
      n_blocked = Obs.Registry.counter obs "txn.blocked";
      n_deadlocks = Obs.Registry.counter obs "txn.deadlocks";
      n_victims = Obs.Registry.counter obs "txn.victims";
      g_low_water = Obs.Registry.gauge obs "wal.low_water";
      n_versions_reclaimed =
        Obs.Registry.counter obs "storage.versions_reclaimed";
      h_batch =
        Obs.Registry.histogram
          ~edges:[ 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024. ]
          obs "engine.commit_batch_size" }
  in
  (* Active-transaction count and the WAL shape are derived, so they
     are probes, not write-through counters. *)
  Obs.Registry.probe obs "txn.active" (fun () ->
      float_of_int (Hashtbl.length t.actives));
  Obs.Registry.probe obs "txn.tracked" (fun () ->
      float_of_int (Hashtbl.length t.txns));
  Obs.Registry.probe obs "wal.records" (fun () ->
      float_of_int (Log.length t.log));
  Obs.Registry.probe obs "wal.segments" (fun () ->
      float_of_int (Log.segments t.log));
  Obs.Registry.probe obs "wal.truncated_total" (fun () ->
      float_of_int (Log.truncated_total t.log));
  (* Version-chain population is derived state, so a probe. *)
  Obs.Registry.probe obs "storage.versions_live" (fun () ->
      float_of_int
        (List.fold_left
           (fun acc table -> acc + Table.versions_count table)
           0 (Catalog.tables t.catalog)));
  Obs.Registry.probe obs "storage.versions_pending" (fun () ->
      float_of_int (Queue.length t.pending));
  (* Tables created later are wired by [track_table] (the engine facade
     calls it). *)
  List.iter (track_table t) (Catalog.tables catalog);
  t

let obs t = t.obs
let log t = t.log
let locks t = t.locks
let latches t = t.latches
let catalog t = t.catalog
let wait_graph t = t.wait_graph

let is_victim t id = Hashtbl.mem t.victims id

let bump_txn_ids t ~above =
  if above >= t.next_id then begin
    if t.first_id = t.next_id then t.first_id <- above + 1;
    t.next_id <- above + 1
  end

let begin_txn ?(isolation = `Read_committed) t =
  let id = t.next_id in
  t.next_id <- id + 1;
  let lsn = Log.append t.log ~txn:id ~prev_lsn:Lsn.zero Log_record.Begin in
  (* A snapshot transaction reads as of its Begin record: every commit
     that preceded it has a Commit LSN strictly below [lsn]. *)
  let snapshot =
    match isolation with `Snapshot -> Some lsn | `Read_committed -> None
  in
  let txn =
    { id; txn_status = Active; first_lsn = lsn; last_lsn = lsn;
      abort_only = false; snapshot; pushed = [] }
  in
  if snapshot <> None then begin
    t.snapshot_txns <- t.snapshot_txns + 1;
    Queue.push txn t.snapshots
  end;
  Hashtbl.replace t.txns id txn;
  Hashtbl.replace t.actives id txn;
  id

let find_txn t id =
  match Hashtbl.find_opt t.txns id with
  | Some txn -> Some txn
  | None -> None

(* A finished transaction's id that left [txns] is aborted when
   [aborted] holds it and committed otherwise; an id this manager never
   handed out reads as long gone. *)
let status t id =
  match find_txn t id with
  | Some txn -> txn.txn_status
  | None ->
    if id < t.first_id || id >= t.next_id || Hashtbl.mem t.aborted id then
      Aborted
    else Committed

let is_active t id =
  match find_txn t id with
  | Some txn -> txn.txn_status = Active
  | None -> false

let active_snapshot t =
  Hashtbl.fold
    (fun id txn acc -> (id, txn.first_lsn) :: acc)
    t.actives []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let active_count t = Hashtbl.length t.actives

(* {2 MVCC visibility}

   Version stamps resolve through [txns]: stamp 0 is the
   committed-system sentinel ("committed at its own LSN" - bulk loads,
   snapshot restores, system/CLR writes); any other stamp is a
   transaction whose Commit record - its [last_lsn] - is the version's
   commit point. A committed transaction leaves [txns] once the horizon
   passes its commit, so every live and future snapshot orders it
   before its begin: its stamps read as committed at their own LSN,
   like stamp 0, which sorts the same way against every snapshot. *)

(* Resolve a version stamp: [`At commit_lsn] for committed state,
   [`Live] for a still-active writer, [`Dead] for an aborted one.
   Stamp 0 — system writes — commits at its own [lsn]. So does the
   stamp of a committed writer the manager no longer tracks: it left
   the transaction table only once the horizon passed its commit, so
   it committed below every live snapshot's LSN, and the stamp's own
   LSN, below its commit, sorts the same way against each of them. *)
let classify_version t ~txn ~lsn =
  if txn = 0 then `At lsn
  else
    match Hashtbl.find_opt t.txns txn with
    | Some tx ->
      (match tx.txn_status with
       | Committed -> `At tx.last_lsn
       | Active -> `Live
       | Aborted -> `Dead)
    | None -> if Hashtbl.mem t.aborted txn then `Dead else `At lsn

let rec oldest_snapshot t =
  match Queue.peek_opt t.snapshots with
  | None -> None
  | Some txn when txn.txn_status = Active -> txn.snapshot
  | Some _ ->
    ignore (Queue.pop t.snapshots);
    oldest_snapshot t

(* Resolve the row image of [key] as of LSN [at], for reader [self]:
   the newest state that is the reader's own write or committed at or
   below [at]. The heap record is the newest state; older ones hang
   off the version chain, newest first. A tombstone ([v_row = None])
   resolves to "no row". Lock-free by construction. *)
let resolve_visible t ~self ~at table key =
  let visible ~txn ~lsn =
    txn = self
    || (match classify_version t ~txn ~lsn with
        | `At c -> Lsn.(c <= at)
        | `Live | `Dead -> false)
  in
  let rec walk = function
    | [] -> None
    | v :: rest ->
      if visible ~txn:v.Table.v_txn ~lsn:v.Table.v_lsn then v.Table.v_row
      else walk rest
  in
  match Table.find table key with
  | Some r when visible ~txn:r.Record.txn ~lsn:r.Record.lsn ->
    Some r.Record.row
  | Some _ | None -> walk (Table.versions table key)

(* {2 WAL retention}

   Who may still need an old log record: an active transaction's undo
   chain (rollback walks back to its first LSN), a registered cursor (a
   propagator catching a new table up — registered via [pin_wal] so the
   low-water computation sees it), and crash recovery (everything above
   the last durable checkpoint). Everything below the minimum of those
   is reclaimable; [truncate_wal] executes the cut and the commit/abort
   path re-checks it every [truncate_check_interval] live records. *)

let pin_wal t position =
  let id = t.next_pin in
  t.next_pin <- id + 1;
  Hashtbl.replace t.pins id position;
  id

let unpin_wal t pin = Hashtbl.remove t.pins pin

let set_durable_floor t lsn = t.durable_floor <- Some lsn

let wal_low_water t =
  let low = ref (Lsn.next (Log.head t.log)) in
  let note l = if Lsn.(l < !low) then low := l in
  Hashtbl.iter (fun _ txn -> note txn.first_lsn) t.actives;
  Hashtbl.iter (fun _ position -> note (position ())) t.pins;
  (match t.durable_floor with
   | Some durable -> note (Lsn.next durable)
   | None -> ());
  !low

(* {2 Version reclamation}

   The horizon is the oldest active snapshot, or past the log head when
   none is active. Only snapshot reads ([resolve_visible]) walk a
   chain; rollback and recovery rebuild state from the WAL and
   checkpoint images. So the WAL low-water mark (undo chains, a
   propagator's pin, the durable floor) never holds versions back.

   Versions go when the transaction that pushed them finishes: with no
   snapshot open its chains are dropped whole, since no other writer's
   stamp can sit on a chain it held the write lock on. Otherwise a
   committed writer queues its keys at its commit LSN and an aborted
   one prunes its dead entries on the spot. System overwrites queue
   their keys through the tables' policy. Each later writer commit
   drains at most [reclaim_budget] queue entries per key it pushed on,
   in queue order, while the front's LSN is below the horizon. *)

let horizon t =
  match oldest_snapshot t with
  | Some s -> s
  | None -> Lsn.next (Log.head t.log)

(* Committed transactions leave [txns] once the horizon passes their
   commit: [classify_version] then answers for them without history. *)
let forget_committed t ~horizon =
  while
    (not (Queue.is_empty t.retained))
    && Lsn.((Queue.peek t.retained).last_lsn < horizon)
  do
    Hashtbl.remove t.txns (Queue.pop t.retained).id
  done

let note_reclaimed t n =
  if n > 0 then Obs.Counter.add t.n_versions_reclaimed n

(* Prune up to [budget] queued chains whose queue LSN the horizon has
   passed. A chain left behind is queued again at the log head. *)
let drain t ~horizon ~budget =
  let classify ~txn ~lsn = classify_version t ~txn ~lsn in
  let requeue = Log.head t.log in
  let reclaimed = ref 0 and left = ref budget in
  while
    !left > 0
    && (not (Queue.is_empty t.pending))
    && Lsn.((Queue.peek t.pending).p_lsn < horizon)
  do
    let p = Queue.pop t.pending in
    decr left;
    reclaimed :=
      !reclaimed
      + Table.prune_versions p.p_table p.p_key ~horizon ~classify
          ~dequeued:true ~requeue
  done;
  !reclaimed

(* The chains [txn] pushed on, at its finish. *)
let reclaim_own t txn ~horizon =
  let reclaimed = ref 0 in
  (if t.snapshot_txns = 0 then
     List.iter
       (fun (table, key) ->
          reclaimed := !reclaimed + Table.drop_versions table key)
       txn.pushed
   else if txn.txn_status = Aborted then begin
     let classify ~txn ~lsn = classify_version t ~txn ~lsn in
     let requeue = Log.head t.log in
     List.iter
       (fun (table, key) ->
          reclaimed :=
            !reclaimed
            + Table.prune_versions table key ~horizon ~classify
                ~dequeued:false ~requeue)
       txn.pushed
   end
   else
     List.iter
       (fun (table, key) -> Table.defer_versions table key ~lsn:txn.last_lsn)
       txn.pushed);
  txn.pushed <- [];
  !reclaimed

let gc_versions t =
  let horizon = horizon t in
  forget_committed t ~horizon;
  let reclaimed = drain t ~horizon ~budget:(Queue.length t.pending) in
  note_reclaimed t reclaimed;
  reclaimed

let truncate_wal t =
  let low = wal_low_water t in
  Log.truncate_to t.log low;
  Obs.Gauge.set t.g_low_water (float_of_int (Lsn.to_int low));
  t.truncate_after <- Log.length t.log + truncate_check_interval;
  low

let maybe_truncate t =
  if Log.length t.log >= t.truncate_after then ignore (truncate_wal t)

(* {2 Group commit}

   Commits inside a batch window share one durability barrier: the
   persist sink buffers encoded records and [Log.sync] flushes them,
   so a window of w commits costs one write+flush instead of w (one
   per record before the buffered sink). The low-water/truncation
   re-check rides the same barrier — it is the natural "end of a unit
   of durable work" point. With the default window of 1 every commit
   is durable at its ack, exactly the pre-group-commit contract. *)

let sync_barrier t =
  Log.sync t.log;
  Obs.Histogram.observe t.h_batch (float_of_int t.pending_syncs);
  t.pending_syncs <- 0

let flush_commits t =
  if t.pending_syncs > 0 then begin
    sync_barrier t;
    maybe_truncate t
  end

(* {2 Degraded mode: disk full}

   The persist sink flags the manager when a durable append hits
   [ENOSPC]: acknowledging new writes against a disk that cannot hold
   their log records would turn the ack into a lie. While degraded,
   write operations and commits are refused with [`Disk_full]; reads
   and in-flight aborts proceed (rollback only needs the in-memory
   log — its CLRs join the buffered suffix and flush once space
   returns). The sink clears the flag on the next successful physical
   append, so recovery from a transient full disk is automatic. *)

let set_disk_full t = t.disk_full <- true

let clear_disk_full t = t.disk_full <- false

let disk_full t = t.disk_full

let set_group_commit t window =
  if window <= 0 then invalid_arg "Manager.set_group_commit: window";
  t.group_window <- window;
  (* Shrinking the window below what is already pending must not leave
     acked commits waiting for a barrier that never comes. *)
  if t.pending_syncs >= t.group_window then flush_commits t

(* [commit] increments [pending_syncs] before [n_commits], so outside
   of [commit] the difference is exactly the commits the last barrier
   covered. Commits flush in commit order — one buffered sink, one
   log — which makes the count a durability floor, not just a size. *)
let synced_commits t = Obs.Counter.value t.n_commits - t.pending_syncs

let mark_abort_only t id =
  match find_txn t id with
  | Some txn when txn.txn_status = Active -> txn.abort_only <- true
  | Some _ | None -> ()

let is_abort_only t id =
  match find_txn t id with Some txn -> txn.abort_only | None -> false

(* {2 Interceptors}

   One registry, walked once per call site: [check_access] for the
   freeze, [take_lock] for the extra requests, [fire_write] and
   [fire_access] after the operation. Empty records are never stored,
   so with no change in flight every walk is one empty-list match. The
   walks are plain recursive loops: a closure per operation (as
   [List.exists] would take) allocates on the hot path. *)

let empty_interceptor =
  { frozen = []; extra_locks = None; on_write = None; on_access = None }

let is_empty icpt =
  icpt.frozen = [] && Option.is_none icpt.extra_locks
  && Option.is_none icpt.on_write && Option.is_none icpt.on_access

let release t ~id =
  t.interceptors <- List.filter (fun e -> e.owner <> id) t.interceptors

let intercept t ~id icpt =
  (* A freeze dates from when it began, not from a later replacement
     that keeps it (the record also gaining lock extensions, say). *)
  let cutoff =
    match List.find_opt (fun e -> e.owner = id) t.interceptors with
    | Some e when e.icpt.frozen <> [] -> e.cutoff
    | Some _ | None -> t.next_id - 1
  in
  release t ~id;
  if not (is_empty icpt) then
    t.interceptors <- { owner = id; icpt; cutoff } :: t.interceptors

let rec mem_table table = function
  | [] -> false
  | name :: rest -> String.equal name table || mem_table table rest

let rec frozen_for txn_id table = function
  | [] -> false
  | e :: rest ->
    (txn_id > e.cutoff && mem_table table e.icpt.frozen)
    || frozen_for txn_id table rest

let rec extra_requests entries ~txn ~table ~key ~mode =
  match entries with
  | [] -> []
  | { icpt = { extra_locks = Some f; _ }; _ } :: rest ->
    (match extra_requests rest ~txn ~table ~key ~mode with
     | [] -> f ~txn ~table ~key ~mode
     | more -> f ~txn ~table ~key ~mode @ more)
  | _ :: rest -> extra_requests rest ~txn ~table ~key ~mode

let rec fire_write entries ~txn ~lsn op =
  match entries with
  | [] -> ()
  | { icpt = { on_write = Some f; _ }; _ } :: rest ->
    f ~txn ~lsn op;
    fire_write rest ~txn ~lsn op
  | _ :: rest -> fire_write rest ~txn ~lsn op

let rec fire_access entries ~table ~key =
  match entries with
  | [] -> ()
  | { icpt = { on_access = Some f; _ }; _ } :: rest ->
    f ~table ~key;
    fire_access rest ~table ~key
  | _ :: rest -> fire_access rest ~table ~key

(* Pre-flight checks shared by all operations. *)
let check_access t txn_id ~table =
  match find_txn t txn_id with
  | None -> Error `Txn_not_active
  | Some txn ->
    if txn.txn_status <> Active then Error `Txn_not_active
    else if txn.abort_only then Error `Abort_only
    else begin
      match Latch.latched_by t.latches ~table with
      | Some holder when holder <> txn_id -> Error (`Latched table)
      | Some _ | None ->
        if frozen_for txn_id table t.interceptors then Error (`Frozen table)
        else Ok txn
    end

let finish t txn final_status =
  txn.txn_status <- final_status;
  if txn.snapshot <> None then t.snapshot_txns <- t.snapshot_txns - 1;
  Hashtbl.remove t.actives txn.id;
  Wait_graph.remove_txn t.wait_graph ~owner:txn.id;
  Lock_table.release_owner t.locks ~owner:txn.id

(* Rollback: walk the undo chain from last_lsn, applying inverses and
   emitting CLRs. CLRs themselves are never undone; they skip to their
   undo_next (ARIES). *)
let rollback t txn =
  let append body =
    let lsn = Log.append t.log ~txn:txn.id ~prev_lsn:txn.last_lsn body in
    txn.last_lsn <- lsn;
    lsn
  in
  ignore (append Log_record.Abort_begin);
  let rec undo lsn =
    if Lsn.(lsn > Lsn.zero) then begin
      let record = Log.get t.log lsn in
      match record.Log_record.body with
      | Log_record.Op op ->
        let table_name = Log_record.op_table op in
        (match Catalog.find_opt t.catalog table_name with
         | None ->
           (* Table dropped mid-transaction: nothing to undo there. *)
           undo record.Log_record.prev_lsn
         | Some table ->
           let key = Log_record.op_key (Table.schema table) op in
           let inverse = Log_record.invert ~key op in
           let clr_lsn =
             append
               (Log_record.Clr
                  { undo_next = record.Log_record.prev_lsn; op = inverse })
           in
           (match Apply.op_to_table table ~lsn:clr_lsn inverse with
            | Ok () -> ()
            | Error (`Duplicate_key | `Not_found) ->
              (* Strict 2PL means our updates cannot have been clobbered;
                 failure here is a bug. *)
              assert false);
           (* Compensations are writes too: trigger-style maintenance
              (write callbacks) must see the inverse or an aborted
              transaction leaves their derived state stale. *)
           fire_write t.interceptors ~txn:txn.id ~lsn:clr_lsn inverse;
           undo record.Log_record.prev_lsn)
      | Log_record.Clr { undo_next; _ } -> undo undo_next
      | Log_record.Begin -> ()
      | Log_record.Commit | Log_record.Abort_begin | Log_record.Abort_done
      | Log_record.Fuzzy_mark _ | Log_record.Cc_begin _ | Log_record.Cc_ok _
      | Log_record.Checkpoint _ | Log_record.Job_state _
      | Log_record.Job_done _ | Log_record.Watermark _ ->
        undo record.Log_record.prev_lsn
    end
  in
  (* Start below the Abort_begin we just wrote. *)
  let start =
    let r = Log.get t.log txn.last_lsn in
    r.Log_record.prev_lsn
  in
  undo start;
  ignore (append Log_record.Abort_done)

let abort_active t txn =
  rollback t txn;
  finish t txn Aborted;
  Hashtbl.remove t.txns txn.id;
  Hashtbl.replace t.aborted txn.id ();
  let horizon = horizon t in
  forget_committed t ~horizon;
  note_reclaimed t (reclaim_own t txn ~horizon);
  maybe_truncate t;
  Obs.Counter.incr t.n_aborts;
  if Obs.Registry.tracing t.obs then
    Obs.point t.obs "txn.abort" [ ("txn", Json.Int txn.id) ]

let abort t txn_id =
  match find_txn t txn_id with
  | None -> Error `Txn_not_active
  | Some txn ->
    if txn.txn_status <> Active then Error `Txn_not_active
    else begin
      abort_active t txn;
      Ok ()
    end

let rec take_lock t txn_id ~table ~key mode =
  let base =
    { Lock_table_many.table; key;
      lock = { Compat.mode; provenance = Compat.Native } }
  in
  let requests =
    base :: extra_requests t.interceptors ~txn:txn_id ~table ~key ~mode
  in
  (* Anti-barging: queued waiters whose pending request conflicts with
     ours go first (FIFO per resource). Re-acquisition of a resource we
     already hold a lock on is exempt — an upgrade must not queue
     behind its own grant. *)
  let fairness_blockers =
    Wait_graph.queued_ahead t.wait_graph ~owner:txn_id
      ~live:(fun o -> is_active t o)
      ~holds:(fun (r : Lock_table_many.request) ->
          Lock_table.holds_any t.locks ~owner:txn_id ~table:r.table
            ~key:r.key)
      requests
  in
  let outcome =
    if fairness_blockers <> [] then Lock_table.Blocked fairness_blockers
    else Lock_table_many.acquire_all t.locks ~owner:txn_id requests
  in
  match outcome with
  | Lock_table.Granted ->
    Wait_graph.on_granted t.wait_graph ~owner:txn_id;
    Ok ()
  | Lock_table.Blocked owners ->
    Obs.Counter.incr t.n_blocked;
    if Obs.Registry.tracing t.obs then
      Obs.point t.obs "lock.wait"
        [ ("txn", Json.Int txn_id);
          ("table", Json.String table);
          ("blockers", Json.List (List.map (fun o -> Json.Int o) owners)) ];
    (match
       Wait_graph.block t.wait_graph ~waiter:txn_id ~requests ~blockers:owners
     with
     | Wait_graph.Wait -> Error (`Blocked owners)
     | Wait_graph.Die cycle ->
       Obs.Counter.incr t.n_deadlocks;
       Hashtbl.replace t.victims txn_id ();
       mark_abort_only t txn_id;
       if Obs.Registry.tracing t.obs then
         Obs.point t.obs "txn.deadlock"
           [ ("txn", Json.Int txn_id);
             ("cycle", Json.List (List.map (fun o -> Json.Int o) cycle)) ];
       Error (`Deadlock cycle)
     | Wait_graph.Wound victim ->
       (match abort t victim with
        | Ok () ->
          Obs.Counter.incr t.n_victims;
          Hashtbl.replace t.victims victim ();
          if Obs.Registry.tracing t.obs then
            Obs.point t.obs "txn.wound"
              [ ("txn", Json.Int txn_id); ("victim", Json.Int victim) ];
          take_lock t txn_id ~table ~key mode
        | Error _ ->
          (* A blocker we cannot roll back — not an active transaction,
             e.g. a stale transferred lock. Waiting is all that's left;
             never loop wounding an unkillable holder. *)
          Error (`Blocked owners)))

let log_op t txn op =
  let lsn =
    Log.append t.log ~txn:txn.id ~prev_lsn:txn.last_lsn (Log_record.Op op)
  in
  txn.last_lsn <- lsn;
  lsn

let resolve_table t name =
  match Catalog.find_opt t.catalog name with
  | Some table -> Ok table
  | None -> Error (`No_table name)

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

(* Write operations check the degraded flag up front — before locks,
   so a refused writer holds nothing. Reads skip this check. *)
let check_space t = if t.disk_full then Error `Disk_full else Ok ()

let insert t ~txn:txn_id ~table:table_name row =
  let* () = check_space t in
  let* table = resolve_table t table_name in
  let key = Table.key_of_row table row in
  let* txn = check_access t txn_id ~table:table_name in
  let* () = take_lock t txn_id ~table:table_name ~key Compat.X in
  if Table.mem table key then Error `Duplicate_key
  else begin
    let op = Log_record.Insert { table = table_name; row } in
    let lsn = log_op t txn op in
    (match Table.insert table ~lsn ~txn:txn_id row with
     | Ok () -> ()
     | Error `Duplicate_key -> assert false);
    Obs.Counter.incr t.n_ops;
    fire_write t.interceptors ~txn:txn_id ~lsn op;
    fire_access t.interceptors ~table:table_name ~key;
    Ok ()
  end

let update t ~txn:txn_id ~table:table_name ~key changes =
  let* () = check_space t in
  let* txn = check_access t txn_id ~table:table_name in
  let* table = resolve_table t table_name in
  let key_positions = Schema.key_positions (Table.schema table) in
  if List.exists (fun (i, _) -> List.mem i key_positions) changes then
    Error `Key_update
  else
    let* () = take_lock t txn_id ~table:table_name ~key Compat.X in
    match Table.find table key with
    | None -> Error `Not_found
    | Some record ->
      let before =
        List.map (fun (i, _) -> (i, Row.get record.Record.row i)) changes
      in
      let op = Log_record.Update { table = table_name; key; changes; before } in
      let lsn = log_op t txn op in
      (match Table.update table ~lsn ~txn:txn_id ~key changes with
       | Ok _ -> ()
       | Error `Not_found -> assert false);
      txn.pushed <- (table, key) :: txn.pushed;
      Obs.Counter.incr t.n_ops;
      fire_write t.interceptors ~txn:txn_id ~lsn op;
      fire_access t.interceptors ~table:table_name ~key;
      Ok ()

let delete t ~txn:txn_id ~table:table_name ~key =
  let* () = check_space t in
  let* txn = check_access t txn_id ~table:table_name in
  let* table = resolve_table t table_name in
  let* () = take_lock t txn_id ~table:table_name ~key Compat.X in
  match Table.find table key with
  | None -> Error `Not_found
  | Some record ->
    let op =
      Log_record.Delete { table = table_name; key; before = record.Record.row }
    in
    let lsn = log_op t txn op in
    (match Table.delete table ~lsn ~txn:txn_id key with
     | Ok _ -> ()
     | Error `Not_found -> assert false);
    txn.pushed <- (table, key) :: txn.pushed;
    Obs.Counter.incr t.n_ops;
    fire_write t.interceptors ~txn:txn_id ~lsn op;
    fire_access t.interceptors ~table:table_name ~key;
    Ok ()

let read t ~txn:txn_id ~table:table_name ~key =
  match find_txn t txn_id with
  | Some ({ snapshot = Some at; _ } as txn) when txn.txn_status = Active ->
    (* Snapshot read: resolve the visible version without any lock and
       without the latch/freeze pre-flight - a sync phase blocking
       lock-based readers is a non-event here. *)
    if txn.abort_only then Error `Abort_only
    else
      let* table = resolve_table t table_name in
      (* A change's target is hidden from snapshots begun before the
         change was done: they resolve names as they stood at their
         begin. *)
      if not (Table.visible_at table at) then Error (`No_table table_name)
      else begin
        let row = resolve_visible t ~self:txn_id ~at table key in
        fire_access t.interceptors ~table:table_name ~key;
        Ok row
      end
  | Some _ | None ->
    let* _txn = check_access t txn_id ~table:table_name in
    let* table = resolve_table t table_name in
    let* () = take_lock t txn_id ~table:table_name ~key Compat.S in
    fire_access t.interceptors ~table:table_name ~key;
    (match Table.find table key with
     | None -> Ok None
     | Some record -> Ok (Some record.Record.row))

let read_dirty t ~table:table_name ~key =
  match Catalog.find_opt t.catalog table_name with
  | None -> None
  | Some table ->
    (match Table.find table key with
     | None -> None
     | Some record -> Some record.Record.row)

let commit t txn_id =
  match find_txn t txn_id with
  | None -> Error `Txn_not_active
  | Some txn ->
    if txn.txn_status <> Active then Error `Txn_not_active
    else if txn.abort_only then Error `Abort_only
    else if t.disk_full then
      (* An ack is a durability promise (modulo the group-commit
         window); a full disk cannot keep it. The transaction stays
         active — the caller may retry once space returns, or abort
         (aborts proceed: rollback is in-memory and its records ride
         the buffered suffix). *)
      Error `Disk_full
    else begin
      let lsn =
        Log.append t.log ~txn:txn_id ~prev_lsn:txn.last_lsn Log_record.Commit
      in
      txn.last_lsn <- lsn;
      t.pending_syncs <- t.pending_syncs + 1;
      let barrier = t.pending_syncs >= t.group_window in
      (* The barrier runs before the transaction counts as committed. If
         it raises, the commit must not stand: roll it back in memory and
         re-raise. The Commit record then sits in the buffered suffix
         with the rollback's records after it, so a later flush and any
         redo end rolled back. *)
      (if barrier then
         match sync_barrier t with
         | () -> ()
         | exception e ->
           t.pending_syncs <- t.pending_syncs - 1;
           abort_active t txn;
           raise e);
      finish t txn Committed;
      let budget = reclaim_budget * List.length txn.pushed in
      let horizon = horizon t in
      if Lsn.(lsn < horizon) then Hashtbl.remove t.txns txn_id
      else Queue.push txn t.retained;
      forget_committed t ~horizon;
      let own = reclaim_own t txn ~horizon in
      note_reclaimed t
        (if budget = 0 then own else own + drain t ~horizon ~budget);
      if barrier then maybe_truncate t;
      Obs.Counter.incr t.n_commits;
      if Obs.Registry.tracing t.obs then
        Obs.point t.obs "txn.commit" [ ("txn", Json.Int txn_id) ];
      Ok ()
    end

module Stats = struct
  type counters = {
    ops : int;
    commits : int;
    aborts : int;
    blocked : int;
    deadlocks : int;
    victims : int;
    lock_waits : int;
  }

  let get t =
    { ops = Obs.Counter.value t.n_ops;
      commits = Obs.Counter.value t.n_commits;
      aborts = Obs.Counter.value t.n_aborts;
      blocked = Obs.Counter.value t.n_blocked;
      deadlocks = Obs.Counter.value t.n_deadlocks;
      victims = Obs.Counter.value t.n_victims;
      lock_waits = (Wait_graph.stats t.wait_graph).Wait_graph.waits }
end

let pp_error ppf = function
  | `Blocked owners ->
    Format.fprintf ppf "blocked by [%s]"
      (String.concat "; " (List.map string_of_int owners))
  | `Deadlock cycle ->
    Format.fprintf ppf "deadlock victim (cycle [%s])"
      (String.concat "; " (List.map string_of_int cycle))
  | `Latched table -> Format.fprintf ppf "table %S latched" table
  | `Frozen table -> Format.fprintf ppf "table %S frozen" table
  | `Duplicate_key -> Format.pp_print_string ppf "duplicate key"
  | `Not_found -> Format.pp_print_string ppf "record not found"
  | `No_table table -> Format.fprintf ppf "no such table %S" table
  | `Txn_not_active -> Format.pp_print_string ppf "transaction not active"
  | `Abort_only -> Format.pp_print_string ppf "transaction must abort"
  | `Key_update -> Format.pp_print_string ppf "primary key update"
  | `Disk_full ->
    Format.pp_print_string ppf "disk full: writes refused until space returns"
