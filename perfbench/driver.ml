(* One episode: two identical databases (the change side and its
   no-change twin), eight cooperative clients per side fed the same
   transaction streams, and a schema change run on the change side only.

   Windows of client turns alternate between the sides, and each side's
   clock runs only inside its own windows, so both sides see the same
   host speed and the relative metrics cancel it. The change advances
   one [Transform.step] every [k] change-side turns: its priority is
   fixed in work, not in wall-clock share, so every count repeats
   exactly from run to run. *)

open Nbsc_value
open Nbsc_core
module Manager = Nbsc_txn.Manager
module Persist = Nbsc_engine.Persist
module Log = Nbsc_wal.Log
module Obs = Nbsc_obs.Obs
module W = Workload

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Check_failed m)) fmt

type client = {
  cid : int;
  rng : Random.State.t;
  mutable seq : int;                 (* transactions drawn so far *)
  mutable plan : W.plan option;      (* current logical transaction *)
  mutable txn : Manager.txn_id;      (* open attempt, or -1 *)
  mutable pos : int;                 (* next operation of the plan *)
  mutable t_first : float;           (* side clock at the plan's first op *)
  mutable t_first_wall : float;      (* ... and the side's wall clock *)
  mutable digests : int list;        (* every plan drawn, newest first *)
  mutable tspan : int;               (* open transaction span, or -1 *)
}

type counts = {
  mutable commits : int;
  mutable attempts : int;
  mutable failures : int;
  mutable retries : int;   (* Blocked / Latched / Frozen, retried next turn *)
  resp : Stats.t;          (* response times of committed transactions, s *)
}

let counts () =
  { commits = 0; attempts = 0; failures = 0; retries = 0; resp = Stats.create () }

type side = {
  idx : int;                         (* 0 = change side, 1 = twin *)
  w : W.t;
  dir : string;
  mutable persist : Persist.t option;
  mutable db : Db.t;
  mutable mgr : Manager.t;
  clients : client array;
  mutable clock : float;             (* CPU seconds inside this side's windows *)
  mutable wall : float;              (* wall-clock seconds inside them *)
  mutable win_start : float;
  mutable win_start_wall : float;
  mutable in_window : bool;
  mutable turns : int;
  mutable stop_new : bool;           (* routing flipped: no new transactions *)
  mutable quiescing : bool;          (* checkpoint due: drain, then write *)
  mutable since_ckpt : int;
  mutable measuring : bool;
  c : counts;
  model : (string * int, (int * Value.t) list) Hashtbl.t;
      (* durable workload: the columns every acknowledged commit wrote *)
}

(* Per-layer figures the traced run gathers on the change side during
   the change; the rest comes from the span dump. *)
type layer = {
  mutable scanned : int;              (* rows scanned by populate quanta *)
  mutable propagated : int;           (* log records read by propagate quanta *)
  mutable applied : int;              (* rule applications, whole change *)
  mutable records_read : int;         (* log records read, whole change *)
  mutable lag_peak : int;
  mutable locks_transferred : int;
  mutable demand : int;
  mutable final_records : int;
  mutable forced_aborts : int;
  mutable blocked : int;
  mutable lock_waits : int;
  mutable deadlocks : int;
  mutable victims : int;
  mutable wal_high_water : int;
  mutable wal_truncated : int;
  mutable versions_peak : int;
  mutable versions_reclaimed : int;
  mutable flushes : int;
  mutable alloc_words : float;
  mutable minor_gcs : int;
  mutable major_gcs : int;
}

let layer () =
  { scanned = 0; propagated = 0; applied = 0; records_read = 0; lag_peak = 0;
    locks_transferred = 0; demand = 0; final_records = 0; forced_aborts = 0;
    blocked = 0; lock_waits = 0; deadlocks = 0; victims = 0;
    wal_high_water = 0; wal_truncated = 0; versions_peak = 0;
    versions_reclaimed = 0; flushes = 0;
    alloc_words = 0.; minor_gcs = 0; major_gcs = 0 }

type result = {
  setup_s : float;
  change : counts;
  twin : counts;
  change_clock : float;     (* change side, Transform.create to Done, CPU s *)
  twin_clock : float;       (* twin, over the same windows, CPU s *)
  change_wall : float;      (* the same two on the wall clock *)
  twin_wall : float;
  quanta : int;
  sync_window_s : float;    (* the step in which routing flipped *)
  open_dir_s : float;       (* durable: reopen after the crash *)
  resume_s : float;         (* durable: Transform.resume after the crash *)
  wal_records : int;        (* log records appended by the change side *)
  wal_bytes : int;          (* durable: WAL bytes the change side wrote *)
  snapshot_bytes : int;     (* durable: checkpoint snapshot bytes written *)
  checkpoints : int;        (* durable: change-side checkpoints *)
  layer : layer option;     (* traced run only *)
  streams_identical : bool; (* both sides drew the same transactions *)
  stream_digest : int;
}

type env = { spans : Spans.t option; mutable phase : int }

let span_open env ~side name ~parent ~txn =
  match env.spans with
  | None -> -1
  | Some sp -> Spans.open_ sp ~name ~side ~phase:env.phase ~parent ~txn ()

let span_close env i =
  match env.spans with None -> () | Some sp -> Spans.close sp i

let timed env ~side name f =
  let sp = span_open env ~side name ~parent:(-1) ~txn:(-1) in
  let v = f () in
  span_close env sp;
  v

(* {1 Side clocks} *)

let enter s =
  s.win_start_wall <- Clock.wall ();
  s.win_start <- Clock.cpu ();
  s.in_window <- true

let leave s =
  s.clock <- s.clock +. (Clock.cpu () -. s.win_start);
  s.wall <- s.wall +. (Clock.wall () -. s.win_start_wall);
  s.in_window <- false

let side_now s =
  if s.in_window then s.clock +. (Clock.cpu () -. s.win_start) else s.clock

let side_now_wall s =
  if s.in_window then s.wall +. (Clock.wall () -. s.win_start_wall) else s.wall

(* {1 Set-up} *)

let ok_p what = function
  | Ok v -> v
  | Error e -> fail "%s: %s" what (Nbsc_error.to_string e)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let file_size path =
  if Sys.file_exists path then (Unix.stat path).Unix.st_size else 0

(* Create and bulk-load one side; returns it with its set-up seconds
   (row generation excluded: that is the benchmark's work, not the
   engine's). *)
let make_side env w ~seed ~idx ~dir =
  let chunks rows =
    let rec go acc chunk n = function
      | [] -> List.rev (if chunk = [] then acc else List.rev chunk :: acc)
      | r :: rest when n = 2048 -> go (List.rev chunk :: acc) [ r ] 1 rest
      | r :: rest -> go acc (r :: chunk) (n + 1) rest
    in
    go [] [] 0 rows
  in
  let tables =
    List.map (fun (name, schema, rows) -> (name, schema, chunks rows)) (W.rows ~seed w)
  in
  (* Collect the generator's garbage before the clock starts, so the
     set-up time is the engine's work alone. *)
  Gc.full_major ();
  let t0 = Clock.cpu () in
  let persist, db =
    if w.W.durable then begin
      rm_rf dir;
      let p =
        timed env ~side:idx Spans.create_dir (fun () ->
            ok_p "create_dir" (Persist.create_dir ~dir))
      in
      (Some p, Persist.db p)
    end
    else (None, Db.create ())
  in
  List.iter
    (fun (name, schema, chunks) ->
       ignore (Db.create_table db ~name schema);
       List.iter
         (fun chunk ->
            match
              timed env ~side:idx Spans.load (fun () -> Db.load db ~table:name chunk)
            with
            | Ok () -> ()
            | Error e -> fail "load %s: %s" name (Format.asprintf "%a" Manager.pp_error e))
         chunks)
    tables;
  let mgr = Db.manager db in
  (* Flush policy: every acknowledged commit has been written to the
     WAL with write(2); the engine never fsyncs. *)
  Manager.set_group_commit mgr 1;
  Option.iter
    (fun p ->
       timed env ~side:idx Spans.checkpoint (fun () ->
           ok_p "first checkpoint" (Persist.checkpoint p)))
    persist;
  let setup_s = Clock.cpu () -. t0 in
  let clients =
    Array.init W.clients (fun cid ->
        { cid; rng = W.client_rng ~seed cid; seq = 0; plan = None; txn = -1;
          pos = 0; t_first = 0.; t_first_wall = 0.; digests = []; tspan = -1 })
  in
  ( { idx; w; dir; persist; db; mgr; clients; clock = 0.; wall = 0.; win_start = 0.;
      win_start_wall = 0.; in_window = false; turns = 0; stop_new = false; quiescing = false; since_ckpt = 0;
      measuring = false; c = counts (); model = Hashtbl.create 1024 },
    setup_s )

(* {1 Client turns} *)

(* The logical transaction's id, shared by all its spans. *)
let logical c = (c.cid * 100_000_000) + c.seq

(* The transaction span closes when its plan is done with; its
   duration is the response time on the side's wall clock, like the
   spans of its calls. *)
let drop_plan env s c =
  c.plan <- None;
  (match env.spans with
   | Some sp when c.tspan >= 0 ->
     Spans.close sp c.tspan;
     Spans.set_duration sp c.tspan (side_now_wall s -. c.t_first_wall)
   | _ -> ());
  c.tspan <- -1

let abort_attempt env s c =
  let sp = span_open env ~side:s.idx Spans.abort ~parent:c.tspan ~txn:(logical c) in
  ignore (Manager.abort s.mgr c.txn);
  span_close env sp;
  c.txn <- -1

(* A failed attempt is rolled back; the client retries the same plan on
   its next turn, unless routing has flipped (no new transactions). *)
let failed env s c =
  abort_attempt env s c;
  if s.measuring then begin
    s.c.attempts <- s.c.attempts + 1;
    s.c.failures <- s.c.failures + 1
  end;
  if s.stop_new then drop_plan env s c

let remember s (plan : W.plan) =
  Array.iter
    (function
      | W.Read _ -> ()
      | W.Update { table; key; set } ->
        let old =
          Option.value ~default:[] (Hashtbl.find_opt s.model (table, key))
        in
        let kept = List.filter (fun (p, _) -> not (List.mem_assoc p set)) old in
        Hashtbl.replace s.model (table, key) (set @ kept))
    plan.ops

let committed env s c plan =
  if s.measuring then begin
    let response = side_now s -. c.t_first in
    if response < 0. then fail "negative response time %g s" response;
    s.c.attempts <- s.c.attempts + 1;
    s.c.commits <- s.c.commits + 1;
    Stats.push s.c.resp response
  end;
  if s.w.W.durable then begin
    remember s plan;
    s.since_ckpt <- s.since_ckpt + 1;
    if s.since_ckpt >= s.w.W.ckpt_every then s.quiescing <- true
  end;
  c.txn <- -1;
  drop_plan env s c

let do_op env s c (plan : W.plan) op =
  let txn = c.txn and parent = c.tspan and lid = logical c in
  match op with
  | W.Read { table; key } ->
    let name = if plan.snapshot then Spans.snap_read else Spans.read in
    let sp = span_open env ~side:s.idx name ~parent ~txn:lid in
    let r = Manager.read s.mgr ~txn ~table ~key:(W.int_key key) in
    span_close env sp;
    Result.map ignore r
  | W.Update { table; key; set } ->
    let sp = span_open env ~side:s.idx Spans.update ~parent ~txn:lid in
    let r = Manager.update s.mgr ~txn ~table ~key:(W.int_key key) set in
    span_close env sp;
    r

let advance env s c (plan : W.plan) =
  if c.pos < Array.length plan.ops then begin
    match do_op env s c plan plan.ops.(c.pos) with
    | Ok () -> c.pos <- c.pos + 1
    | Error (`Blocked _ | `Latched _ | `Frozen _) ->
      if s.measuring then s.c.retries <- s.c.retries + 1
    | Error _ -> failed env s c
  end
  else begin
    let sp = span_open env ~side:s.idx Spans.commit ~parent:c.tspan ~txn:(logical c) in
    let r = Manager.commit s.mgr c.txn in
    span_close env sp;
    match r with Ok () -> committed env s c plan | Error _ -> failed env s c
  end

(* One operation of one client: begin (with the first operation) when
   idle, else the next operation or the commit. *)
let turn env s c =
  if c.txn >= 0 then Option.iter (advance env s c) c.plan
  else if not (s.stop_new || s.quiescing) then begin
    let plan =
      match c.plan with
      | Some p -> p
      | None ->
        let p = W.next s.w c.rng in
        c.seq <- c.seq + 1;
        c.digests <- p.W.digest :: c.digests;
        c.plan <- Some p;
        c.t_first <- side_now s;
        if env.spans <> None then c.t_first_wall <- side_now_wall s;
        c.tspan <- span_open env ~side:s.idx Spans.txn_ ~parent:(-1) ~txn:(logical c);
        p
    in
    let sp = span_open env ~side:s.idx Spans.begin_ ~parent:c.tspan ~txn:(logical c) in
    let isolation = if plan.W.snapshot then `Snapshot else `Read_committed in
    c.txn <- Manager.begin_txn ~isolation s.mgr;
    span_close env sp;
    c.pos <- 0;
    advance env s c plan
  end


(* {1 The episode} *)

(* Counters that restart with a reopened database: read at the start of
   each incarnation and at its end, and the differences summed. *)
type marks = {
  m_stats : Manager.Stats.counters;
  m_head : int;
  m_truncated : int;
  m_flushes : int;
  m_reclaimed : int;
}

let registry_int db name =
  match Obs.Registry.find (Db.obs db) name with
  | Some (Obs.Counter_v n) -> n
  | Some (Obs.Gauge_v v) -> int_of_float v
  | Some (Obs.Histogram_v h) -> h.h_count
  | None -> 0

let marks s =
  let log = Db.log s.db in
  { m_stats = Manager.Stats.get s.mgr;
    m_head = Nbsc_wal.Lsn.to_int (Log.head log);
    m_truncated = Log.truncated_total log;
    m_flushes = registry_int s.db "engine.commit_batch_size";
    m_reclaimed = registry_int s.db "storage.versions_reclaimed" }

type episode = {
  env : env;
  w : W.t;
  a : side;                          (* change side *)
  b : side;                          (* twin *)
  mutable tf : Transform.t option;
  mutable done_ : bool;
  mutable quanta : int;
  mutable sync_window : float;
  mutable post_pop_ckpts : int;      (* change-side checkpoints after population *)
  mutable prop_since_ckpt : int;
  mutable crashed : bool;
  mutable open_dir_s : float;
  mutable resume_s : float;
  mutable wal_mark : int;            (* change-side WAL bytes already counted *)
  mutable m_start : marks;           (* counters at the incarnation's start *)
  mutable wal_records : int;
  mutable wal_bytes : int;
  mutable snapshot_bytes : int;
  mutable checkpoints : int;
  lay : layer option;
}

let tf ep = Option.get ep.tf
let wal_file s = Filename.concat s.dir "wal.nbsc"
let snapshot_file s = Filename.concat s.dir "snapshot.nbsc"

(* Fold the finished incarnation's counters into the episode totals. *)
let absorb ep =
  let m = marks ep.a and m0 = ep.m_start in
  ep.wal_records <- ep.wal_records + m.m_head - m0.m_head;
  Option.iter
    (fun l ->
       let d f = f m.m_stats - f m0.m_stats in
       l.blocked <- l.blocked + d (fun s -> s.Manager.Stats.blocked);
       l.lock_waits <- l.lock_waits + d (fun s -> s.Manager.Stats.lock_waits);
       l.deadlocks <- l.deadlocks + d (fun s -> s.Manager.Stats.deadlocks);
       l.victims <- l.victims + d (fun s -> s.Manager.Stats.victims);
       l.wal_truncated <- l.wal_truncated + m.m_truncated - m0.m_truncated;
       l.flushes <- l.flushes + m.m_flushes - m0.m_flushes;
       l.versions_reclaimed <- l.versions_reclaimed + m.m_reclaimed - m0.m_reclaimed;
       l.wal_high_water <- max l.wal_high_water (Log.live_high_water (Db.log ep.a.db));
       let t = tf ep in
       let p = Transform.progress t in
       l.applied <- l.applied + p.Transform.applied;
       l.records_read <- l.records_read + p.Transform.propagated;
       l.locks_transferred <- l.locks_transferred + p.Transform.locks_transferred;
       l.final_records <- l.final_records + p.Transform.final_records;
       l.forced_aborts <- l.forced_aborts + p.Transform.forced_aborts;
       l.demand <- l.demand + Transform.demand_migrations t)
    ep.lay;
  if ep.w.W.durable then
    ep.wal_bytes <- ep.wal_bytes + file_size (wal_file ep.a) - ep.wal_mark

let checkpoint ep s =
  let counted = s.idx = 0 && s.measuring in
  let wal_before = if counted then file_size (wal_file s) else 0 in
  timed ep.env ~side:s.idx Spans.checkpoint (fun () ->
      ok_p "checkpoint" (Persist.checkpoint (Option.get s.persist)));
  s.quiescing <- false;
  s.since_ckpt <- 0;
  if counted then begin
    (* Bytes appended since the last mark, then the rewritten WAL and
       the new snapshot. *)
    let wal_after = file_size (wal_file s) in
    ep.wal_bytes <- ep.wal_bytes + wal_before - ep.wal_mark + wal_after;
    ep.snapshot_bytes <- ep.snapshot_bytes + file_size (snapshot_file s);
    ep.checkpoints <- ep.checkpoints + 1;
    ep.wal_mark <- wal_after;
    if Transform.phase (tf ep) <> Transform.Populating then begin
      ep.post_pop_ckpts <- ep.post_pop_ckpts + 1;
      ep.prop_since_ckpt <- 0
    end
  end

(* Every commit acknowledged before the crash must be visible after
   recovery: compare each column the model says an acked commit wrote. *)
let check_durability s =
  Hashtbl.iter
    (fun (table, key) cols ->
       match Manager.read_dirty s.mgr ~table ~key:(W.int_key key) with
       | None -> fail "durability: acknowledged %s row %d lost in the crash" table key
       | Some row ->
         List.iter
           (fun (pos, v) ->
              if not (Value.equal row.(pos) v) then
                fail "durability: %s row %d lost the acknowledged write to column %d"
                  table key pos)
           cols)
    s.model

(* Crash the change side at a fixed point of its propagation, reopen
   its directory and resume the change. The side's clock stops for the
   downtime. *)
let crash_and_recover ep =
  let a = ep.a and env = ep.env in
  leave a;
  absorb ep;
  timed env ~side:0 Spans.crash (fun () -> Persist.crash (Option.get a.persist));
  (* Attempts in flight die with the process; their clients retry them
     after recovery. *)
  Array.iter
    (fun c ->
       if c.txn >= 0 then begin
         c.txn <- -1;
         a.c.attempts <- a.c.attempts + 1;
         a.c.failures <- a.c.failures + 1
       end)
    a.clients;
  (* So does the crashed incarnation's memory: drop it and collect it,
     untimed, so recovery does not build the new database beside the
     old one's garbage. *)
  a.persist <- None;
  ep.tf <- None;
  a.db <- Db.create ();
  a.mgr <- Db.manager a.db;
  Gc.full_major ();
  let t0 = Clock.cpu () in
  let p =
    timed env ~side:0 Spans.open_dir (fun () ->
        ok_p "open_dir" (Persist.open_dir ~dir:a.dir))
  in
  let t1 = Clock.cpu () in
  let resumed =
    timed env ~side:0 Spans.resume (fun () ->
        ok_p "resume" (Transform.resume ~options:a.w.W.options p))
  in
  ep.open_dir_s <- t1 -. t0;
  ep.resume_s <- Clock.cpu () -. t1;
  (match resumed with
   | [ t ] -> ep.tf <- Some t
   | l -> fail "resume rebuilt %d changes, expected 1" (List.length l));
  a.persist <- Some p;
  a.db <- Persist.db p;
  a.mgr <- Db.manager a.db;
  Manager.set_group_commit a.mgr 1;
  a.quiescing <- false;
  a.since_ckpt <- 0;
  ep.crashed <- true;
  ep.wal_mark <- file_size (wal_file a);
  ep.m_start <- marks a;
  check_durability a;
  enter a

let versions_live db = registry_int db "storage.versions_live"

(* One step of the change. Its span is named after the phase it ran in;
   the step that flips routing is the synchronization. *)
let quantum ep =
  let a = ep.a and t = tf ep in
  let phase = Transform.phase t in
  let before = Option.map (fun _ -> Transform.progress t) ep.lay in
  let routed = Transform.routing t in
  let t0 = Clock.wall () in
  let r = Transform.step t in
  let t1 = Clock.wall () in
  ep.quanta <- ep.quanta + 1;
  let flipped = routed = `Sources && Transform.routing t = `Targets in
  if flipped then begin
    a.stop_new <- true;
    ep.sync_window <- t1 -. t0;
    (* Plans waiting to restart are cut off with the old schema. *)
    Array.iter (fun c -> if c.txn < 0 && c.plan <> None then drop_plan ep.env a c) a.clients
  end;
  let name =
    if flipped then Spans.sync
    else
      match phase with
      | Transform.Populating ->
        if a.w.W.options.Options.strategy = Options.Eager then Spans.populate
        else Spans.sweep
      | _ -> Spans.propagate
  in
  Option.iter
    (fun sp -> Spans.add sp ~name ~side:0 ~phase:ep.env.phase ~start:t0 ~stop:t1)
    ep.env.spans;
  (match (ep.lay, before) with
   | Some l, Some p0 ->
     let p1 = Transform.progress t in
     if name = Spans.populate || name = Spans.sweep then
       l.scanned <- l.scanned + p1.Transform.scanned - p0.Transform.scanned
     else if name = Spans.propagate then
       l.propagated <- l.propagated + p1.Transform.propagated - p0.Transform.propagated;
     l.lag_peak <- max l.lag_peak p1.Transform.lag;
     l.versions_peak <- max l.versions_peak (versions_live a.db)
   | _ -> ());
  (match r with
   | `Done -> ep.done_ <- true
   | `Failed m -> fail "the change failed: %s" m
   | `Running -> ());
  if (not ep.done_) && ep.quanta >= a.w.W.quanta_budget then
    fail "convergence: the change is not done after %d quanta (phase %s)"
      ep.quanta (Format.asprintf "%a" Transform.pp_phase (Transform.phase t));
  if phase = Transform.Propagating && ep.post_pop_ckpts > 0 then begin
    ep.prop_since_ckpt <- ep.prop_since_ckpt + 1;
    if a.w.W.durable && (not ep.crashed) && ep.prop_since_ckpt >= a.w.W.crash_after
    then crash_and_recover ep
  end

let gc_words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words,
   s.Gc.minor_collections, s.Gc.major_collections)

(* [n] client turns on side [s]; on the change side, one quantum every
   [k] turns until the change is done. *)
let window ep s n =
  let gc0 =
    match ep.lay with
    | Some _ when s.idx = 0 && s.measuring -> Some (gc_words ())
    | _ -> None
  in
  enter s;
  let i = ref 0 in
  while !i < n && not (s.idx = 0 && ep.done_) do
    if s.quiescing && Manager.active_count s.mgr = 0 then checkpoint ep s;
    turn ep.env s s.clients.(s.turns mod W.clients);
    s.turns <- s.turns + 1;
    incr i;
    if s.idx = 0 && ep.tf <> None && s.turns mod ep.w.W.k = 0 then quantum ep
  done;
  leave s;
  match (gc0, ep.lay) with
  | Some (w0, mi0, ma0), Some l ->
    let w1, mi1, ma1 = gc_words () in
    l.alloc_words <- l.alloc_words +. w1 -. w0;
    l.minor_gcs <- l.minor_gcs + mi1 - mi0;
    l.major_gcs <- l.major_gcs + ma1 - ma0
  | _ -> ()

(* Does every client's stream on one side extend the other's? The twin
   keeps drawing after the change side stops taking new transactions,
   so one is a prefix of the other. *)
let streams_identical a b =
  let rec prefix x y =
    match (x, y) with
    | [], _ | _, [] -> true
    | p :: x', q :: y' -> p = q && prefix x' y'
  in
  Array.for_all2
    (fun ca cb -> prefix (List.rev ca.digests) (List.rev cb.digests))
    a.clients b.clients

let run ~seed ~(w : W.t) ~work_dir ~spans =
  let env = { spans; phase = Spans.setup_phase } in
  let a, setup_a = make_side env w ~seed ~idx:0 ~dir:(Filename.concat work_dir "change") in
  let b, setup_b = make_side env w ~seed ~idx:1 ~dir:(Filename.concat work_dir "twin") in
  let ep =
    { env; w; a; b; tf = None; done_ = false; quanta = 0; sync_window = 0.;
      post_pop_ckpts = 0; prop_since_ckpt = 0; crashed = false;
      open_dir_s = 0.; resume_s = 0.; wal_mark = 0; m_start = marks a;
      wal_records = 0; wal_bytes = 0; snapshot_bytes = 0; checkpoints = 0; lay = Option.map (fun _ -> layer ()) spans }
  in
  (* Warm-up: both twins, the same windows, no change. *)
  env.phase <- Spans.warmup_phase;
  for _ = 1 to w.W.warmup_windows do
    window ep a w.W.window;
    window ep b w.W.window
  done;
  (* The change, on side [a] only; both clocks restart. Transactions
     begun in the warm-up keep their age on the new clocks. *)
  env.phase <- Spans.change_phase;
  List.iter
    (fun s ->
       Array.iter
         (fun c ->
            c.t_first <- c.t_first -. s.clock;
            c.t_first_wall <- c.t_first_wall -. s.wall)
         s.clients;
       s.measuring <- true;
       s.turns <- 0;
       s.clock <- 0.;
       s.wall <- 0.)
    [ a; b ];
  if w.W.durable then ep.wal_mark <- file_size (wal_file a);
  ep.m_start <- marks a;
  enter a;
  let h =
    timed env ~side:0 Spans.change_create (fun () ->
        ok_p "Schema_change.start"
          (Db.Schema_change.start a.db ~options:w.W.options (W.spec w)))
  in
  leave a;
  ep.tf <- Some (Db.Schema_change.transform h);
  while not ep.done_ do
    window ep a w.W.window;
    window ep b (min w.W.window (a.turns - b.turns))
  done;
  a.measuring <- false;
  b.measuring <- false;
  absorb ep;
  if w.W.durable && not ep.crashed then
    fail "the change finished before its crash point: no checkpoint after \
          population, or fewer than %d propagation quanta after it" w.W.crash_after;
  (match W.check_oracle w a.db with Ok () -> () | Error m -> fail "oracle: %s" m);
  (* Snapshot readers may still be open; nothing else is. *)
  Array.iter (fun c -> if c.txn >= 0 then abort_attempt env a c) a.clients;
  Array.iter (fun c -> if c.txn >= 0 then abort_attempt env b c) b.clients;
  Array.iter (fun c -> if c.tspan >= 0 then drop_plan env a c) a.clients;
  Array.iter (fun c -> if c.tspan >= 0 then drop_plan env b c) b.clients;
  Option.iter Persist.close a.persist;
  Option.iter Persist.close b.persist;
  rm_rf a.dir;
  rm_rf b.dir;
  { setup_s = setup_a +. setup_b; change = a.c; twin = b.c;
    change_clock = a.clock; twin_clock = b.clock; change_wall = a.wall;
    twin_wall = b.wall; quanta = ep.quanta;
    sync_window_s = ep.sync_window; open_dir_s = ep.open_dir_s;
    resume_s = ep.resume_s; wal_records = ep.wal_records;
    wal_bytes = ep.wal_bytes; snapshot_bytes = ep.snapshot_bytes;
    checkpoints = ep.checkpoints; layer = ep.lay;
    streams_identical = streams_identical a b;
    stream_digest =
      Array.fold_left
        (fun h c -> List.fold_left (fun h d -> Hashtbl.hash (h, d)) h (List.rev c.digests))
        0 b.clients }
