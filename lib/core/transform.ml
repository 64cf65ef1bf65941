open Nbsc_wal
open Nbsc_lock
open Nbsc_storage
open Nbsc_txn
open Nbsc_engine

(* Nbsc_core grows its own Db facade; inside this library the engine's
   is meant (the alias also keeps ocamldep from seeing a cycle). *)
module Db = Nbsc_engine.Db
module Obs = Nbsc_obs.Obs
module Json = Nbsc_obs.Json

type phase =
  | Populating
  | Propagating
  | Checking
  | Quiescing
  | Draining
  | Done
  | Failed of string

type t = {
  db : Db.t;
  mgr : Manager.t;
  options : Options.t;
  op : Transformation.t;
  prop : Propagator.t;
  holder : int;  (* latch holder id, also the interceptor id *)
  job_name : string;
  mutable tphase : phase;
  mutable route : [ `Sources | `Targets ];
  mutable iterations : int;
  mutable caught_up_once : bool;
  mutable final_records : int;
  mutable old_txns : Manager.txn_id list;
  mutable forced_aborts : int;
  mutable demand_migrations : int;
  (* What this change has installed in the manager under [holder]. *)
  mutable icpt : Manager.interceptor;
  obs : Obs.Registry.t;
  root_span : Obs.span;
  mutable phase_span : (string * Obs.span) option;
}

type progress = {
  p_phase : phase;
  iterations : int;
  scanned : int;
  produced : int;
  applied : int;
  propagated : int;
  lag : int;
  locks_transferred : int;
  final_records : int;
  unknown_flags : int;
  forced_aborts : int;
}

(* {2 Durable job state}

   A persistable executor journals an opaque resume payload: an
   envelope [version; phase; log position; encoded spec]. The phase
   collapses to the three resume situations — "pop" (population
   unfinished: restart from scratch), "prop" (initial image complete:
   rebuild the operator around the snapshot-restored targets and
   continue propagation from [position]) and "drain" (already switched:
   finish propagation onto the targets and finalize). *)

let payload_version = "v1"

let phase_tag = function
  | Populating -> "pop"
  | Propagating | Checking | Quiescing -> "prop"
  | Draining -> "drain"
  | Done | Failed _ -> "prop" (* unreachable: completed jobs deregister *)

let encode_job_state ~tag ~position spec_payload =
  Nbsc_value.Codec.encode_string_list
    [ payload_version; tag; Lsn.to_string position; spec_payload ]

let decode_job_state s =
  match Nbsc_value.Codec.decode_string_list s with
  | [ v; tag; position; spec_payload ] when String.equal v payload_version ->
    let position =
      match int_of_string_opt position with
      | Some n -> Lsn.of_int n
      | None -> failwith "Transform: bad log position in job state"
    in
    (tag, position, spec_payload)
  | _ -> failwith "Transform: malformed job state payload"
  | exception Failure m -> failwith ("Transform: " ^ m)

let write_fuzzy_mark mgr =
  let active = Manager.active_snapshot mgr in
  ignore
    (Log.append (Manager.log mgr) ~txn:Log_record.system_txn ~prev_lsn:Lsn.zero
       (Log_record.Fuzzy_mark { active }))

(* {2 Introspection} *)

let phase t = t.tphase
let routing t = t.route
let sources t = t.op.Transformation.rules.Propagator.sources
let targets t = t.op.Transformation.rules.Propagator.targets
let manager t = t.mgr
let job_name t = t.job_name
let checker t = t.op.Transformation.rules.Propagator.cc
let name t = t.op.Transformation.name
let migration t = t.options.Options.strategy
let demand_migrations t = t.demand_migrations
let counters t = t.op.Transformation.counters ()
let population t = t.op.Transformation.population

let unknown_flags t =
  match checker t with Some cc -> Consistency.unknown_flags cc | None -> 0

let progress t =
  { p_phase = t.tphase;
    iterations = t.iterations;
    scanned = Population.scanned (population t);
    produced = Population.produced (population t);
    applied = Transformation.counter t.op "applied";
    propagated = Propagator.records_processed t.prop;
    lag = Propagator.lag t.prop;
    locks_transferred = Propagator.locks_transferred t.prop;
    final_records = t.final_records;
    unknown_flags = unknown_flags t;
    forced_aborts = t.forced_aborts }

(* {2 Trace spans}

   One root span ("schema_change") per executor; under it one span per
   lifecycle phase, named after the paper's stages: populate, propagate,
   check, sync (sync covers quiescing, draining and finalization).
   Span ids are allocated even when no sink listens — they are
   per-registry counters, so traces stay deterministic regardless of
   when a sink attached. *)

let phase_str = function
  | Populating -> "populating"
  | Propagating -> "propagating"
  | Checking -> "checking"
  | Quiescing -> "quiescing"
  | Draining -> "draining"
  | Done -> "done"
  | Failed m -> "failed: " ^ m

let span_name_of_phase = function
  | Populating -> Some "populate"
  | Propagating -> Some "propagate"
  | Checking -> Some "check"
  | Quiescing | Draining -> Some "sync"
  | Done | Failed _ -> None

let sync_spans t =
  let want = span_name_of_phase t.tphase in
  let cur = Option.map fst t.phase_span in
  if not (Option.equal String.equal cur want) then begin
    (match t.phase_span with
     | Some (_, span) -> Obs.span_close t.obs span
     | None -> ());
    match want with
    | Some w ->
      t.phase_span <- Some (w, Obs.span_open t.obs ~parent:t.root_span w)
    | None ->
      t.phase_span <- None;
      Obs.span_close t.obs
        ~attrs:
          (match t.tphase with
           | Failed m -> [ ("failed", Json.String m) ]
           | _ -> [])
        t.root_span
  end

let remove_probes t =
  Obs.Registry.remove t.obs ("transform." ^ t.job_name ^ ".lag");
  Obs.Registry.remove t.obs ("transform." ^ t.job_name ^ ".propagated")

(* {2 The change's interceptor}

   Everything this change makes user operations do goes through one
   interceptor record under [holder]: the access callback while
   populating under [Lazy]/[Hybrid], the freeze from synchronization
   on, and the two-schema lock extension under [Nonblocking_commit].
   [teardown] releases it in one call. *)

let intercept t icpt =
  t.icpt <- icpt;
  Manager.intercept t.mgr ~id:t.holder icpt

let release t =
  t.icpt <- Manager.empty_interceptor;
  Manager.release t.mgr ~id:t.holder

(* {2 Lazy demand migration (Options.Lazy / Hybrid)}

   While populating, the access callback migrates any source record
   the instant a transaction touches it: the record's current state is
   replayed through the propagation rules as if its insert had just
   been logged. Idempotent by the rules' LSN gating — when the log
   propagation later reaches the record's real operations it finds the
   state already reflected. The callback leaves the hot path once
   population (the background sweep) completes: records written after
   that point ride the ordinary log propagation, so demand migration
   has nothing left to do. *)

let demand_migrate t ~table ~key =
  if List.exists (String.equal table) (sources t) then
    match Catalog.find_opt (Db.catalog t.db) table with
    | None -> ()
    | Some tbl ->
      (match Table.find tbl key with
       | None -> ()
       | Some record ->
         ignore
           (t.op.Transformation.rules.Propagator.apply ~lsn:record.Record.lsn
              (Log_record.Insert { table; row = record.Record.row }));
         t.demand_migrations <- t.demand_migrations + 1)

(* {2 Two-schema locking (paper, Sec. 4.3)}

   A lock on a source record is also taken on the implicated target
   records (with Source provenance, so transferred locks never fight
   each other), and a lock on a target record is also taken on the
   corresponding source records (Native — ordinary conflicts there).
   Both directions come from the operator's lock map. *)

let source_index t table =
  let rec go i = function
    | [] -> 0
    | s :: rest -> if String.equal s table then i else go (i + 1) rest
  in
  go 0 (sources t)

let dual_locks t ~txn:_ ~table ~key ~mode =
  let lock_map = t.op.Transformation.lock_map in
  if List.exists (String.equal table) (sources t) then
    List.map
      (fun (tbl, k) ->
         { Lock_table_many.table = tbl;
           key = k;
           lock =
             { Compat.mode; provenance = Compat.Source (source_index t table) }
         })
      (lock_map.source_to_targets ~table ~key)
  else if List.exists (String.equal table) (targets t) then
    List.map
      (fun (tbl, k) ->
         { Lock_table_many.table = tbl;
           key = k;
           lock = { Compat.mode; provenance = Compat.Native } })
      (lock_map.target_to_sources ~table ~key)
  else []

(* {2 Synchronization (paper, Sec. 3.4)} *)

let active_txns_on_sources t =
  let locks = Manager.locks t.mgr in
  List.filter_map
    (fun (_, _, owner, _) ->
       if Manager.is_active t.mgr owner then Some owner else None)
    (Lock_table.locked_resources_in locks ~tables:(sources t))
  |> List.sort_uniq Int.compare

(* All or nothing: when another transformation holds one of our
   latches right now, back out and retry at a later step rather than
   deadlocking. *)
let latch_sources t =
  Latch.try_latch_all (Manager.latches t.mgr) ~holder:t.holder (sources t)

let unlatch_sources t =
  Latch.unlatch_all (Manager.latches t.mgr) ~holder:t.holder (sources t)

(* The change's targets, those the catalog holds. *)
let target_tables t =
  List.filter_map (Catalog.find_opt (Db.catalog t.db)) (targets t)

(* The switch-over every strategy ends in: drain the log to its head,
   note the transactions still active on the sources, flip routing to
   the targets and freeze the sources. The targets stay hidden from
   snapshots until [finalize]. *)
let switch (t : t) =
  t.final_records <- Propagator.run_to_head t.prop;
  t.old_txns <- active_txns_on_sources t;
  t.route <- `Targets;
  intercept t { t.icpt with Manager.frozen = sources t }

let write_job_done t =
  if Option.is_some t.op.Transformation.spec_payload then
    ignore
      (Log.append (Manager.log t.mgr) ~txn:Log_record.system_txn
         ~prev_lsn:Lsn.zero (Log_record.Job_done { job = t.job_name }))

(* What [finalize] and [abort] both end with: the interceptor goes, the
   population's fuzzy cursors close (with [drop_sources = false] they
   would otherwise refuse the sources' arrival compaction forever;
   close is idempotent), the propagator unpins the log and the job
   leaves the registry. *)
let teardown t phase =
  release t;
  Population.close (population t);
  Propagator.close t.prop;
  remove_probes t;
  Db.unregister_job t.db ~name:t.job_name;
  t.tphase <- phase

let finalize t =
  (* The schema-change commit point doubles as a durability barrier:
     user commits acked inside the group window must not sit in the
     buffered sink while the switch becomes observable (and while the
     fault site below can crash us). *)
  Manager.flush_commits t.mgr;
  Fault.hit "sync_commit";
  if t.options.Options.drop_sources then
    List.iter
      (fun src ->
         if Catalog.mem (Db.catalog t.db) src then
           Catalog.drop (Db.catalog t.db) src)
      (sources t);
  (* Propagation stamps a target row as a system write at its source
     record's LSN, committed there even while its writer was still
     open. Every such writer has finished by now and the log is
     drained, so the targets become visible to snapshots that begin
     past the log head as it stands now. *)
  let from = Lsn.next (Log.head (Manager.log t.mgr)) in
  List.iter (fun tbl -> Table.reveal tbl ~from) (target_tables t);
  (* No [Job_done] here: the targets' final writes are unlogged, so
     completion only becomes durable at the next checkpoint (which
     finds no job registered and drops the stale [Job_state] from the
     WAL). A crash before that checkpoint resumes the job in its last
     persisted phase and re-converges — finalization is idempotent. *)
  teardown t Done

(* Returns false when the sources could not be latched (another
   transformation is synchronizing on an overlapping table); the caller
   stays in Propagating and retries on a later step. *)
let begin_sync t =
  match t.options.Options.sync with
  | Options.Blocking_commit ->
    (* Block newcomers; current transactions run to completion, and
       [Quiescing] switches once none is left. *)
    intercept t { t.icpt with Manager.frozen = sources t };
    t.tphase <- Quiescing;
    true
  | Options.Nonblocking_abort ->
    latch_sources t
    && begin
      switch t;
      unlatch_sources t;
      (* Force the transactions that were active on the sources to roll
         back; their CLRs keep flowing through the propagator, which
         releases the corresponding transferred locks as it reaches each
         abort record. *)
      List.iter
        (fun txn ->
           Manager.mark_abort_only t.mgr txn;
           match Manager.abort t.mgr txn with
           | Ok () -> t.forced_aborts <- t.forced_aborts + 1
           | Error _ -> ())
        t.old_txns;
      t.tphase <- Draining;
      true
    end
  | Options.Nonblocking_commit ->
    latch_sources t
    && begin
      switch t;
      (* Two-schema locking: the sources' current locks move onto the
         targets, and every later lock projects across. *)
      Propagator.transfer_current_source_locks t.prop
        t.op.Transformation.lock_map.source_to_targets;
      intercept t { t.icpt with Manager.extra_locks = Some (dual_locks t) };
      unlatch_sources t;
      t.tphase <- Draining;
      true
    end

let cc_ready t = unknown_flags t = 0

let try_sync t =
  if
    t.options.Options.sync_gate ()
    && Propagator.lag t.prop <= t.options.Options.sync_lag
  then
    if cc_ready t then begin_sync t
    else begin
      t.tphase <- Checking;
      true
    end
  else false

(* {2 The quantum stepper} *)

let step_quantum t =
  (match t.tphase with
   | Populating ->
     let pop = population t in
     let finished =
       match t.options.Options.strategy with
       | Options.Eager ->
         Population.step pop ~limit:t.options.Options.scan_batch
       | Options.Lazy ->
         (* Minimal background sweep: demand migration carries the hot
            set; one cold record per quantum guarantees completion on
            an idle system. *)
         Population.step pop ~limit:1
       | Options.Hybrid { sweep_quantum } ->
         Population.step pop ~limit:(max 1 sweep_quantum)
     in
     if finished then begin
       intercept t { t.icpt with Manager.on_access = None };
       write_fuzzy_mark t.mgr;
       t.tphase <- Propagating
     end
   | Propagating ->
     ignore (Propagator.step t.prop ~limit:t.options.Options.propagate_batch);
     if Propagator.lag t.prop = 0 && not t.caught_up_once then begin
       t.caught_up_once <- true;
       t.iterations <- t.iterations + 1
     end;
     if Propagator.lag t.prop > 0 then t.caught_up_once <- false;
     ignore (try_sync t)
   | Checking ->
     Option.iter (fun cc -> ignore (Consistency.step cc)) (checker t);
     ignore (Propagator.step t.prop ~limit:t.options.Options.propagate_batch);
     if cc_ready t then begin
       t.tphase <- Propagating;
       ignore (try_sync t)
     end
   | Quiescing ->
     ignore (Propagator.step t.prop ~limit:t.options.Options.propagate_batch);
     if active_txns_on_sources t = [] then begin
       switch t;
       finalize t
     end
   | Draining ->
     ignore (Propagator.step t.prop ~limit:t.options.Options.propagate_batch);
     let all_done =
       List.for_all (fun txn -> not (Manager.is_active t.mgr txn)) t.old_txns
     in
     if all_done && Propagator.lag t.prop = 0 then finalize t
   | Done | Failed _ -> ());
  (* Emit the per-quantum progress point {e before} reconciling spans:
     the work just done belongs to the span that was open while it ran,
     even on the step that closes the phase. *)
  if Obs.Registry.tracing t.obs then begin
    let attrs =
      [ ("job", Json.String t.job_name);
        ("phase", Json.String (phase_str t.tphase));
        ("scanned", Json.Int (Population.scanned (population t)));
        ("produced", Json.Int (Population.produced (population t)));
        ("propagated", Json.Int (Propagator.records_processed t.prop));
        ("position", Json.Int (Lsn.to_int (Propagator.position t.prop)));
        ("lag", Json.Int (Propagator.lag t.prop));
        ("locks_transferred", Json.Int (Propagator.locks_transferred t.prop)) ]
    in
    match t.phase_span with
    | Some (_, span) -> Obs.point t.obs ~in_span:span "transform.quantum" attrs
    | None -> Obs.point t.obs "transform.quantum" attrs
  end;
  sync_spans t;
  Fault.hit "quantum_end";
  match t.tphase with
  | Done -> `Done
  | Failed m -> `Failed m
  | Populating | Propagating | Checking | Quiescing | Draining -> `Running

let step t =
  if Manager.disk_full t.mgr then begin
    (* Degraded: a durable append found no space. Quanta write
       population/propagation records the sink could not make durable,
       so the change pauses rather than grow an unbounded buffered
       suffix. Probing the durability barrier each step makes the pause
       lift on its own once an append succeeds again (the sink clears
       the manager's flag); until then the quantum performs no work. *)
    Log.sync (Manager.log t.mgr);
    if Manager.disk_full t.mgr then `Running else step_quantum t
  end
  else step_quantum t

let run ?(between = fun () -> ()) t =
  let rec go () =
    match step t with
    | `Done -> Ok ()
    | `Failed m -> Error m
    | `Running ->
      between ();
      go ()
  in
  go ()

(* {2 Construction} *)

type resume_info = {
  r_phase : [ `Propagating | `Draining ];
  r_position : Lsn.t;
  r_skip : Manager.txn_id list;
}

(* Every construction path ends here: [create] after validating the
   options, [resume_one] after [resume] validated them once for all
   jobs. [resume] starts mid-lifecycle; [job_name] keeps a crashed
   job's registry name so its durable [Job_state] chain stays coherent. *)
let register db ~options ?resume ?job_name (op : Transformation.t) =
  let mgr = Db.manager db in
  let prop, tphase, route =
    match resume with
    | None ->
      (Transformation.start_propagator mgr op.rules, Populating, `Sources)
    | Some r ->
      (* The initial image is already in the targets (restored from the
         snapshot); re-read the retained log suffix from where the
         crashed propagator stood. Loser transactions were rolled back
         by recovery without logging, so their records are skipped. *)
      let prop =
        Propagator.create ~skip:r.r_skip mgr op.rules ~from:r.r_position
      in
      (match r.r_phase with
       | `Propagating -> (prop, Propagating, `Sources)
       | `Draining ->
         (* Already switched before the crash: the sources are dead
            (frozen below, no surviving transactions) and only the log
            tail still needs to reach the targets. *)
         (prop, Draining, `Targets))
  in
  let holder = Db.fresh_holder db in
  let obs = Db.obs db in
  let job_name =
    match job_name with
    | Some n -> n
    | None -> op.name ^ "#" ^ string_of_int holder
  in
  let names l = Json.List (List.map (fun s -> Json.String s) l) in
  let root_span =
    Obs.span_open obs "schema_change"
      ~attrs:
        [ ("job", Json.String job_name);
          ("operator", Json.String op.name);
          ("sources", names op.rules.sources);
          ("targets", names op.rules.targets) ]
  in
  let t =
    { db;
      mgr;
      options;
      op;
      prop;
      holder;
      job_name;
      tphase;
      route;
      iterations = 0;
      caught_up_once = false;
      final_records = 0;
      old_txns = [];
      forced_aborts = 0;
      demand_migrations = 0;
      icpt = Manager.empty_interceptor;
      obs;
      root_span;
      phase_span = None }
  in
  sync_spans t;
  (* The targets stay hidden from snapshots, and take no system
     version, until the change is done; so do those of a change resumed
     in Draining. *)
  List.iter Table.hide (target_tables t);
  (match (t.tphase, options.Options.strategy) with
   | Populating, (Options.Lazy | Options.Hybrid _) ->
     (* Demand migration covers the hot set while the population's
        sweep reaches the cold records. A resumed Propagating/Draining
        job has its initial image already. *)
     intercept t
       { Manager.empty_interceptor with
         on_access = Some (demand_migrate t) }
   | Draining, _ ->
     intercept t { Manager.empty_interceptor with frozen = sources t }
   | (Populating | Propagating | Checking | Quiescing | Done | Failed _), _ ->
     ());
  Obs.Registry.probe obs ("transform." ^ t.job_name ^ ".lag") (fun () ->
      float_of_int (Propagator.lag t.prop));
  Obs.Registry.probe obs ("transform." ^ t.job_name ^ ".propagated") (fun () ->
      float_of_int (Propagator.records_processed t.prop));
  let persist =
    match op.spec_payload with
    | None -> None
    | Some spec_payload ->
      Some
        (fun () ->
           let tag = phase_tag t.tphase in
           { Db.job_state =
               encode_job_state ~tag ~position:(Propagator.position t.prop)
                 spec_payload;
             low_water = Propagator.position t.prop;
             (* [resume_one] restarts a job saved while populating: it
                drops these targets and fills them again. *)
             rebuilt = (if String.equal tag "pop" then targets t else []) })
  in
  Db.register_job db ?persist ~name:t.job_name ~step:(fun () -> step t) ();
  (* Journal the job's existence right away: a crash from here on finds
     a [Job_state] in the WAL and knows a schema change was in flight
     (at worst it restarts population from scratch). *)
  (match persist with
   | Some p ->
     ignore
       (Log.append (Manager.log t.mgr) ~txn:Log_record.system_txn
          ~prev_lsn:Lsn.zero
          (Log_record.Job_state { job = t.job_name; state = (p ()).Db.job_state }))
   | None -> ());
  t

(* [check] raises a clear [Nbsc_error] on rejection: no
   programmatically-built record with a zero batch or sweep quantum can
   wedge the quantum loop. *)
let create db ?(options = Options.default) op =
  register db ~options:(Options.check options) op

(* {2 Crash resume} *)

let resume_one db ~options ~losers (name, state) =
  match decode_job_state state with
  | exception Failure m -> Error (Nbsc_error.corrupt m)
  | tag, position, spec_payload ->
    (match Spec.decode spec_payload with
     | exception Failure m -> Error (Nbsc_error.corrupt m)
     | spec ->
       let catalog = Db.catalog db in
       let targets = Spec.targets spec in
       (match tag with
        | "pop" | "prop" | "drain" -> ()
        | other -> failwith ("Transform.resume: unknown phase " ^ other));
       (* Resumable only if the initial image completed before the
          crash {e and} the durable state can still carry it forward:
          the targets must have been in the snapshot and the retained
          log suffix must reach back to the propagator's position.
          Otherwise restart: drop the half-built targets and run the
          whole transformation again. *)
       let resumable =
         (match tag with "prop" | "drain" -> true | _ -> false)
         && Lsn.(position > Log.base (Db.log db))
         && List.for_all (Catalog.mem catalog) targets
       in
       let resume =
         if not resumable then begin
           List.iter
             (fun tgt -> if Catalog.mem catalog tgt then Catalog.drop catalog tgt)
             targets;
           None
         end
         else
           Some
             { r_phase =
                 (if String.equal tag "drain" then `Draining else `Propagating);
               r_position = position;
               r_skip = losers }
       in
       (match Transformation.of_payload ~options db spec_payload with
        | Error m -> Error (Nbsc_error.corrupt m)
        | Ok op -> Ok (register db ~options ?resume ~job_name:name op)))

let resume ?(options = Options.default) persist =
  (* Validate before touching any job: a rejection after [resume_one]
     has dropped and rebuilt a job's targets would leave it half-done. *)
  match Options.validate options with
  | Error e -> Error e
  | Ok options ->
    let db = Persist.db persist in
    let losers =
      match Persist.last_recovery persist with
      | Some r -> r.Recovery.losers
      | None -> []
    in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | ((name, _) as job) :: rest ->
        (match resume_one db ~options ~losers job with
         | Error e -> Error (`Job_failed (name, Nbsc_error.to_string e))
         | exception Failure m -> Error (`Job_failed (name, m))
         | Ok t -> go (t :: acc) rest)
    in
    go [] (Persist.pending_jobs persist)

let abort t =
  match t.tphase with
  | Done -> ()
  | _ ->
    unlatch_sources t;
    (* Drop transferred locks on the targets, then the targets. *)
    let locks = Manager.locks t.mgr in
    List.iter
      (fun tgt ->
         List.iter
           (fun (key, owner, _) -> Lock_table.release locks ~owner ~table:tgt ~key)
           (Lock_table.locked_resources locks ~table:tgt);
         if Catalog.mem (Db.catalog t.db) tgt then
           Catalog.drop (Db.catalog t.db) tgt)
      (targets t);
    write_job_done t;
    teardown t (Failed "aborted by request");
    sync_spans t

let pp_phase ppf p = Format.pp_print_string ppf (phase_str p)

let pp_progress ppf p =
  Format.fprintf ppf
    "@[phase=%a iter=%d scanned=%d produced=%d applied=%d propagated=%d \
     lag=%d locks=%d final=%d unknown=%d aborts=%d@]"
    pp_phase p.p_phase p.iterations p.scanned p.produced p.applied p.propagated
    p.lag p.locks_transferred p.final_records p.unknown_flags p.forced_aborts
