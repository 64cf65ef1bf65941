open Nbsc_value
open Nbsc_txn
open Nbsc_core
module Obs = Nbsc_obs.Obs

type kind =
  | Foj_scenario of { r_rows : int; s_rows : int }
  | Split_scenario of { t_rows : int; assume_consistent : bool }

type workload = {
  n_clients : int;
  think_time : int;
  ops_per_txn : int;
  source_share : float;
  seed : int;
}

type costs = {
  op_cost : int;
  scan_cost : int;
  apply_cost : int;
  cc_cost : int;
  trigger_rtt : int;
}

let default_costs =
  { op_cost = 100; scan_cost = 2; apply_cost = 1; cc_cost = 50;
    trigger_rtt = 50 }

type tf_setup = {
  priority : float;
  options : Options.t;
}

type background =
  | No_background
  | Transformation of tf_setup
  | Blocking_dump of { dump_priority : float }
  | Trigger_maintenance

type result = {
  summary : Metrics.summary;
  tf_done_at : int option;
  tf_final_phase : Transform.phase option;
  tf_progress : Transform.progress option;
  tf_busy : int;
  retries : int;
  mgr_stats : Manager.Stats.counters;
  wal_high_water : int;
  wal_truncated : int;
}

let clients_for_workload ?(think_time = 21_000) ?(ops_per_txn = 10)
    ?(costs = default_costs) pct =
  let svc = (ops_per_txn + 1) * costs.op_cost in
  let saturating = float_of_int (think_time + svc) /. float_of_int svc in
  max 1 (int_of_float (Float.round (pct /. 100. *. saturating)))

(* {1 Fixture schemas} *)

let col = Schema.column

let r_schema =
  Schema.make ~key:[ "a" ]
    [ col ~nullable:false "a" Value.TInt; col "b" Value.TText;
      col "c" Value.TInt ]

let s_schema =
  Schema.make ~key:[ "c" ]
    [ col ~nullable:false "c" Value.TInt; col "d" Value.TText ]

let t_schema =
  Schema.make ~key:[ "a" ]
    [ col ~nullable:false "a" Value.TInt; col "b" Value.TText;
      col "c" Value.TInt; col "d" Value.TText ]

let dummy_schema =
  Schema.make ~key:[ "k" ]
    [ col ~nullable:false "k" Value.TInt; col "v" Value.TText ]

let dummy_rows = 5_000

let foj_spec =
  { Spec.r_table = "R"; s_table = "S"; t_table = "T_new";
    join_r = [ "c" ]; join_s = [ "c" ]; t_join = [ "c" ];
    r_carry = [ "a"; "b" ]; s_carry = [ "d" ]; many_to_many = false }

let split_spec ~assume_consistent =
  { Spec.t_table' = "T"; r_table' = "R_new"; s_table' = "S_new";
    r_cols = [ "a"; "b"; "c" ]; s_cols = [ "c"; "d" ];
    split_key = [ "c" ]; assume_consistent }

let city_of c = "city" ^ string_of_int c

let load_batched db ~table rows =
  let rec go = function
    | [] -> ()
    | rows ->
      let batch, rest =
        let rec take n acc = function
          | [] -> (List.rev acc, [])
          | x :: xs when n > 0 -> take (n - 1) (x :: acc) xs
          | xs -> (List.rev acc, xs)
        in
        take 1000 [] rows
      in
      (match Db.load db ~table batch with
       | Ok () -> ()
       | Error e ->
         failwith (Format.asprintf "Sim: load %s: %a" table Manager.pp_error e));
      go rest
  in
  go rows

let setup_db kind =
  let db = Db.create () in
  ignore (Db.create_table db ~name:"D" dummy_schema);
  load_batched db ~table:"D"
    (List.init dummy_rows (fun i ->
         Row.make [ Value.Int i; Value.Text "pad" ]));
  (match kind with
   | Foj_scenario { r_rows; s_rows } ->
     ignore (Db.create_table db ~name:"R" r_schema);
     ignore (Db.create_table db ~name:"S" s_schema);
     load_batched db ~table:"R"
       (List.init r_rows (fun i ->
            Row.make
              [ Value.Int (i + 1); Value.Text ("b" ^ string_of_int i);
                Value.Int (if s_rows = 0 then 0 else i mod s_rows) ]));
     load_batched db ~table:"S"
       (List.init s_rows (fun i ->
            Row.make [ Value.Int i; Value.Text ("d" ^ string_of_int i) ]))
   | Split_scenario { t_rows; _ } ->
     ignore (Db.create_table db ~name:"T" t_schema);
     load_batched db ~table:"T"
       (List.init t_rows (fun i ->
            let c = i mod 997 in
            Row.make
              [ Value.Int (i + 1); Value.Text ("b" ^ string_of_int i);
                Value.Int c; Value.Text (city_of c) ])));
  db

(* {1 A tiny binary min-heap of (time, client index)} *)

module Heap = struct
  type t = {
    mutable arr : (int * int) array;
    mutable len : int;
  }

  let create () = { arr = Array.make 64 (0, 0); len = 0 }

  let swap h i j =
    let tmp = h.arr.(i) in
    h.arr.(i) <- h.arr.(j);
    h.arr.(j) <- tmp

  let push h time v =
    if h.len >= Array.length h.arr then begin
      let bigger = Array.make (Array.length h.arr * 2) (0, 0) in
      Array.blit h.arr 0 bigger 0 h.len;
      h.arr <- bigger
    end;
    h.arr.(h.len) <- (time, v);
    let i = ref h.len in
    h.len <- h.len + 1;
    while !i > 0 && fst h.arr.((!i - 1) / 2) > fst h.arr.(!i) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let peek_time h = if h.len = 0 then None else Some (fst h.arr.(0))

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.arr.(0) in
      h.len <- h.len - 1;
      h.arr.(0) <- h.arr.(h.len);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.len && fst h.arr.(l) < fst h.arr.(!smallest) then smallest := l;
        if r < h.len && fst h.arr.(r) < fst h.arr.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          swap h !i !smallest;
          i := !smallest
        end
        else continue := false
      done;
      Some top
    end
end

(* {1 Clients} *)

type client = {
  cid : int;
  rng : Random.State.t;
      (* Per-client stream: the op/think sequence of every client is
         then independent of scheduling order, so a baseline run and a
         transformation run with the same seed issue identical
         workloads — the paired design behind the relative metrics. *)
  backoff : Backoff.t;
  mutable txn : Manager.txn_id option;
  mutable op_idx : int;
  mutable started : int;  (* when this transaction attempt became ready *)
}

let run ~kind ~workload ?(costs = default_costs) ?on_db ~background ~duration
    ~warmup () =
  let db = setup_db kind in
  let mgr = Db.manager db in
  let now = ref 0 in
  (* Events are stamped with virtual time, so a fixed seed yields a
     byte-identical trace run after run. *)
  Obs.Registry.set_clock (Db.obs db) (fun () -> float_of_int !now);
  (match on_db with Some f -> f db | None -> ());
  let spec =
    match kind with
    | Foj_scenario _ -> Spec.Foj foj_spec
    | Split_scenario { assume_consistent; _ } ->
      Spec.Split (split_spec ~assume_consistent)
  in
  let transform =
    match background with
    | Transformation setup ->
      (match Db.Schema_change.start db ~options:setup.options spec with
       | Ok h -> Some (setup, Db.Schema_change.transform h)
       | Error e -> failwith ("Sim.run: " ^ Nbsc_error.to_string e))
    | No_background | Blocking_dump _ | Trigger_maintenance -> None
  in
  let dump =
    match background with
    | Blocking_dump _ ->
      Some
        (Nbsc_baseline.Insert_into_select.create db
           (Transformation.of_spec db spec))
    | No_background | Transformation _ | Trigger_maintenance -> None
  in
  let trigger =
    match background with
    | Trigger_maintenance ->
      Some
        (Nbsc_baseline.Trigger_method.install db
           (Transformation.of_spec db spec))
    | No_background | Transformation _ | Blocking_dump _ -> None
  in
  let metrics = Metrics.create ~obs:(Db.obs db) () in
  let credit = ref 0. in
  let tf_busy = ref 0 in
  let retries = ref 0 in
  let tf_done_at = ref None in
  let heap = Heap.create () in
  let queue = Queue.create () in
  let clients =
    Array.init workload.n_clients (fun cid ->
        { cid;
          rng = Random.State.make [| workload.seed; cid |];
          backoff = Backoff.create ~op_cost:costs.op_cost ();
          txn = None;
          op_idx = 0;
          started = 0 })
  in
  (* Think times are randomized around the mean so arrivals behave like
     a stochastic process instead of a deterministic lockstep (constant
     think times produce zero queueing at any utilization). *)
  let think c =
    (workload.think_time / 2)
    + Random.State.int c.rng (max 1 workload.think_time)
  in
  Array.iter
    (fun c ->
       Heap.push heap (Random.State.int c.rng (max 1 workload.think_time)) c.cid)
    clients;

  let in_window time = time >= warmup && time <= duration in

  let source_ops_enabled () =
    match transform, dump with
    | _, Some d -> not (Nbsc_baseline.Insert_into_select.finished d)
    | Some (_, t), None ->
      (match Transform.phase t with
       | Transform.Done | Transform.Failed _ -> false
       | _ -> Transform.routing t = `Sources)
    | None, None -> true
  in

  let rand_text rng =
    Value.Text ("w" ^ string_of_int (Random.State.int rng 100000))
  in

  (* One update against the tables under transformation. *)
  let source_update rng txn =
    match kind with
    | Foj_scenario { r_rows; s_rows } ->
      if Random.State.float rng 1.0 < 0.75 then
        let key = Row.make [ Value.Int (1 + Random.State.int rng r_rows) ] in
        Manager.update mgr ~txn ~table:"R" ~key [ (1, rand_text rng) ]
      else
        let key = Row.make [ Value.Int (Random.State.int rng (max 1 s_rows)) ] in
        Manager.update mgr ~txn ~table:"S" ~key [ (1, rand_text rng) ]
    | Split_scenario { t_rows; _ } ->
      let key = Row.make [ Value.Int (1 + Random.State.int rng t_rows) ] in
      if Random.State.float rng 1.0 < 0.8 then
        Manager.update mgr ~txn ~table:"T" ~key [ (1, rand_text rng) ]
      else begin
        (* split-attribute churn, FD-preserving *)
        let c = Random.State.int rng 997 in
        Manager.update mgr ~txn ~table:"T" ~key
          [ (2, Value.Int c); (3, Value.Text (city_of c)) ]
      end
  in

  let dummy_update rng txn =
    let key = Row.make [ Value.Int (Random.State.int rng dummy_rows) ] in
    Manager.update mgr ~txn ~table:"D" ~key [ (1, rand_text rng) ]
  in

  let restart ~aborted c delay =
    (match c.txn with
     | Some txn when Manager.is_active mgr txn -> ignore (Manager.abort mgr txn)
     | _ -> ());
    if aborted && in_window !now then Metrics.record_abort metrics;
    Backoff.reset c.backoff;
    c.txn <- None;
    c.op_idx <- 0;
    Heap.push heap (!now + delay) c.cid
  in

  (* Restart pause after an abort: jittered, so a crowd of victims of
     the same conflict does not re-collide in lockstep. *)
  let restart_delay c =
    match Backoff.next c.backoff c.rng `Deadlock with
    | `Retry d -> d
    | `Give_up -> costs.op_cost * 4
  in

  let finish_txn c =
    match c.txn with
    | None -> ()
    | Some txn ->
      (match Manager.commit mgr txn with
       | Ok () ->
         if in_window c.started && in_window !now then
           Metrics.record_txn metrics ~start:c.started ~finish:!now;
         Backoff.reset c.backoff;
         c.txn <- None;
         c.op_idx <- 0;
         Heap.push heap (!now + think c) c.cid
       | Error _ -> restart ~aborted:true c (think c / 4))
  in

  (* Extra capacity consumed inside the most recent user operation by
     trigger-based maintenance (the Ronström comparator). *)
  let trigger_extra = ref 0 in

  let exec_client_op c =
    let txn =
      match c.txn with
      | Some txn -> txn
      | None ->
        let txn = Manager.begin_txn mgr in
        c.txn <- Some txn;
        txn
    in
    let use_source =
      Random.State.float c.rng 1.0 < workload.source_share
      && source_ops_enabled ()
    in
    let outcome =
      if use_source then source_update c.rng txn else dummy_update c.rng txn
    in
    (match outcome, trigger with
     | Ok (), Some tr ->
       let work = Nbsc_baseline.Trigger_method.last_op_work tr in
       trigger_extra :=
         (work * costs.apply_cost)
         + (if work > 0 then costs.trigger_rtt else 0)
     | _ -> trigger_extra := 0);
    let back_off cause =
      incr retries;
      match Backoff.next c.backoff c.rng cause with
      | `Retry d -> Heap.push heap (!now + d) c.cid
      | `Give_up ->
        (* Retry budget spent: abort cleanly rather than pound a lock
           we are evidently not getting. *)
        if in_window !now then Metrics.record_budget_exhausted metrics;
        restart ~aborted:true c (restart_delay c)
    in
    match outcome with
    | Ok () | Error `Not_found ->
      Backoff.reset c.backoff;
      c.op_idx <- c.op_idx + 1;
      if c.op_idx >= workload.ops_per_txn then finish_txn c
      else Queue.add c.cid queue
    | Error (`Blocked _) ->
      (* The engine's verdict was "wait" (no deadlock): back off and
         retry — jittered so equal losers don't reconvoy. *)
      if in_window !now then Metrics.record_lock_wait metrics;
      back_off `Blocked
    | Error (`Deadlock _) ->
      (* The engine sentenced us as deadlock victim. *)
      if in_window !now then Metrics.record_deadlock_abort metrics;
      restart ~aborted:true c (restart_delay c)
    | Error (`Latched _) -> back_off `Latched
    | Error (`Frozen _) -> back_off `Frozen
    | Error `Abort_only ->
      if Manager.is_victim mgr txn && in_window !now then
        Metrics.record_victim_kill metrics;
      restart ~aborted:true c (restart_delay c)
    | Error `Txn_not_active when Manager.is_victim mgr txn ->
      (* Wounded and already rolled back by the engine on another
         transaction's behalf; restart is all that's left. *)
      if in_window !now then Metrics.record_victim_kill metrics;
      restart ~aborted:true c (restart_delay c)
    | Error
        (`Duplicate_key | `No_table _ | `Txn_not_active | `Key_update
        | `Disk_full) ->
      (* [`Disk_full] is dead code here — the simulator never injects
         ENOSPC — but the manager's error set is closed, so it must be
         covered. *)
      restart ~aborted:false c (restart_delay c)
  in

  (* Cost of one transformation slice = the work it actually performed,
     in the same capacity units as user operations. *)
  let applied_ops t = (Transform.progress t).Transform.applied in
  let tf_slice () =
    match dump with
    | Some d ->
      let before = Nbsc_baseline.Insert_into_select.rows_processed d in
      (match Nbsc_baseline.Insert_into_select.step d ~limit:16 with
       | `Done -> if !tf_done_at = None then tf_done_at := Some !now
       | `Running -> ());
      ((Nbsc_baseline.Insert_into_select.rows_processed d - before)
       * costs.scan_cost)
      + 1
    | None ->
    match transform with
    | None -> 0
    | Some (_, t) ->
      (match Transform.phase t with
       | Transform.Done | Transform.Failed _ -> 0
       | _ ->
         let before = Transform.progress t in
         let before_applied = applied_ops t in
         let before_phase = Transform.phase t in
         let status = Transform.step t in
         let after = Transform.progress t in
         let after_applied = applied_ops t in
         let cost =
           ((after.Transform.scanned - before.Transform.scanned)
            * costs.scan_cost)
           + ((after_applied - before_applied) * costs.apply_cost)
           + (match before_phase with
              | Transform.Checking -> costs.cc_cost
              | _ -> 0)
           + 1
         in
         (match status with
          | `Done -> if !tf_done_at = None then tf_done_at := Some !now
          | `Failed _ | `Running -> ());
         cost)
  in
  let tf_active () =
    match dump with
    | Some d -> not (Nbsc_baseline.Insert_into_select.finished d)
    | None ->
      (match transform with
       | None -> false
       | Some (_, t) ->
         (match Transform.phase t with
          | Transform.Done | Transform.Failed _ -> false
          | _ -> true))
  in

  (* {2 Main loop}

     The transformation's priority is an absolute CPU share with
     processor-sharing semantics, the paper's model: the background
     process continuously consumes [priority] of the capacity (so a
     user operation takes [op_cost / (1 - priority)] while the change
     is running — interference felt by {e every} transaction, growing
     with queueing as the server nears saturation), the transformation
     performs work at rate [priority] (so halving the priority roughly
     doubles the completion time, Fig. 4d), and below a threshold the
     propagator cannot keep up with log generation and never converges.

     Credit accrues at [priority] per unit of virtual time; whenever it
     covers a slice the transformation's real work runs, consuming the
     banked share rather than server time. *)
  let priority =
    match background with
    | Transformation s -> min 0.9 (max 0. s.priority)
    | Blocking_dump { dump_priority } -> min 0.95 (max 0. dump_priority)
    | No_background | Trigger_maintenance -> 0.
  in
  let advance dt =
    credit := !credit +. (priority *. float_of_int dt);
    now := !now + dt
  in
  (* Charges are whole time units, so each one carries its fractional
     part to the next: over a run they average [op_cost / (1 -
     priority)]. Rounding every charge up would cost 101 units at any
     priority below 1 % (op_cost 100), and Fig. 4(d)'s low end would
     lose its slope. *)
  let op_cost_carry = ref 0. in
  let inflated_op_cost () =
    let exact =
      (float_of_int costs.op_cost /. (1. -. priority)) +. !op_cost_carry
    in
    let charge = int_of_float exact in
    op_cost_carry := exact -. float_of_int charge;
    charge
  in
  let break = ref false in
  while (not !break) && !now <= duration do
    (* Wake clients whose timers expired. *)
    let rec wake () =
      match Heap.peek_time heap with
      | Some t when t <= !now ->
        (match Heap.pop heap with
         | Some (_, cid) ->
           let c = clients.(cid) in
           (* A client re-entering mid-transaction keeps its start. *)
           if c.txn = None && c.op_idx = 0 then c.started <- !now;
           Queue.add cid queue;
           wake ()
         | None -> ())
      | _ -> ()
    in
    wake ();
    let user_ready = not (Queue.is_empty queue) in
    if tf_active () && !credit >= 1. then begin
      (* Convert banked share into actual background work; the time was
         already accounted for by the inflated user-operation costs and
         idle advances. *)
      let cost = max 1 (tf_slice ()) in
      tf_busy := !tf_busy + cost;
      credit := !credit -. float_of_int cost
    end
    else if user_ready then begin
      let cid = Queue.pop queue in
      exec_client_op clients.(cid);
      advance
        (!trigger_extra
         + if tf_active () then inflated_op_cost () else costs.op_cost)
    end
    else begin
      (* Idle: jump to the next client wake-up or to the moment the
         background job has earned its next slice. *)
      let to_credit =
        if tf_active () && priority > 0. then
          Some (int_of_float (ceil ((1. -. !credit) /. priority)))
        else None
      in
      let to_wake =
        match Heap.peek_time heap with Some t -> Some (t - !now) | None -> None
      in
      match to_credit, to_wake with
      | None, None -> break := true
      | Some dt, None | None, Some dt -> advance (max 1 dt)
      | Some a, Some b -> advance (max 1 (min a b))
    end
  done;

  (* Roll back transactions left open so the engine state is clean. *)
  Array.iter
    (fun c ->
       match c.txn with
       | Some txn when Manager.is_active mgr txn -> ignore (Manager.abort mgr txn)
       | _ -> ())
    clients;

  (match trigger with
   | Some tr -> Nbsc_baseline.Trigger_method.uninstall tr
   | None -> ());
  { summary = Metrics.summarize metrics ~window:(duration - warmup);
    tf_done_at = !tf_done_at;
    tf_final_phase =
      (match transform with None -> None | Some (_, t) -> Some (Transform.phase t));
    tf_progress =
      (match transform with
       | None -> None
       | Some (_, t) -> Some (Transform.progress t));
    tf_busy = !tf_busy;
    retries = !retries;
    mgr_stats = Manager.Stats.get mgr;
    wal_high_water = Nbsc_wal.Log.live_high_water (Db.log db);
    wal_truncated = Nbsc_wal.Log.truncated_total (Db.log db) }
