(* Schema-change benchmark: one named workload, one seed.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--work-dir DIR] [--tiny]

   Runs [--seconds] worth of identical episodes (see [Driver]; the
   count is fixed per workload, not timed), checks each against the
   relational oracle, and prints the metrics; the last line of standard
   output is the JSON result. With [--trace 1] the episodes alternate
   between untraced and traced ones, in which every call into the
   engine is also recorded as a span; the result then carries the
   per-layer metrics of the traced episodes, the span dump of the first
   one goes to DIR/trace-NAME.jsonl, and the end-to-end metrics of both
   kinds are printed side by side: their difference is the tracing
   overhead, under the same host speed.

   [--tiny] shrinks the data for the determinism self-test. Exit code 1
   means a check failed: oracle, durability, convergence, stream
   identity, a negative response time, or an episode that did not
   repeat the first one's counts. *)

module W = Workload
module D = Driver

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--work-dir DIR] [--tiny]";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  work_dir : string;
  tiny : bool;
}

let parse () =
  let rec go acc = function
    | "--workload" :: v :: r -> go { acc with workload = v } r
    | "--seed" :: v :: r -> go { acc with seed = int_of_string v } r
    | "--seconds" :: v :: r -> go { acc with seconds = float_of_string v } r
    | "--trace" :: v :: r -> go { acc with trace = v = "1" } r
    | "--work-dir" :: v :: r -> go { acc with work_dir = v } r
    | "--tiny" :: r -> go { acc with tiny = true } r
    | [] -> acc
    | _ -> usage ()
  in
  try
    go
      { workload = ""; seed = 1; seconds = 10.; trace = false;
        work_dir = ".perfbench_work"; tiny = false }
      (List.tl (Array.to_list Sys.argv))
  with Failure _ -> usage ()

(* {1 Per-layer aggregation over the span dumps} *)

type acc = {
  by_name : Stats.t array;          (* change-side span durations, per name *)
  self_s : float array;             (* change-side self seconds, per name *)
  twin_busy : float array;          (* twin-side busy seconds, per name *)
  twin_self : float array;          (* twin-side self seconds, per name *)
  mutable load_s : float;           (* change-side Db.load calls at set-up *)
}

let acc () =
  { by_name = Array.init (Array.length Spans.names) (fun _ -> Stats.create ());
    self_s = Array.make (Array.length Spans.names) 0.;
    twin_busy = Array.make (Array.length Spans.names) 0.;
    twin_self = Array.make (Array.length Spans.names) 0.;
    load_s = 0. }

let fold_spans acc sp =
  let self = Spans.self_times sp in
  for i = 0 to sp.Spans.n - 1 do
    let name = sp.Spans.name.(i) and d = Spans.duration sp i in
    let change_side = Spans.side sp i = 0 in
    if Spans.phase sp i = Spans.change_phase then begin
      if change_side then begin
        Stats.push acc.by_name.(name) d;
        acc.self_s.(name) <- acc.self_s.(name) +. self.(i)
      end
      else begin
        acc.twin_busy.(name) <- acc.twin_busy.(name) +. d;
        acc.twin_self.(name) <- acc.twin_self.(name) +. self.(i)
      end
    end
    else if change_side && name = Spans.load && Spans.phase sp i = Spans.setup_phase then
      acc.load_s <- acc.load_s +. d
  done

(* {1 Output} *)

type metric = { name : string; unit : string; value : float }

let json_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun { name; unit; value } ->
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

let heap_peak_mb () =
  fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let sum (f : D.result -> float) l = List.fold_left (fun s r -> s +. f r) 0. l
let isum (f : D.result -> int) l = List.fold_left (fun s r -> s + f r) 0 l

(* The episodes of a run are identical work. [setup_s] is the median of
   their set-up times. Every other timing pools the whole run, as
   commits over the summed side clocks, or percentiles over the
   response times of all episodes: the host's speed drifts over seconds
   to minutes, and a pooled figure averages over every state the run
   saw, where a per-episode minimum flips between states
   (STEADINESS.md compares them). *)
let end_to_end ~heap_mb (rs : D.result list) =
  let pooled side =
    let t = Stats.create () in
    List.iter (fun r -> Stats.append t (side r).D.resp) rs;
    t
  in
  let change = pooled (fun r -> r.D.change) and twin = pooled (fun r -> r.D.twin) in
  let tput side clock = ratio (fi (isum (fun r -> (side r).D.commits) rs)) (sum clock rs) in
  let change_tps = tput (fun r -> r.D.change) (fun r -> r.D.change_clock) in
  let twin_tps = tput (fun r -> r.D.twin) (fun r -> r.D.twin_clock) in
  let p50 t = Stats.percentile t 0.5 *. 1e3 in
  [ { name = "setup_s"; unit = "s"; value = Stats.median_of (List.map (fun r -> r.D.setup_s) rs) };
    { name = "tput_tps"; unit = "1/s"; value = change_tps };
    { name = "rel_tput"; unit = "ratio"; value = ratio change_tps twin_tps };
    { name = "p50_ms"; unit = "ms"; value = p50 change };
    { name = "p99_ms"; unit = "ms"; value = Stats.percentile change 0.99 *. 1e3 };
    { name = "rel_p50"; unit = "ratio"; value = ratio (p50 change) (p50 twin) };
    { name = "change_s"; unit = "s";
      value = sum (fun r -> r.D.change_clock) rs /. fi (List.length rs) };
    { name = "heap_peak_mb"; unit = "MB"; value = heap_mb } ]

(* What must repeat exactly from one episode of a run to the next. *)
let replay_key (r : D.result) =
  let side c = (c.D.commits, c.D.failures, c.D.retries) in
  (side r.D.change, side r.D.twin, r.D.quanta, r.D.wal_records, r.D.stream_digest)

let per_layer (rs : D.result list) acc =
  let n = fi (List.length rs) in
  let per_ep x = x /. n in
  let a_clock = sum (fun r -> r.D.change_wall) rs in
  let lay f = fi (isum (fun r -> f (Option.get r.D.layer)) rs) in
  let commits = fi (isum (fun r -> r.D.change.D.commits) rs) in
  let attempts = fi (isum (fun r -> r.D.change.D.attempts) rs) in
  let busy id = Stats.sum acc.by_name.(id) in
  let m name unit value = { name; unit; value } in
  let phase_metrics label id work work_unit =
    [ m (label ^ ".busy_s") "s" (per_ep (busy id));
      m (label ^ ".share") "ratio" (ratio (busy id) a_clock) ]
    @ (match work with
        | Some (wname, count) -> [ m (label ^ "." ^ wname) work_unit (ratio (busy id *. 1e6) count) ]
        | None -> [])
  in
  let quanta = Stats.create () in
  List.iter (fun id -> Stats.append quanta acc.by_name.(id))
    Spans.[ populate; sweep; propagate; sync ];
  let txn_kind id =
    let label = Spans.names.(id) in
    let t = acc.by_name.(id) in
    [ m (label ^ ".n") "count" (per_ep (fi (Stats.length t)));
      m (label ^ ".busy_s") "s" (per_ep (Stats.sum t));
      m (label ^ ".share") "ratio" (ratio (Stats.sum t) a_clock);
      m (label ^ ".p50_us") "us" (Stats.percentile t 0.5 *. 1e6);
      m (label ^ ".p99_us") "us" (Stats.percentile t 0.99 *. 1e6) ]
  in
  let resp = Stats.create () in
  List.iter (fun r -> Stats.append resp r.D.change.D.resp) rs;
  let _, ptail, _ = Stats.tail resp in
  let ckpt = acc.by_name.(Spans.checkpoint) in
  let wal_bytes = fi (isum (fun r -> r.D.wal_bytes) rs) in
  let snap_bytes = fi (isum (fun r -> r.D.snapshot_bytes) rs) in
  let open_dir = sum (fun r -> r.D.open_dir_s) rs and resume = sum (fun r -> r.D.resume_s) rs in
  [ m "core.quanta" "count" (per_ep (fi (isum (fun r -> r.D.quanta) rs))) ]
  @ phase_metrics "core.populate" Spans.populate
    (Some ("us_per_row", lay (fun l -> l.D.scanned))) "us"
  @ phase_metrics "core.sweep" Spans.sweep None ""
  @ [ m "core.quantum.p99_ms" "ms" (Stats.percentile quanta 0.99 *. 1e3);
      m "core.quantum.max_ms" "ms" (Stats.max quanta *. 1e3) ]
  @ phase_metrics "core.propagate" Spans.propagate
    (Some ("us_per_record", lay (fun l -> l.D.propagated))) "us"
  @ [ m "core.apply_ratio" "ratio"
        (ratio (lay (fun l -> l.D.applied)) (lay (fun l -> l.D.records_read)));
      m "core.lag_peak" "count"
        (fi (List.fold_left (fun x r -> max x (Option.get r.D.layer).D.lag_peak) 0 rs));
      m "core.locks_transferred" "count" (per_ep (lay (fun l -> l.D.locks_transferred)));
      m "core.demand_migrations" "count" (per_ep (lay (fun l -> l.D.demand)));
      m "core.sync.window_us" "us"
        (Stats.median_of (List.map (fun r -> r.D.sync_window_s) rs) *. 1e6);
      m "core.sync.final_records" "count" (per_ep (lay (fun l -> l.D.final_records)));
      m "core.forced_aborts" "count" (per_ep (lay (fun l -> l.D.forced_aborts)));
      m "core.resume_s" "s" (per_ep resume) ]
  @ List.concat_map txn_kind Spans.txn_kinds
  @ [ m "txn.commit.max_ms" "ms" (Stats.max acc.by_name.(Spans.commit) *. 1e3);
      m "txn.wait_share" "ratio"
        (ratio acc.self_s.(Spans.txn_) (Stats.sum acc.by_name.(Spans.txn_)));
      m "txn.retries_per_commit" "ratio"
        (ratio (fi (isum (fun r -> r.D.change.D.retries) rs)) commits);
      m "txn.commit_ratio" "ratio" (ratio commits attempts);
      m "txn.response.ptail_ms" "ms" (ptail *. 1e3);
      m "lock.blocked" "count" (per_ep (lay (fun l -> l.D.blocked)));
      m "lock.waits" "count" (per_ep (lay (fun l -> l.D.lock_waits)));
      m "lock.deadlocks" "count" (per_ep (lay (fun l -> l.D.deadlocks)));
      m "lock.victims" "count" (per_ep (lay (fun l -> l.D.victims)));
      m "wal.records_per_txn" "count"
        (ratio (fi (isum (fun r -> r.D.wal_records) rs)) commits);
      m "wal.live_high_water" "count"
        (fi (List.fold_left (fun x r -> max x (Option.get r.D.layer).D.wal_high_water) 0 rs));
      m "wal.truncated" "count" (per_ep (lay (fun l -> l.D.wal_truncated)));
      m "storage.versions_live_peak" "count"
        (fi (List.fold_left (fun x r -> max x (Option.get r.D.layer).D.versions_peak) 0 rs));
      m "storage.versions_reclaimed" "count" (per_ep (lay (fun l -> l.D.versions_reclaimed)));
      m "engine.load_s" "s" (per_ep acc.load_s);
      m "engine.checkpoints" "count" (per_ep (fi (isum (fun r -> r.D.checkpoints) rs)));
      m "engine.checkpoint.p50_ms" "ms" (Stats.percentile ckpt 0.5 *. 1e3);
      m "engine.checkpoint.max_ms" "ms" (Stats.max ckpt *. 1e3);
      m "engine.flushes" "count" (per_ep (lay (fun l -> l.D.flushes)));
      m "engine.wal_bytes" "B" (per_ep wal_bytes);
      m "engine.snapshot_bytes" "B" (per_ep snap_bytes);
      m "engine.open_dir_s" "s" (per_ep open_dir);
      m "engine.recover_s" "s" (per_ep (open_dir +. resume));
      m "engine.wal_bytes_per_txn" "B" (ratio (wal_bytes +. snap_bytes) commits);
      m "gc.alloc_words_per_txn" "words"
        (ratio (sum (fun r -> (Option.get r.D.layer).D.alloc_words) rs) commits);
      m "gc.minor_collections" "count" (per_ep (lay (fun l -> l.D.minor_gcs)));
      m "gc.major_collections" "count" (per_ep (lay (fun l -> l.D.major_gcs))) ]

(* Self time is a span's duration minus its children's: for a
   transaction, the part of its response time spent outside its own
   calls; for a call or a quantum, its whole duration. *)
let print_layer_table acc (rs : D.result list) =
  let a_clock = sum (fun r -> r.D.change_wall) rs in
  let b_clock = sum (fun r -> r.D.twin_wall) rs in
  Printf.printf "per-layer spans over %d episodes (change side vs twin, change phase):\n"
    (List.length rs);
  Printf.printf "  %-18s %9s %10s %10s %7s %10s %10s %7s\n" "span" "count" "busy_s"
    "self_s" "share" "twin_s" "twin_self" "share";
  Array.iteri
    (fun id name ->
       let t = acc.by_name.(id) in
       if Stats.length t > 0 || acc.twin_busy.(id) > 0. then
         Printf.printf "  %-18s %9d %10.4f %10.4f %7.4f %10.4f %10.4f %7.4f\n" name
           (Stats.length t) (Stats.sum t) acc.self_s.(id) (ratio (Stats.sum t) a_clock)
           acc.twin_busy.(id) acc.twin_self.(id) (ratio acc.twin_busy.(id) b_clock))
    Spans.names

let () =
  let args = parse () in
  let w =
    match W.find ~tiny:args.tiny args.workload with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" args.workload
        (String.concat ", " (List.map (fun w -> w.W.name) (W.all ~tiny:false)));
      exit 2
  in
  let t_start = Unix.gettimeofday () in
  if not (Sys.file_exists args.work_dir) then Unix.mkdir args.work_dir 0o755;
  let sp = Spans.create () in
  let acc = acc () in
  let results = ref [] in
  let attempted_so_far () = isum (fun r -> r.D.change.D.attempts) (List.map snd !results) in
  let failed_so_far () = isum (fun r -> r.D.change.D.failures) (List.map snd !results) in
  let episodes = max 1 (int_of_float (args.seconds /. w.W.episode_s)) in
  (* Which episodes record spans: none, or every second one of at
     least two, starting untraced. *)
  let traced =
    if args.trace then List.init (max 2 episodes) (fun i -> i mod 2 = 1)
    else List.init episodes (fun _ -> false)
  in
  (* The heap peak of the untraced episodes: read after the first
     episode, which is untraced, before any span is kept. *)
  let heap_untraced = ref 0. in
  (try
     List.iter
       (fun tr ->
          (* Start every episode from a compacted heap, untimed, so the
             previous episode's garbage is not collected on this one's
             clock. *)
          Gc.compact ();
          let spans = if tr then Some sp else None in
          let r = D.run ~seed:args.seed ~w ~work_dir:args.work_dir ~spans in
          if !results = [] then heap_untraced := heap_peak_mb ();
          if not r.D.streams_identical then
            raise (D.Check_failed "the twins received different transaction streams");
          (match !results with
           | (_, r0) :: _ when replay_key r <> replay_key r0 ->
             raise (D.Check_failed "an episode did not replay the first one's work")
           | _ -> ());
          if tr then begin
            if not (List.exists fst !results) then begin
              let path = Filename.concat args.work_dir ("trace-" ^ w.W.name ^ ".jsonl") in
              let oc = open_out path in
              Spans.dump sp ~origin:sp.Spans.start.(0) oc;
              close_out oc;
              Printf.printf "span dump (first traced episode, %d spans): %s\n" sp.Spans.n path
            end;
            fold_spans acc sp;
            Spans.clear sp
          end;
          Printf.printf "episode %d%s: setup_s %.4f change_s %.4f (wall %.4f) tput_tps %.0f rel_tput %.4f\n%!"
            (List.length !results + 1) (if tr then " (traced)" else "") r.D.setup_s
            r.D.change_clock r.D.change_wall
            (ratio (fi r.D.change.D.commits) r.D.change_clock)
            (ratio (ratio (fi r.D.change.D.commits) r.D.change_clock)
               (ratio (fi r.D.twin.D.commits) r.D.twin_clock));
          results := !results @ [ (tr, r) ])
       traced
   with D.Check_failed m ->
     Printf.printf "CHECK FAILED: %s\n" m;
     print_endline
       (json_result ~correct:false ~attempted:(max 1 (attempted_so_far ()))
          ~failed:(failed_so_far ()) []);
     exit 1);
  (* Read before any post-processing allocates. *)
  let heap_all = heap_peak_mb () in
  let kind t = List.filter_map (fun (tr, r) -> if tr = t then Some r else None) !results in
  let rs = kind false in
  let heap_mb = if args.trace then !heap_untraced else heap_all in
  let e2e = end_to_end ~heap_mb rs in
  let all = List.map snd !results in
  let attempted = isum (fun r -> r.D.change.D.attempts) all in
  let failed = isum (fun r -> r.D.change.D.failures) all in
  let r0 = List.hd rs in
  Printf.printf "workload %s seed %d: %d episodes (%d traced) in %.1f s; per episode %d quanta, \
                 %d commits, %d failed of %d attempts, %d retries, %d WAL records\n"
    w.W.name args.seed (List.length all) (List.length all - List.length rs)
    (Unix.gettimeofday () -. t_start) r0.D.quanta
    r0.D.change.D.commits r0.D.change.D.failures r0.D.change.D.attempts
    r0.D.change.D.retries r0.D.wal_records;
  (* Propagation must outpace log generation for the change to finish
     (the Fig. 4(d) threshold): capacity per quantum over the records
     the traffic appends per quantum. *)
  Printf.printf "convergence margin: propagate_batch %d / %.1f log records per quantum = %.2f\n"
    w.W.options.Nbsc_core.Options.propagate_batch
    (ratio (fi r0.D.wal_records) (fi r0.D.quanta))
    (ratio (fi w.W.options.Nbsc_core.Options.propagate_batch)
       (ratio (fi r0.D.wal_records) (fi r0.D.quanta)));
  Printf.printf "response-time samples per episode: %d change side, %d twin\n"
    (Stats.length r0.D.change.D.resp) (Stats.length r0.D.twin.D.resp);
  Printf.printf "fail_frac (failed / attempted, change side): %.6g\n" (ratio (fi failed) (fi attempted));
  let resp = Stats.create () in
  List.iter (fun r -> Stats.append resp r.D.change.D.resp) rs;
  let p, v, beyond = Stats.tail resp in
  Printf.printf "response-time tail: p%g = %.3f ms (%d samples beyond)\n" (p *. 100.)
    (v *. 1e3) beyond;
  List.iter (fun m -> Printf.printf "  %-14s %14.6f %s\n" m.name m.value m.unit) e2e;
  if w.W.durable then
    Printf.printf "durable: recover_s %.6f, wal_bytes_per_txn %.1f B (per episode: \
                   %d checkpoints, %d WAL B, %d snapshot B)\n"
      (sum (fun r -> r.D.open_dir_s +. r.D.resume_s) rs /. fi (List.length rs))
      (ratio (fi (r0.D.wal_bytes + r0.D.snapshot_bytes)) (fi r0.D.change.D.commits))
      r0.D.checkpoints r0.D.wal_bytes r0.D.snapshot_bytes;
  Printf.printf "counts: {\"commits\": %d, \"failures\": %d, \"retries\": %d, \
                 \"quanta\": %d, \"wal_records\": %d, \"heap_peak_mb\": %.17g, \
                 \"fail_frac\": %.17g, \"wal_bytes_per_txn\": %.17g, \
                 \"stream_digest\": %d}\n"
    r0.D.change.D.commits r0.D.change.D.failures r0.D.change.D.retries r0.D.quanta
    r0.D.wal_records heap_mb
    (ratio (fi r0.D.change.D.failures) (fi r0.D.change.D.attempts))
    (ratio (fi (r0.D.wal_bytes + r0.D.snapshot_bytes)) (fi r0.D.change.D.commits))
    r0.D.stream_digest;
  let final =
    if args.trace then begin
      let trs = kind true in
      print_layer_table acc trs;
      let layer = per_layer trs acc in
      List.iter (fun m -> Printf.printf "  %-32s %16.6f %s\n" m.name m.value m.unit) layer;
      let traced_e2e = end_to_end ~heap_mb:heap_all trs in
      Printf.printf "tracing overhead (%d traced episodes vs %d untraced, alternated in this run):\n"
        (List.length trs) (List.length rs);
      List.iter2
        (fun u t ->
           Printf.printf "  %-14s traced %14.6f vs %14.6f %-5s (%+.1f%%)\n" u.name t.value
             u.value u.unit (100. *. (ratio t.value u.value -. 1.)))
        e2e traced_e2e;
      layer
    end
    else e2e
  in
  print_endline (json_result ~correct:true ~attempted ~failed final)
