(* In-memory span recorder for the traced run.

   A span is one call the driver makes into a layer's public API
   (named [layer.call]), a transaction (parent of its calls), or a
   change quantum. Spans are stored column-wise in growable arrays so
   recording costs two clock reads and a few stores; nothing is
   written out until the episode ends. Only the benchmark records
   spans — the engine's own trace points stay off. *)

type t = {
  mutable n : int;
  mutable name : int array;     (* index into [names] *)
  mutable tag : int array;      (* side + 2 * phase *)
  mutable parent : int array;   (* span id, or -1 *)
  mutable txn : int array;      (* transaction id, or -1 *)
  mutable start : float array;
  mutable stop : float array;
  mutable dur : float array;
      (* seconds on the side's clock: the wall-clock span, except for a
         transaction, which waits through the other side's windows *)
}

let names =
  [| "txn"; "txn.begin"; "txn.read"; "txn.snap_read"; "txn.update";
     "txn.commit"; "txn.abort"; "core.create";
     "core.populate"; "core.sweep"; "core.propagate"; "core.sync";
     "core.resume"; "engine.create_dir"; "engine.load"; "engine.checkpoint";
     "engine.crash"; "engine.open_dir" |]

let id_of name =
  let rec go i =
    if i = Array.length names then invalid_arg ("Spans.id_of " ^ name)
    else if names.(i) = name then i
    else go (i + 1)
  in
  go 0

let txn_ = id_of "txn"
let begin_ = id_of "txn.begin"
let read = id_of "txn.read"
let snap_read = id_of "txn.snap_read"
let update = id_of "txn.update"
let commit = id_of "txn.commit"
let abort = id_of "txn.abort"
let change_create = id_of "core.create"
let populate = id_of "core.populate"
let sweep = id_of "core.sweep"
let propagate = id_of "core.propagate"
let sync = id_of "core.sync"
let resume = id_of "core.resume"
let create_dir = id_of "engine.create_dir"
let load = id_of "engine.load"
let checkpoint = id_of "engine.checkpoint"
let crash = id_of "engine.crash"
let open_dir = id_of "engine.open_dir"

let txn_kinds = [ begin_; read; snap_read; update; commit; abort ]

let phases = [| "setup"; "warmup"; "change" |]
let setup_phase = 0
let warmup_phase = 1
let change_phase = 2

let create () =
  let cap = 1024 in
  { n = 0; name = Array.make cap 0; tag = Array.make cap 0;
    parent = Array.make cap (-1); txn = Array.make cap (-1);
    start = Array.make cap 0.; stop = Array.make cap 0.; dur = Array.make cap 0. }

let grow t =
  let cap = 2 * Array.length t.name in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- extend t.name 0;
  t.tag <- extend t.tag 0;
  t.parent <- extend t.parent (-1);
  t.txn <- extend t.txn (-1);
  t.start <- extend t.start 0.;
  t.stop <- extend t.stop 0.;
  t.dur <- extend t.dur 0.

(* Open a span now; returns its id. *)
let open_ t ~name ~side ~phase ?(parent = -1) ?(txn = -1) () =
  if t.n = Array.length t.name then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.name.(i) <- name;
  t.tag.(i) <- side + (2 * phase);
  t.parent.(i) <- parent;
  t.txn.(i) <- txn;
  t.start.(i) <- Clock.wall ();
  t.stop.(i) <- nan;
  i

let close t i =
  let stop = Clock.wall () in
  t.stop.(i) <- stop;
  t.dur.(i) <- stop -. t.start.(i)

let set_duration t i d = t.dur.(i) <- d

(* Record a span whose bounds the caller already measured. *)
let add t ~name ~side ~phase ~start ~stop =
  let i = open_ t ~name ~side ~phase () in
  t.start.(i) <- start;
  t.stop.(i) <- stop;
  t.dur.(i) <- stop -. start

let clear t = t.n <- 0

let side t i = t.tag.(i) land 1
let phase t i = t.tag.(i) lsr 1
let duration t i = t.dur.(i)

(* Self time: duration minus the time covered by the span's children.
   Children never overlap each other (one driver thread), so summing
   their durations is exact. *)
let self_times t =
  let self = Array.init t.n (duration t) in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) -. duration t i
  done;
  self

(* One JSON object per span: wall-clock bounds in microseconds from
   [origin], and duration and self time on the side's clock. *)
let dump t ~origin oc =
  let self = self_times t in
  let us x = (x -. origin) *. 1e6 in
  for i = 0 to t.n - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"side\":\"%s\",\
       \"phase\":\"%s\",\"txn\":%d,\"start_us\":%.1f,\"end_us\":%.1f,\
       \"dur_us\":%.1f,\"self_us\":%.1f}\n"
      i t.parent.(i) names.(t.name.(i))
      (if side t i = 0 then "change" else "twin")
      phases.(phase t i) t.txn.(i) (us t.start.(i)) (us t.stop.(i))
      (t.dur.(i) *. 1e6) (self.(i) *. 1e6)
  done
