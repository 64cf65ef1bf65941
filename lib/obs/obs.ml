(* See obs.mli. Single-threaded by design, like the engine. *)

module Counter = struct
  type t = {
    c_name : string;
    mutable c_value : int;
  }

  let incr t = t.c_value <- t.c_value + 1
  let add t n = t.c_value <- t.c_value + n
  let value t = t.c_value
  let name t = t.c_name
end

module Gauge = struct
  type t = {
    g_name : string;
    mutable g_value : float;
  }

  let set t v = t.g_value <- v
  let value t = t.g_value
  let name t = t.g_name
end

module Histogram = struct
  type t = {
    h_name : string;
    edges : float array;     (* strictly increasing upper edges *)
    counts : int array;      (* length edges + 1; last = overflow *)
    mutable h_sum : float;
    mutable h_count : int;
  }

  let observe t v =
    (* Buckets are few and fixed: linear scan beats binary search at
       these sizes and never allocates. *)
    let n = Array.length t.edges in
    let rec bucket i = if i >= n || v <= t.edges.(i) then i else bucket (i + 1) in
    let i = bucket 0 in
    t.counts.(i) <- t.counts.(i) + 1;
    t.h_sum <- t.h_sum +. v;
    t.h_count <- t.h_count + 1

  let count t = t.h_count
  let sum t = t.h_sum

  let buckets t =
    List.init
      (Array.length t.counts)
      (fun i ->
         let edge =
           if i < Array.length t.edges then t.edges.(i) else infinity
         in
         (edge, t.counts.(i)))

  let quantile t q =
    if t.h_count = 0 then 0.
    else begin
      let rank =
        int_of_float (ceil (q *. float_of_int t.h_count)) |> max 1
      in
      let n = Array.length t.counts in
      let rec go i seen =
        if i >= n then infinity
        else
          let seen = seen + t.counts.(i) in
          if seen >= rank then
            if i < Array.length t.edges then t.edges.(i) else infinity
          else go (i + 1) seen
      in
      go 0 0
    end
end

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of {
      h_edges : float list;
      h_counts : int list;
      h_sum : float;
      h_count : int;
    }

let pp_value ppf = function
  | Counter_v n -> Format.fprintf ppf "%d" n
  | Gauge_v v -> Format.fprintf ppf "%g" v
  | Histogram_v { h_sum; h_count; _ } ->
    Format.fprintf ppf "count=%d sum=%g" h_count h_sum

(* {1 Trace events} *)

type span = {
  span_id : int;
  span_parent : int option;
  span_name : string;
}

type event =
  | Span_open of { span : span; at : float; attrs : (string * Json.t) list }
  | Span_close of { span : span; at : float; attrs : (string * Json.t) list }
  | Point of {
      name : string;
      at : float;
      in_span : int option;
      attrs : (string * Json.t) list;
    }

let event_to_json ev =
  let base ~ev ~name ~at ~span ~parent ~attrs =
    List.concat
      [ [ ("ev", Json.String ev); ("name", Json.String name);
          ("at", Json.Float at) ];
        (match span with Some id -> [ ("span", Json.Int id) ] | None -> []);
        (match parent with Some id -> [ ("parent", Json.Int id) ] | None -> []);
        (match attrs with [] -> [] | a -> [ ("attrs", Json.Obj a) ]) ]
  in
  match ev with
  | Span_open { span; at; attrs } ->
    Json.Obj
      (base ~ev:"span_open" ~name:span.span_name ~at ~span:(Some span.span_id)
         ~parent:span.span_parent ~attrs)
  | Span_close { span; at; attrs } ->
    Json.Obj
      (base ~ev:"span_close" ~name:span.span_name ~at ~span:(Some span.span_id)
         ~parent:span.span_parent ~attrs)
  | Point { name; at; in_span; attrs } ->
    Json.Obj (base ~ev:"point" ~name ~at ~span:in_span ~parent:None ~attrs)

(* {1 Sinks} *)

type ring = {
  mutable buf : event array;  (* Obj.magic-free: grown lazily *)
  capacity : int;
  mutable start : int;  (* index of oldest *)
  mutable len : int;
}

type sink =
  | Memory of ring
  | Jsonl of out_channel
  | Callback of (event -> unit)

let memory_sink ?(capacity = 65536) () =
  Memory { buf = [||]; capacity = max 1 capacity; start = 0; len = 0 }

let ring_push r ev =
  if Array.length r.buf = 0 then begin
    (* First event: allocate a small ring and let it grow to capacity. *)
    r.buf <- Array.make (min 256 r.capacity) ev
  end;
  if r.len < Array.length r.buf then begin
    r.buf.((r.start + r.len) mod Array.length r.buf) <- ev;
    r.len <- r.len + 1
  end
  else if Array.length r.buf < r.capacity then begin
    let bigger = Array.make (min r.capacity (Array.length r.buf * 2)) ev in
    for i = 0 to r.len - 1 do
      bigger.(i) <- r.buf.((r.start + i) mod Array.length r.buf)
    done;
    r.buf <- bigger;
    r.start <- 0;
    r.buf.(r.len) <- ev;
    r.len <- r.len + 1
  end
  else begin
    (* Full at capacity: overwrite the oldest. *)
    r.buf.(r.start) <- ev;
    r.start <- (r.start + 1) mod Array.length r.buf
  end

let memory_events = function
  | Memory r ->
    List.init r.len (fun i -> r.buf.((r.start + i) mod Array.length r.buf))
  | Jsonl _ | Callback _ ->
    invalid_arg "Obs.memory_events: not a memory sink"

let jsonl_sink oc = Jsonl oc

let callback_sink f = Callback f

let deliver sink ev =
  match sink with
  | Memory r -> ring_push r ev
  | Jsonl oc ->
    output_string oc (Json.to_string (event_to_json ev));
    output_char oc '\n';
    flush oc
  | Callback f -> f ev

(* {1 The registry} *)

type instrument =
  | I_counter of Counter.t
  | I_gauge of Gauge.t
  | I_histogram of Histogram.t
  | I_probe of (unit -> float)

module Registry = struct
  type t = {
    instruments : (string, instrument) Hashtbl.t;
    mutable sinks : sink list;
    mutable clock : unit -> float;
    mutable next_span : int;
  }

  let create () =
    { instruments = Hashtbl.create 64;
      sinks = [];
      clock = Sys.time;
      next_span = 1 }

  let set_clock t clock = t.clock <- clock
  let now t = t.clock ()

  let kind_error name =
    invalid_arg
      (Printf.sprintf "Obs.Registry: %S already exists with another kind" name)

  let counter t name =
    match Hashtbl.find_opt t.instruments name with
    | Some (I_counter c) -> c
    | Some _ -> kind_error name
    | None ->
      let c = { Counter.c_name = name; c_value = 0 } in
      Hashtbl.replace t.instruments name (I_counter c);
      c

  let gauge t name =
    match Hashtbl.find_opt t.instruments name with
    | Some (I_gauge g) -> g
    | Some _ -> kind_error name
    | None ->
      let g = { Gauge.g_name = name; g_value = 0. } in
      Hashtbl.replace t.instruments name (I_gauge g);
      g

  let default_edges =
    [ 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1_000.; 2_000.; 5_000.;
      10_000.; 20_000.; 50_000.; 100_000.; 200_000.; 500_000.; 1_000_000. ]

  let histogram ?(edges = default_edges) t name =
    match Hashtbl.find_opt t.instruments name with
    | Some (I_histogram h) -> h
    | Some _ -> kind_error name
    | None ->
      if edges = [] then invalid_arg "Obs.Registry.histogram: no edges";
      let rec increasing = function
        | a :: (b :: _ as rest) ->
          if a >= b then
            invalid_arg "Obs.Registry.histogram: edges not increasing"
          else increasing rest
        | [ _ ] | [] -> ()
      in
      increasing edges;
      let edges = Array.of_list edges in
      let h =
        { Histogram.h_name = name;
          edges;
          counts = Array.make (Array.length edges + 1) 0;
          h_sum = 0.;
          h_count = 0 }
      in
      Hashtbl.replace t.instruments name (I_histogram h);
      h

  let probe t name f = Hashtbl.replace t.instruments name (I_probe f)

  let remove t name = Hashtbl.remove t.instruments name

  let read = function
    | I_counter c -> Counter_v (Counter.value c)
    | I_gauge g -> Gauge_v (Gauge.value g)
    | I_probe f -> Gauge_v (f ())
    | I_histogram h ->
      let pairs = Histogram.buckets h in
      Histogram_v
        { h_edges = List.filter_map
              (fun (e, _) -> if Float.is_finite e then Some e else None)
              pairs;
          h_counts = List.map snd pairs;
          h_sum = Histogram.sum h;
          h_count = Histogram.count h }

  let find t name = Option.map read (Hashtbl.find_opt t.instruments name)

  let snapshot t =
    Hashtbl.fold (fun name i acc -> (name, read i) :: acc) t.instruments []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let zero t =
    Hashtbl.iter
      (fun _ i ->
         match i with
         | I_counter c -> c.Counter.c_value <- 0
         | I_gauge g -> g.Gauge.g_value <- 0.
         | I_histogram h ->
           Array.fill h.Histogram.counts 0 (Array.length h.Histogram.counts) 0;
           h.Histogram.h_sum <- 0.;
           h.Histogram.h_count <- 0
         | I_probe _ -> ())
      t.instruments

  let attach t sink = t.sinks <- t.sinks @ [ sink ]

  let detach t sink = t.sinks <- List.filter (fun s -> s != sink) t.sinks

  let tracing t = t.sinks <> []
end

let emit (t : Registry.t) ev =
  match t.Registry.sinks with
  | [] -> ()
  | sinks -> List.iter (fun s -> deliver s ev) sinks

let point t ?in_span name attrs =
  if Registry.tracing t then
    emit t
      (Point
         { name;
           at = Registry.now t;
           in_span = Option.map (fun s -> s.span_id) in_span;
           attrs })

let span_open (t : Registry.t) ?parent ?(attrs = []) name =
  let id = t.Registry.next_span in
  t.Registry.next_span <- id + 1;
  let span =
    { span_id = id;
      span_parent = Option.map (fun s -> s.span_id) parent;
      span_name = name }
  in
  if Registry.tracing t then
    emit t (Span_open { span; at = Registry.now t; attrs });
  span

let span_close t ?(attrs = []) span =
  if Registry.tracing t then
    emit t (Span_close { span; at = Registry.now t; attrs })
