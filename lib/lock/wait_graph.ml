open Nbsc_value
module Obs = Nbsc_obs.Obs

type owner = int

type verdict =
  | Wait
  | Die of owner list
  | Wound of owner

type stats = {
  waits : int;
  cycles : int;
  victims : int;
  max_queue : int;
}

module Res = struct
  type t = { table : string; key : Row.Key.t }

  let equal a b = String.equal a.table b.table && Row.Key.equal a.key b.key
  let hash r = Hashtbl.hash (r.table, Row.Key.hash r.key)
end

module Rtbl = Hashtbl.Make (Res)

type entry = { w_owner : owner; mutable w_lock : Compat.lock }

type t = {
  queues : entry list ref Rtbl.t;  (* head = front of the FIFO *)
  queued_on : (owner, Res.t list ref) Hashtbl.t;
  waits_for : (owner, owner list) Hashtbl.t;
  n_waits : Obs.Counter.t;
  n_cycles : Obs.Counter.t;
  n_victims : Obs.Counter.t;
  max_queue : Obs.Gauge.t;
}

let create ?obs () =
  (* Counters live in the observability registry — the caller's, so
     they show up in Db snapshots, or a private one otherwise. *)
  let obs = match obs with Some r -> r | None -> Obs.Registry.create () in
  {
    queues = Rtbl.create 64;
    queued_on = Hashtbl.create 64;
    waits_for = Hashtbl.create 64;
    n_waits = Obs.Registry.counter obs "lock.waits";
    n_cycles = Obs.Registry.counter obs "lock.cycles";
    n_victims = Obs.Registry.counter obs "lock.victims";
    max_queue = Obs.Registry.gauge obs "lock.max_queue";
  }

(* ---- queue maintenance ------------------------------------------- *)

let queue_of t res = try Rtbl.find t.queues res with Not_found -> ref []

let drop_from_queue t res owner =
  match Rtbl.find_opt t.queues res with
  | None -> ()
  | Some q ->
    q := List.filter (fun e -> e.w_owner <> owner) !q;
    if !q = [] then Rtbl.remove t.queues res

let forget_queues t owner =
  match Hashtbl.find_opt t.queued_on owner with
  | None -> ()
  | Some resources ->
    List.iter (fun res -> drop_from_queue t res owner) !resources;
    Hashtbl.remove t.queued_on owner

let enqueue t res owner lock =
  let q = queue_of t res in
  (match List.find_opt (fun e -> e.w_owner = owner) !q with
   | Some e -> e.w_lock <- lock  (* keep FIFO position, refresh the ask *)
   | None ->
     q := !q @ [ { w_owner = owner; w_lock = lock } ];
     let depth = float_of_int (List.length !q) in
     if depth > Obs.Gauge.value t.max_queue then
       Obs.Gauge.set t.max_queue depth);
  if not (Rtbl.mem t.queues res) then Rtbl.add t.queues res q;
  let on =
    match Hashtbl.find_opt t.queued_on owner with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add t.queued_on owner r;
      r
  in
  if not (List.exists (Res.equal res) !on) then on := res :: !on

(* Re-register [owner]'s pending requests: keep FIFO positions on
   resources still asked for, leave queues for resources it no longer
   wants (sim clients re-draw keys between retries). *)
let requeue t owner (requests : Lock_table_many.request list) =
  let wanted =
    List.map (fun (r : Lock_table_many.request) ->
        ({ Res.table = r.table; key = r.key }, r.lock))
      requests
  in
  (match Hashtbl.find_opt t.queued_on owner with
   | None -> ()
   | Some on ->
     let keep, drop =
       List.partition
         (fun res -> List.exists (fun (w, _) -> Res.equal w res) wanted)
         !on
     in
     List.iter (fun res -> drop_from_queue t res owner) drop;
     on := keep);
  List.iter (fun (res, lock) -> enqueue t res owner lock) wanted

(* ---- waits-for edges --------------------------------------------- *)

let edges t node = try Hashtbl.find t.waits_for node with Not_found -> []

let set_edges t node blockers =
  if blockers = [] then Hashtbl.remove t.waits_for node
  else Hashtbl.replace t.waits_for node blockers

let drop_node t owner =
  Hashtbl.remove t.waits_for owner;
  (* Also disappear as a blocker: a finished transaction holds nothing,
     so edges pointing at it are stale. *)
  let stale =
    Hashtbl.fold
      (fun w bs acc -> if List.mem owner bs then (w, bs) :: acc else acc)
      t.waits_for []
  in
  List.iter
    (fun (w, bs) -> set_edges t w (List.filter (fun b -> b <> owner) bs))
    stale

(* Path from [start] back to [start], as the list of nodes on the
   cycle; None if no such cycle. Graphs here are tiny (one node per
   blocked transaction), so a plain DFS is plenty. *)
let find_cycle t ~start =
  let seen = Hashtbl.create 16 in
  let rec dfs node path =
    if Hashtbl.mem seen node then None
    else begin
      Hashtbl.add seen node ();
      let succs = edges t node in
      if List.exists (Int.equal start) succs then Some (List.rev (node :: path))
      else
        List.fold_left
          (fun acc s ->
             match acc with Some _ -> acc | None -> dfs s (node :: path))
          None succs
    end
  in
  dfs start []

let on_granted t ~owner =
  Hashtbl.remove t.waits_for owner;
  forget_queues t owner

let remove_txn t ~owner =
  drop_node t owner;
  forget_queues t owner

(* ---- the verdict ------------------------------------------------- *)

(* Block freely; a wait that closes a cycle kills the cycle's youngest
   member. Waits that form no cycle never abort anyone. *)
let block t ~waiter ~requests ~blockers =
  Obs.Counter.incr t.n_waits;
  requeue t waiter requests;
  set_edges t waiter blockers;
  match find_cycle t ~start:waiter with
  | None -> Wait
  | Some cycle ->
    Obs.Counter.incr t.n_cycles;
    Obs.Counter.incr t.n_victims;
    let victim = List.fold_left max min_int cycle in
    if victim = waiter then begin
      remove_txn t ~owner:waiter;
      Die cycle
    end
    else Wound victim

(* ---- fairness ---------------------------------------------------- *)

let queued_ahead t ~owner ~live ~holds requests =
  List.concat_map
    (fun (r : Lock_table_many.request) ->
       if holds r then []
       else begin
         let res = { Res.table = r.table; key = r.key } in
         match Rtbl.find_opt t.queues res with
         | None -> []
         | Some q ->
           (* Prune entries of finished transactions as we pass. *)
           q := List.filter (fun e -> live e.w_owner) !q;
           if !q = [] then begin
             Rtbl.remove t.queues res;
             []
           end
           else begin
             let rec ahead acc = function
               | [] -> List.rev acc
               | e :: _ when e.w_owner = owner -> List.rev acc
               | e :: rest -> ahead (e :: acc) rest
             in
             ahead [] !q
             |> List.filter_map (fun e ->
                 if Compat.compatible e.w_lock r.lock then None
                 else Some e.w_owner)
           end
       end)
    requests
  |> List.sort_uniq Int.compare

(* ---- introspection ----------------------------------------------- *)

let waiters t =
  Hashtbl.fold (fun w _ acc -> w :: acc) t.waits_for []
  |> List.sort Int.compare

let acyclic t =
  not
    (List.exists
       (fun w -> find_cycle t ~start:w <> None)
       (waiters t))

let stats t =
  {
    waits = Obs.Counter.value t.n_waits;
    cycles = Obs.Counter.value t.n_cycles;
    victims = Obs.Counter.value t.n_victims;
    max_queue = int_of_float (Obs.Gauge.value t.max_queue);
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>waits-for:";
  List.iter
    (fun w ->
       Format.fprintf ppf "@,  %d -> %s" w
         (String.concat "," (List.map string_of_int (edges t w))))
    (waiters t);
  Format.fprintf ppf "@,queues:";
  Rtbl.iter
    (fun res q ->
       Format.fprintf ppf "@,  %s/%s: %s" res.Res.table
         (Format.asprintf "%a" Row.Key.pp res.Res.key)
         (String.concat ","
            (List.map (fun e -> string_of_int e.w_owner) !q)))
    t.queues;
  Format.fprintf ppf "@]"
