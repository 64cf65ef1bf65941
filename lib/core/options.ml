type sync = Blocking_commit | Nonblocking_abort | Nonblocking_commit

type migration = Eager | Lazy | Hybrid of { sweep_quantum : int }

type t = {
  scan_batch : int;
  propagate_batch : int;
  sync_lag : int;
  sync : sync;
  strategy : migration;
  drop_sources : bool;
  sync_gate : unit -> bool;
}

let default =
  { scan_batch = 256;
    propagate_batch = 256;
    sync_lag = 8;
    sync = Nonblocking_abort;
    strategy = Eager;
    drop_sources = true;
    sync_gate = (fun () -> true) }

(* Field validation. String parsers reject bad values at the parse
   boundary, but options records are also built programmatically
   (record update syntax bypasses every parser), so every way into the
   executor re-validates. *)
let validate t =
  if t.scan_batch < 1 then
    Error
      (`Invalid
        (Printf.sprintf "scan_batch must be >= 1 (got %d)" t.scan_batch))
  else if t.propagate_batch < 1 then
    Error
      (`Invalid
        (Printf.sprintf "propagate_batch must be >= 1 (got %d)"
           t.propagate_batch))
  else if t.sync_lag < 0 then
    (* Lag is never negative, so synchronization would never start. *)
    Error
      (`Invalid (Printf.sprintf "sync_lag must be >= 0 (got %d)" t.sync_lag))
  else
    match t.strategy with
    | Hybrid { sweep_quantum } when sweep_quantum < 1 ->
      Error
        (`Invalid
          (Printf.sprintf "hybrid sweep_quantum must be >= 1 (got %d)"
             sweep_quantum))
    | Eager | Lazy | Hybrid _ -> Ok t

let check t =
  match validate t with Ok t -> t | Error e -> Nbsc_error.fail e

let migration_of_string = function
  | "eager" -> Some Eager
  | "lazy" -> Some Lazy
  | s ->
    (match String.index_opt s ':' with
     | Some i when String.equal (String.sub s 0 i) "hybrid" ->
       (match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
        with
        | Some q when q > 0 -> Some (Hybrid { sweep_quantum = q })
        | _ -> None)
     | _ -> if String.equal s "hybrid" then Some (Hybrid { sweep_quantum = 32 })
       else None)

let migration_to_string = function
  | Eager -> "eager"
  | Lazy -> "lazy"
  | Hybrid { sweep_quantum } -> Printf.sprintf "hybrid:%d" sweep_quantum
