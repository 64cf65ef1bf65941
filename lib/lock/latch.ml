type holder = int

(* table -> holder of its latch; an absent table is unlatched. *)
type t = (string, holder) Hashtbl.t

let create () : t = Hashtbl.create 16

let try_latch t ~holder ~table =
  match Hashtbl.find_opt t table with
  | None ->
    Hashtbl.replace t table holder;
    true
  | Some h -> h = holder

let try_latch_all t ~holder tables =
  let rec go acquired = function
    | [] -> true
    | table :: rest ->
      (match Hashtbl.find_opt t table with
       | Some h when h = holder -> go acquired rest
       | Some _ ->
         List.iter (Hashtbl.remove t) acquired;
         false
       | None ->
         Hashtbl.replace t table holder;
         go (table :: acquired) rest)
  in
  go [] tables

let unlatch t ~holder ~table =
  match Hashtbl.find_opt t table with
  | Some h when h = holder -> Hashtbl.remove t table
  | Some _ | None ->
    invalid_arg (Printf.sprintf "Latch.unlatch: %d does not hold %s" holder table)

let unlatch_all t ~holder tables =
  List.iter
    (fun table ->
       match Hashtbl.find_opt t table with
       | Some h when h = holder -> Hashtbl.remove t table
       | Some _ | None -> ())
    tables

let is_latched t ~table = Hashtbl.mem t table
let latched_by t ~table = Hashtbl.find_opt t table

let latched_tables t ~holder =
  Hashtbl.fold
    (fun table h acc -> if h = holder then table :: acc else acc)
    t []
