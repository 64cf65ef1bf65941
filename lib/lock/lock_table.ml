open Nbsc_value

type owner = int

(* A resource carries its hash, computed once when a request names it:
   the lookup, the insert on first grant and the removal with the last
   grant all reuse it. *)
module Resource = struct
  type t = { table : string; key : Row.Key.t; hash : int }

  let make table key =
    { table; key; hash = Hashtbl.hash (table, Row.Key.hash key) }

  let equal a b =
    a.hash = b.hash && String.equal a.table b.table && Row.Key.equal a.key b.key

  let hash r = r.hash
end

module Rtbl = Hashtbl.Make (Resource)
module Otbl = Hashtbl.Make (Int)

(* The lock header of one resource. It sits in [entries] exactly while
   [grants] is non-empty: a detached entry (fresh from {!entry}, or
   emptied by a release) joins with its first grant. *)
type entry = {
  res : Resource.t;
  mutable grants : (owner * Compat.lock) list;  (* newest first *)
}

type t = {
  entries : entry Rtbl.t;
  by_owner : entry list ref Otbl.t;
      (* an owner's list names each entry where it holds a grant, once *)
}

type outcome =
  | Granted
  | Blocked of owner list

let create () = { entries = Rtbl.create 256; by_owner = Otbl.create 64 }

let entry t ~table ~key =
  let res = Resource.make table key in
  match Rtbl.find_opt t.entries res with
  | Some e -> e
  | None -> { res; grants = [] }

(* For the read-only calls: no detached entry on a miss. *)
let grants_on t ~table ~key =
  match Rtbl.find_opt t.entries (Resource.make table key) with
  | Some e -> e.grants
  | None -> []

let same_provenance (a : Compat.provenance) (b : Compat.provenance) =
  match a, b with
  | Compat.Native, Compat.Native -> true
  | Compat.Source i, Compat.Source j -> i = j
  | Compat.Native, Compat.Source _ | Compat.Source _, Compat.Native -> false

let stronger (a : Compat.mode) (b : Compat.mode) =
  match a, b with Compat.X, _ -> true | Compat.S, Compat.S -> true | _ -> false

(* The walks below are plain recursive loops: a closure per request (as
   [List.exists] would take) allocates on every lock call. *)

let rec owns owner = function
  | [] -> false
  | (o, _) :: rest -> o = owner || owns owner rest

let rec own_grant owner (prov : Compat.provenance) = function
  | [] -> None
  | (o, (l : Compat.lock)) :: rest ->
    if o = owner && same_provenance l.provenance prov then Some l
    else own_grant owner prov rest

let rec blockers_in owner lock = function
  | [] -> []
  | (o, held) :: rest ->
    if o = owner || Compat.compatible held lock then blockers_in owner lock rest
    else o :: blockers_in owner lock rest

let rec without owner = function
  | [] -> []
  | ((o, _) as g) :: rest ->
    if o = owner then without owner rest else g :: without owner rest

let entry_holds_any e ~owner = owns owner e.grants
let entry_blockers e ~owner lock = blockers_in owner lock e.grants

let join t owner e =
  match Otbl.find_opt t.by_owner owner with
  | Some owned -> owned := e :: !owned
  | None -> Otbl.add t.by_owner owner (ref [ e ])

(* An emptied list stays until [release_owner] drops the owner. *)
let leave t owner e =
  match Otbl.find_opt t.by_owner owner with
  | Some owned -> owned := List.filter (fun e' -> e' != e) !owned
  | None -> ()

let set_grants t e grants =
  e.grants <- grants;
  match grants with [] -> Rtbl.remove t.entries e.res | _ :: _ -> ()

(* Make [lock] the owner's grant of its provenance on [e], keeping a
   stronger one already there. Returns whether coverage grew. *)
let put t e ~owner (lock : Compat.lock) =
  match e.grants with
  | [] ->
    e.grants <- [ (owner, lock) ];
    Rtbl.add t.entries e.res e;
    join t owner e;
    true
  | grants ->
    (match own_grant owner lock.provenance grants with
     | Some held when stronger held.mode lock.mode -> false
     | Some _ ->
       e.grants <-
         List.map
           (fun ((o, (l : Compat.lock)) as g) ->
              if o = owner && same_provenance l.provenance lock.provenance then
                (o, lock)
              else g)
           grants;
       true
     | None ->
       if not (owns owner grants) then join t owner e;
       e.grants <- (owner, lock) :: grants;
       true)

let acquire_entry t e ~owner lock =
  match entry_blockers e ~owner lock with
  | [] ->
    ignore (put t e ~owner lock);
    Granted
  | blockers -> Blocked (List.sort_uniq Int.compare blockers)

let release_entry t e ~owner =
  if owns owner e.grants then begin
    set_grants t e (without owner e.grants);
    leave t owner e
  end

let acquire t ~owner ~table ~key lock =
  acquire_entry t (entry t ~table ~key) ~owner lock

let transfer t ~owner ~table ~key lock = put t (entry t ~table ~key) ~owner lock

let holds t ~owner ~table ~key (lock : Compat.lock) =
  match own_grant owner lock.provenance (grants_on t ~table ~key) with
  | Some held -> stronger held.mode lock.mode
  | None -> false

let holds_any t ~owner ~table ~key = owns owner (grants_on t ~table ~key)
let holders t ~table ~key = grants_on t ~table ~key
let release t ~owner ~table ~key = release_entry t (entry t ~table ~key) ~owner

let release_owner_where t ~owner pred =
  match Otbl.find_opt t.by_owner owner with
  | None -> ()
  | Some owned ->
    List.iter
      (fun e ->
         set_grants t e
           (List.filter
              (fun (o, l) -> o <> owner || not (pred ~table:e.res.table ~lock:l))
              e.grants))
      !owned;
    (match List.filter (fun e -> owns owner e.grants) !owned with
     | [] -> Otbl.remove t.by_owner owner
     | kept -> owned := kept)

let release_owner t ~owner =
  match Otbl.find_opt t.by_owner owner with
  | None -> ()
  | Some owned ->
    Otbl.remove t.by_owner owner;
    List.iter (fun e -> set_grants t e (without owner e.grants)) !owned

let locks_of_owner t ~owner =
  match Otbl.find_opt t.by_owner owner with
  | None -> []
  | Some owned ->
    List.concat_map
      (fun e ->
         List.filter_map
           (fun (o, l) ->
              if o = owner then Some (e.res.table, e.res.key, l) else None)
           e.grants)
      !owned

let locked_resources t ~table =
  Rtbl.fold
    (fun res e acc ->
       if String.equal res.Resource.table table then
         List.fold_left
           (fun acc (o, l) -> (res.Resource.key, o, l) :: acc)
           acc e.grants
       else acc)
    t.entries []

let locked_resources_in t ~tables =
  let wanted = Hashtbl.create (List.length tables) in
  List.iter (fun table -> Hashtbl.replace wanted table ()) tables;
  Rtbl.fold
    (fun res e acc ->
       if Hashtbl.mem wanted res.Resource.table then
         List.fold_left
           (fun acc (o, l) ->
              (res.Resource.table, res.Resource.key, o, l) :: acc)
           acc e.grants
       else acc)
    t.entries []

let count t = Rtbl.fold (fun _ e acc -> acc + List.length e.grants) t.entries 0
