open Nbsc_value

(* The keys of one indexed value. Most values have a handful (a T row's
   R key is unique; an S key has a few T rows), so they sit in a list
   that the value's entry mutates in place: adding a key to a known
   value hashes its projection once and allocates one cell. The key
   that would make the list longer than [spill] moves them all to a
   set, which the value keeps until its last key goes. *)
type keys =
  | Few of { mutable keys : Row.Key.t list }  (* 1..[spill], distinct *)
  | Many of unit Row.Key.Tbl.t

let spill = 8

type t = {
  positions : int list;
  (* Compiled forms: projection runs on every heap mutation of an
     indexed table, so the position list is walked once, here.
     [touch_mask.(i)] says whether column [i] is indexed, so updates
     that leave every indexed column alone can skip maintenance
     entirely. *)
  pos_arr : int array;
  touch_mask : bool array;
  map : keys Row.Key.Tbl.t;  (* projection -> its keys *)
}

let compile positions =
  let pos_arr = Array.of_list positions in
  let top = Array.fold_left max (-1) pos_arr in
  let touch_mask = Array.make (top + 1) false in
  Array.iter (fun i -> touch_mask.(i) <- true) pos_arr;
  (pos_arr, touch_mask)

let create ~size ~positions =
  let pos_arr, touch_mask = compile positions in
  { positions; pos_arr; touch_mask; map = Row.Key.Tbl.create size }

let positions t = t.positions

let touches t changes =
  let mask = t.touch_mask in
  let n = Array.length mask in
  List.exists (fun (i, _) -> i < n && Array.unsafe_get mask i) changes

let project t row =
  let pos = t.pos_arr in
  let n = Array.length pos in
  let out = Array.make n Value.Null in
  for i = 0 to n - 1 do
    out.(i) <- Row.get row (Array.unsafe_get pos i)
  done;
  Row.unsafe_of_array out

(* Key equality for the list walks below. [Row.Key.equal] allocates a
   closure on every call, and an insert compares its key with every key
   the value's list holds; this walk allocates nothing. *)
let rec same_from (a : Row.Key.t) (b : Row.Key.t) i =
  i < 0
  || (Value.equal (Array.unsafe_get a i) (Array.unsafe_get b i)
      && same_from a b (i - 1))

let same_key (a : Row.Key.t) b =
  Array.length a = Array.length b && same_from a b (Array.length a - 1)

let rec mem key = function
  | [] -> false
  | k :: rest -> same_key k key || mem key rest

let insert t ~key row =
  let proj = project t row in
  match Row.Key.Tbl.find_opt t.map proj with
  | None -> Row.Key.Tbl.add t.map proj (Few { keys = [ key ] })
  | Some (Few g) ->
    if not (mem key g.keys) then
      if List.compare_length_with g.keys spill < 0 then g.keys <- key :: g.keys
      else begin
        (* 16 buckets hold a split's zip group, about 25 keys, without
           resizing. *)
        let set = Row.Key.Tbl.create 4 in
        List.iter (fun k -> Row.Key.Tbl.replace set k ()) (key :: g.keys);
        Row.Key.Tbl.replace t.map proj (Many set)
      end
  | Some (Many set) -> Row.Key.Tbl.replace set key ()

let rec drop key = function
  | [] -> []
  | k :: rest -> if same_key k key then rest else k :: drop key rest

let remove t ~key row =
  let proj = project t row in
  match Row.Key.Tbl.find_opt t.map proj with
  | None -> ()
  | Some (Few g) ->
    (match drop key g.keys with
     | [] -> Row.Key.Tbl.remove t.map proj
     | keys -> g.keys <- keys)
  | Some (Many set) ->
    Row.Key.Tbl.remove set key;
    if Row.Key.Tbl.length set = 0 then Row.Key.Tbl.remove t.map proj

let lookup t proj =
  match Row.Key.Tbl.find_opt t.map proj with
  | None -> []
  | Some (Few g) -> g.keys
  | Some (Many set) -> Row.Key.Tbl.fold (fun k () acc -> k :: acc) set []

let entries t =
  Row.Key.Tbl.fold
    (fun proj keys acc ->
       match keys with
       | Few g -> List.fold_left (fun acc key -> (proj, key) :: acc) acc g.keys
       | Many set ->
         Row.Key.Tbl.fold (fun key () acc -> (proj, key) :: acc) set acc)
    t.map []
  |> List.sort (fun (p, k) (p', k') ->
      match Row.Key.compare p p' with 0 -> Row.Key.compare k k' | c -> c)

let cardinality t = Row.Key.Tbl.length t.map
let buckets t = (Row.Key.Tbl.stats t.map).Hashtbl.num_buckets
