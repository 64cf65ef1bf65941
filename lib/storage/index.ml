open Nbsc_value

type t = {
  name : string;
  positions : int list;
  (* Compiled forms: projection runs on every heap mutation of an
     indexed table, and walking the position list per call showed up in
     the engine bench. [touch_mask.(i)] says whether column [i] is
     indexed, so updates that leave every indexed column alone can skip
     maintenance entirely. *)
  pos_arr : int array;
  touch_mask : bool array;
  map : unit Row.Key.Tbl.t Row.Key.Tbl.t;  (* projection -> key set *)
}

let compile positions =
  let pos_arr = Array.of_list positions in
  let top = Array.fold_left max (-1) pos_arr in
  let touch_mask = Array.make (top + 1) false in
  Array.iter (fun i -> touch_mask.(i) <- true) pos_arr;
  (pos_arr, touch_mask)

let create ~size ~name ~positions =
  let pos_arr, touch_mask = compile positions in
  { name; positions; pos_arr; touch_mask; map = Row.Key.Tbl.create size }

let name t = t.name
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

let insert t ~key row =
  let proj = project t row in
  let set =
    match Row.Key.Tbl.find_opt t.map proj with
    | Some s -> s
    | None ->
      let s = Row.Key.Tbl.create 4 in
      Row.Key.Tbl.add t.map proj s;
      s
  in
  Row.Key.Tbl.replace set key ()

let remove t ~key row =
  let proj = project t row in
  match Row.Key.Tbl.find_opt t.map proj with
  | None -> ()
  | Some set ->
    Row.Key.Tbl.remove set key;
    if Row.Key.Tbl.length set = 0 then Row.Key.Tbl.remove t.map proj

let lookup t proj =
  match Row.Key.Tbl.find_opt t.map proj with
  | None -> []
  | Some set -> Row.Key.Tbl.fold (fun k () acc -> k :: acc) set []

let entries t =
  Row.Key.Tbl.fold
    (fun proj set acc ->
       Row.Key.Tbl.fold (fun key () acc -> (proj, key) :: acc) set acc)
    t.map []
  |> List.sort (fun (p, k) (p', k') ->
      match Row.Key.compare p p' with 0 -> Row.Key.compare k k' | c -> c)

let cardinality t = Row.Key.Tbl.length t.map
let buckets t = (Row.Key.Tbl.stats t.map).Hashtbl.num_buckets
