open Nbsc_value

type t = {
  name : string;
  positions : int list;
  touch_mask : bool array;  (* see {!Index.touches} *)
  mutable map : unit Row.Key.Tbl.t Row.Key.Map.t;
}

let create ~name ~positions =
  let top = List.fold_left max (-1) positions in
  let touch_mask = Array.make (top + 1) false in
  List.iter (fun i -> touch_mask.(i) <- true) positions;
  { name; positions; touch_mask; map = Row.Key.Map.empty }

let name t = t.name
let positions t = t.positions

let touches t changes =
  let mask = t.touch_mask in
  let n = Array.length mask in
  List.exists (fun (i, _) -> i < n && Array.unsafe_get mask i) changes

let insert t ~key row =
  let proj = Row.project row t.positions in
  let set =
    match Row.Key.Map.find_opt proj t.map with
    | Some s -> s
    | None ->
      let s = Row.Key.Tbl.create 4 in
      t.map <- Row.Key.Map.add proj s t.map;
      s
  in
  Row.Key.Tbl.replace set key ()

let remove t ~key row =
  let proj = Row.project row t.positions in
  match Row.Key.Map.find_opt proj t.map with
  | None -> ()
  | Some set ->
    Row.Key.Tbl.remove set key;
    if Row.Key.Tbl.length set = 0 then t.map <- Row.Key.Map.remove proj t.map

let keys_of set = Row.Key.Tbl.fold (fun k () acc -> k :: acc) set []

let lookup t proj =
  match Row.Key.Map.find_opt proj t.map with
  | None -> []
  | Some set -> keys_of set

let in_lo lo proj =
  match lo with
  | None -> true
  | Some (v, inclusive) ->
    let c = Row.Key.compare proj v in
    if inclusive then c >= 0 else c > 0

let in_hi hi proj =
  match hi with
  | None -> true
  | Some (v, inclusive) ->
    let c = Row.Key.compare proj v in
    if inclusive then c <= 0 else c < 0

let range t ?lo ?hi () =
  (* Seek to the lower bound, then walk until the upper bound fails. *)
  let seq =
    match lo with
    | None -> Row.Key.Map.to_seq t.map
    | Some (v, _) -> Row.Key.Map.to_seq_from v t.map
  in
  let rec collect acc seq =
    match seq () with
    | Seq.Nil -> List.rev acc
    | Seq.Cons ((proj, set), rest) ->
      if not (in_hi hi proj) then List.rev acc
      else if in_lo lo proj then collect (List.rev_append (keys_of set) acc) rest
      else collect acc rest
  in
  collect [] seq

let cardinality t = Row.Key.Map.cardinal t.map
