open Nbsc_value

(* A plan is its position lists compiled to int arrays once, at
   operator construction; the functions below only read them and
   allocate only their results. *)

type route = {
  srcs : int array;
  dsts : int array;    (* pair i routes srcs.(i) to dsts.(i) *)
  dst_of : int array;  (* source position -> destination, or -1 *)
}

let route pairs =
  let srcs = Array.of_list (List.map fst pairs)
  and dsts = Array.of_list (List.map snd pairs) in
  let dst_of = Array.make (Array.fold_left max (-1) srcs + 1) (-1) in
  (* Reverse fill so the first pair wins, like [List.assoc]. *)
  for i = Array.length srcs - 1 downto 0 do
    dst_of.(srcs.(i)) <- dsts.(i)
  done;
  { srcs; dsts; dst_of }

let lookup r s =
  if s < 0 || s >= Array.length r.dst_of then -1
  else Array.unsafe_get r.dst_of s

let dst_of_src r s = match lookup r s with -1 -> None | d -> Some d

let changes_through r changes =
  List.filter_map
    (fun (pos, v) -> match lookup r pos with -1 -> None | d -> Some (d, v))
    changes

let graft r ~src ~onto =
  let b = Row.Build.of_row onto in
  for i = 0 to Array.length r.srcs - 1 do
    Row.Build.set b r.dsts.(i) (Row.get src r.srcs.(i))
  done;
  Row.Build.finish b

let blit r ~src ~dst =
  for i = 0 to Array.length r.srcs - 1 do
    dst.(r.dsts.(i)) <- Row.get src r.srcs.(i)
  done

type proj = {
  positions : int array;
  mask : bool array;  (* position -> projected *)
}

let proj ps =
  let positions = Array.of_list ps in
  let mask = Array.make (Array.fold_left max (-1) positions + 1) false in
  Array.iter (fun p -> mask.(p) <- true) positions;
  { positions; mask }

let mem p i = i >= 0 && i < Array.length p.mask && Array.unsafe_get p.mask i

let project p row =
  let n = Array.length p.positions in
  let out = Array.make n Value.Null in
  for i = 0 to n - 1 do
    out.(i) <- Row.get row p.positions.(i)
  done;
  Row.unsafe_of_array out

let touches p changes = List.exists (fun (pos, _) -> mem p pos) changes

let filter_out p changes =
  List.filter (fun (pos, _) -> not (mem p pos)) changes

let covered_by p changes =
  Array.for_all (fun i -> List.mem_assoc i changes) p.positions

let null_out p row =
  let b = Row.Build.of_row row in
  Array.iter (fun i -> Row.Build.set b i Value.Null) p.positions;
  Row.Build.finish b

let any_non_null p row =
  let rec go i =
    i < Array.length p.positions
    && ((not (Value.is_null (Row.get row p.positions.(i)))) || go (i + 1))
  in
  go 0

let graft_self p ~src ~onto =
  let b = Row.Build.of_row onto in
  Row.Build.blit_positions ~src ~positions:p.positions b;
  Row.Build.finish b
