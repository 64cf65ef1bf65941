(* Growable sample buffers and order statistics. *)

type t = { mutable a : float array; mutable n : int }

let create () = { a = Array.make 256 0.; n = 0 }

let push t x =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0. in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- x;
  t.n <- t.n + 1

let append t u = for i = 0 to u.n - 1 do push t u.a.(i) done
let length t = t.n
let sum t = Array.fold_left ( +. ) 0. (Array.sub t.a 0 t.n)
let max t = Array.fold_left Float.max 0. (Array.sub t.a 0 t.n)

let sorted t =
  let s = Array.sub t.a 0 t.n in
  Array.sort Float.compare s;
  s

(* Nearest-rank percentile of a sorted array (0 when empty). *)
let rank s p =
  let n = Array.length s in
  if n = 0 then 0.
  else s.(Int.max 0 (Int.min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let percentile t p = rank (sorted t) p

let median_of l =
  let t = create () in
  List.iter (push t) l;
  percentile t 0.5

(* The highest of the 9s-percentiles with at least ten samples beyond
   it: (percentile, value, samples beyond). *)
let tail t =
  let s = sorted t in
  let n = Array.length s in
  let beyond p = n - int_of_float (Float.ceil (p *. float_of_int n)) in
  let best =
    List.fold_left
      (fun best p -> if beyond p >= 10 then p else best)
      0.5 [ 0.9; 0.99; 0.999; 0.9999; 0.99999 ]
  in
  (best, rank s best, beyond best)

