(* Zipf-distributed keys over [1, n]: rank r is drawn with probability
   proportional to 1 / r^theta (inverse CDF by binary search), then
   scattered over the key space by a fixed multiplicative permutation so
   the hot keys are not neighbours in the table. *)

type t = { n : int; cdf : float array }

let make ~n ~theta =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for r = 0 to n - 1 do
    acc := !acc +. (1. /. (float_of_int (r + 1) ** theta));
    cdf.(r) <- !acc
  done;
  let total = !acc in
  Array.iteri (fun i c -> cdf.(i) <- c /. total) cdf;
  { n; cdf }

(* A prime larger than any key space used here, so it is coprime with
   [n] and [rank * scatter mod n] is a permutation. *)
let scatter = 1_000_003

let sample t rng =
  let u = Random.State.float rng 1. in
  let lo = ref 0 and hi = ref (t.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  1 + (!lo * scatter mod t.n)
