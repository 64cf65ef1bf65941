type cause = [ `Blocked | `Latched | `Frozen | `Deadlock ]

(* One cause's schedule: the first delay, its growth per attempt, its
   ceiling (virtual time units) and the attempts before giving up. *)
type policy = {
  base : int;
  factor : int;
  cap : int;
  budget : int;
}

let policies ~op_cost =
  let o = max 1 op_cost in
  (* Blocked: someone holds the record; delays double so a crowd of
     losers spreads out, and a bounded budget turns a hopeless wait
     into a clean abort. Latched: transformation latches last a quantum
     — come back quickly, forever. Frozen: a freeze lasts until the
     schema switch, so retry patiently and never give up (aborting
     would only re-hit the freeze). Deadlock: the restart pause after
     an engine-declared victim death. *)
  (fun cause ->
     match (cause : cause) with
     | `Blocked -> { base = o; factor = 2; cap = 32 * o; budget = 10 }
     | `Latched -> { base = max 1 (o / 2); factor = 2; cap = 8 * o;
                     budget = max_int }
     | `Frozen -> { base = 4 * o; factor = 2; cap = 64 * o; budget = max_int }
     | `Deadlock -> { base = 2 * o; factor = 2; cap = 16 * o; budget = max_int })

type t = {
  policies : cause -> policy;
  mutable blocked_attempts : int;
  mutable latched_attempts : int;
  mutable frozen_attempts : int;
  mutable deadlock_attempts : int;
}

let create ~op_cost () =
  { policies = policies ~op_cost;
    blocked_attempts = 0;
    latched_attempts = 0;
    frozen_attempts = 0;
    deadlock_attempts = 0 }

let attempts t = function
  | `Blocked -> t.blocked_attempts
  | `Latched -> t.latched_attempts
  | `Frozen -> t.frozen_attempts
  | `Deadlock -> t.deadlock_attempts

let bump t = function
  | `Blocked -> t.blocked_attempts <- t.blocked_attempts + 1
  | `Latched -> t.latched_attempts <- t.latched_attempts + 1
  | `Frozen -> t.frozen_attempts <- t.frozen_attempts + 1
  | `Deadlock -> t.deadlock_attempts <- t.deadlock_attempts + 1

let reset t =
  t.blocked_attempts <- 0;
  t.latched_attempts <- 0;
  t.frozen_attempts <- 0;
  t.deadlock_attempts <- 0

(* Half-jitter: at least d/2, at most d — never zero (a zero delay is a
   busy-spin in virtual time), never synchronized (the full-d retries
   of equal losers would reconvoy). *)
let jittered rng d =
  let d = max 2 d in
  (d / 2) + Random.State.int rng ((d / 2) + 1)

let next t rng cause =
  let p = t.policies cause in
  let n = attempts t cause in
  if n >= p.budget then `Give_up
  else begin
    bump t cause;
    let rec expo acc k = if k <= 0 || acc >= p.cap then acc
      else expo (acc * p.factor) (k - 1)
    in
    let d = min p.cap (expo p.base n) in
    `Retry (jittered rng d)
  end
