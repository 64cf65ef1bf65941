(* Anti-starvation pacing (feedback governor).

   The paper's Fig. 4(d) finding: with a static priority, the
   transformation "never finishes if its priority is set too low" —
   user transactions produce log records faster than the propagator
   consumes them and the lag diverges. The governor closes the loop:
   it watches lag across observation windows and multiplies the
   transformation's effective priority ([gain]) whenever a full window
   goes by without the lag improving, then decays the boost once the
   transformation has caught up and user response time has recovered.
   Escalation is geometric and unbounded below [max_gain], so any
   diverging point eventually receives enough capacity to converge:
   the never-finishes region degrades into a slower-but-finishing one.

   The module is pure bookkeeping — no clocks, no scheduler knowledge.
   Whoever schedules (the simulator, [Db.run_jobs] drivers) feeds
   observations in and multiplies its own notion of priority by
   [gain]. *)

(* Lag observations per escalation decision: small windows react fast,
   large ones tolerate noise. *)
let window = 6

let escalate = 2.0  (* gain multiplier when a window shows no progress *)
let relax = 0.5  (* gain multiplier (< 1) when caught up *)
let max_gain = 4096.0  (* escalation ceiling *)
let lag_slack = 4  (* lag at or below this counts as caught up *)

(* Relax only once response time is within this factor of the baseline
   established before we escalated. *)
let rt_tolerance = 1.5

type t = {
  mutable gain : float;
  mutable obs : int;          (* observations in the current window *)
  mutable window_min : int;   (* best (lowest) lag seen this window *)
  mutable prev_min : int;     (* best lag of the previous window *)
  mutable rt_ema : float;     (* smoothed user response time *)
  mutable rt_baseline : float; (* response time when gain was last 1.0 *)
  mutable n_escalations : int;
  mutable n_relaxes : int;
}

type stats = {
  current_gain : float;
  escalations : int;
  relaxes : int;
}

let create () =
  { gain = 1.0;
    obs = 0;
    window_min = max_int;
    prev_min = max_int;
    rt_ema = 0.0;
    rt_baseline = 0.0;
    n_escalations = 0;
    n_relaxes = 0 }

let gain t = t.gain

let observe_response t ~rt =
  if t.rt_ema = 0.0 then t.rt_ema <- rt
  else t.rt_ema <- (0.8 *. t.rt_ema) +. (0.2 *. rt);
  if t.gain <= 1.0 then t.rt_baseline <- t.rt_ema

let rt_recovered t =
  t.rt_baseline = 0.0 || t.rt_ema = 0.0
  || t.rt_ema <= t.rt_baseline *. rt_tolerance

let relax_step t =
  if t.gain > 1.0 then begin
    t.gain <- Float.max 1.0 (t.gain *. relax);
    t.n_relaxes <- t.n_relaxes + 1
  end

let observe_lag t ~lag =
  if lag <= lag_slack then begin
    (* Caught up: yield the boost back, but only once the users have
       actually recovered — dropping the gain while response time is
       still inflated would oscillate. *)
    if rt_recovered t then relax_step t;
    t.obs <- 0;
    t.window_min <- max_int;
    t.prev_min <- max_int
  end
  else begin
    if lag < t.window_min then t.window_min <- lag;
    t.obs <- t.obs + 1;
    if t.obs >= window then begin
      (* A full window without the best lag improving on the previous
         window's best means we are losing (or merely holding) ground:
         escalate. *)
      if t.window_min >= t.prev_min && t.gain < max_gain then begin
        t.gain <- Float.min max_gain (t.gain *. escalate);
        t.n_escalations <- t.n_escalations + 1
      end;
      t.prev_min <- t.window_min;
      t.obs <- 0;
      t.window_min <- max_int
    end
  end

let stats t =
  { current_gain = t.gain;
    escalations = t.n_escalations;
    relaxes = t.n_relaxes }

let pp_stats ppf s =
  Format.fprintf ppf "gain=%.1f escalations=%d relaxes=%d" s.current_gain
    s.escalations s.relaxes
