(** Jittered exponential backoff with per-cause policies.

    Replaces the fixed [retry_delay = 3 * op_cost] the simulator's
    clients used to share: a fixed delay makes every transaction
    blocked on the same hot record retry at the same instant — a retry
    convoy that re-collides forever. Here each retry waits an
    exponentially growing, per-client-randomized delay, with a
    separate schedule per failure cause, in units of the operation cost
    [o] and doubling per attempt:
    - [`Blocked]: from [o] up to [32 o], 10 attempts, after which the
      client aborts cleanly;
    - [`Latched]: from [o / 2] up to [8 o], unbounded — transformation
      latches last one quantum;
    - [`Frozen]: from [4 o] up to [64 o], unbounded — a freeze only
      lifts at the schema switch;
    - [`Deadlock]: from [2 o] up to [16 o], unbounded — the restart
      pause after the engine kills a victim.

    One instance per client; attempts reset when an operation
    succeeds or the transaction restarts. *)

type cause = [ `Blocked | `Latched | `Frozen | `Deadlock ]

type t

val create : op_cost:int -> unit -> t

val next : t -> Random.State.t -> cause -> [ `Retry of int | `Give_up ]
(** Charge one attempt of [cause]: the jittered delay to wait before
    retrying (in [[d/2, d]] for nominal delay [d] — never zero, never
    synchronized), or [`Give_up] once the cause's budget is spent. *)

val reset : t -> unit
(** Forget all attempts (operation succeeded / transaction restarted). *)
