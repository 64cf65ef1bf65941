(** Waits-for graph and per-resource FIFO wait queues.

    The lock table ({!Lock_table}) is cooperative: a conflicting
    request returns [Blocked] and the caller retries. Left alone, that
    model livelocks on lock cycles — two transactions each retrying a
    request the other blocks forever — and starves late arrivals on hot
    records (every retry races the whole crowd again). This module
    gives the engine the two structures that defend against both:

    - a {e waits-for graph}: one edge set per blocked transaction,
      replaced on every block, removed on grant or transaction end, so
      cycle detection runs against current waits only;
    - {e per-resource FIFO wait queues}: the order transactions first
      blocked on a resource. A queued waiter's pending request lets the
      caller refuse {e barging} — a newcomer whose request conflicts
      with an earlier waiter's is told to wait behind it, so writers
      starve neither under reader streams nor under retry races.

    Deadlocks are detected, not prevented: every block searches for a
    cycle through the new edge, and the youngest transaction on a cycle
    is the victim. The verdicts only {e name} the victim; rollback
    belongs to the transaction manager, which owns the undo
    machinery. *)

type owner = int
(** Transaction id; ids increase with age ({!Nbsc_txn} hands them out),
    so [a < b] means [a] is older. *)

type verdict =
  | Wait  (** no deadlock (yet): stay blocked and retry *)
  | Die of owner list
      (** the waiter itself is the youngest on the cycle, and the
          victim; the payload is the cycle *)
  | Wound of owner
      (** this {e other} transaction, the youngest on the cycle, is the
          victim; the caller rolls it back and retries the request *)

type stats = {
  waits : int;      (** block events registered *)
  cycles : int;     (** cycles found by detection *)
  victims : int;    (** transactions sentenced (Die or Wound) *)
  max_queue : int;  (** deepest FIFO wait queue ever observed *)
}

type t

val create : ?obs:Nbsc_obs.Obs.Registry.t -> unit -> t
(** The graph's counters ([lock.waits], [lock.cycles], [lock.victims],
    [lock.max_queue]) register in [obs] when given (so they appear in
    the database's observability snapshot), or in a private registry
    otherwise; {!stats} reads them back either way. *)

val block :
  t -> waiter:owner -> requests:Lock_table_many.request list ->
  blockers:owner list -> verdict
(** Register that [waiter] is blocked on [requests] (the full atomic
    multi-resource set — base lock plus every interceptor's extra
    requests) by [blockers], replacing any previous registration, and
    judge the wait: [Wait] unless the new edges close a cycle, then
    [Die] or [Wound] for the cycle's youngest member. The waiter keeps
    its FIFO position in queues it was already in; queues for
    resources it no longer requests are left. A [Die] verdict
    unregisters the waiter (it is about to abort, not wait). *)

val queued_ahead :
  t -> owner:owner -> live:(owner -> bool) ->
  holds:(Lock_table_many.request -> bool) ->
  Lock_table_many.request list -> owner list
(** Anti-barging check, consulted {e before} the lock table: the queued
    waiters ahead of [owner] (all of them, if [owner] is not queued)
    whose pending lock conflicts with one of [requests] and whose
    transaction [live] confirms still active. Resources where [holds]
    says [owner] already has a lock are exempt — re-acquisition and
    upgrades must not queue behind their own lock. Empty means proceed
    to the lock table. *)

val on_granted : t -> owner:owner -> unit
(** The owner's request succeeded: drop its edges and queue entries. *)

val remove_txn : t -> owner:owner -> unit
(** The transaction finished (commit or abort): drop its edges and
    queue entries. Called by the manager for every transaction end, so
    queues only ever name live transactions. *)

val waiters : t -> owner list
(** Currently blocked transactions (have outgoing edges). *)

val acyclic : t -> bool
(** Whether the waits-for graph is currently free of cycles — after
    every resolution this must hold (property tests). *)

val stats : t -> stats

val pp : Format.formatter -> t -> unit
(** Dump edges and queues (debugging). *)
