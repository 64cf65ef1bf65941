(** Discrete-event simulation of the paper's test setup (Sec. 6).

    The paper ran a Java main-memory prototype on a five-node cluster;
    we substitute a virtual-time capacity model over the {e real}
    engine: one server resource serves user operations and background
    transformation slices; simulated clients run real transactions
    (begin, [ops_per_txn] record updates, commit — the paper's workload
    shape) against the real lock manager and log, and the
    transformation performs its real work in bounded slices whose
    virtual cost is proportional to records processed.

    The {e priority} knob is an absolute CPU share with
    processor-sharing semantics: the background process continuously
    performs work at rate [priority], and while it runs every user
    operation costs [op_cost / (1 - priority)]. That reproduces the
    paper's observations: interference grows with server workload
    (queueing amplifies the inflation near saturation), completion time
    scales as 1/priority, and below the threshold where log generation
    outpaces the propagation share the transformation never converges
    (Figs. 4a-4d).

    Workload percentages follow the paper's definition: 100% is the
    number of concurrent clients that produces the highest throughput
    ({!clients_for_workload}).

    Contention handling is the engine's: clients act on the manager's
    verdicts ([`Blocked] → jittered exponential backoff with a retry
    budget, {!Backoff}; [`Deadlock] → clean restart as the sentenced
    victim; a wounded transaction restarts when it discovers its own
    death) instead of improvising wait-die. *)

open Nbsc_txn
open Nbsc_core

(** Which transformation the scenario runs. *)
type kind =
  | Foj_scenario of { r_rows : int; s_rows : int }
  | Split_scenario of { t_rows : int; assume_consistent : bool }

type workload = {
  n_clients : int;
  think_time : int;
  ops_per_txn : int;        (** the paper uses 10 *)
  source_share : float;     (** fraction of updates on the tables under
                                transformation; the rest hit the dummy
                                table (paper: 20% / 80%) *)
  seed : int;
}

type costs = {
  op_cost : int;     (** one user operation, including its lock and log *)
  scan_cost : int;   (** one fuzzily scanned record *)
  apply_cost : int;  (** one relevant log record applied by the rules *)
  cc_cost : int;     (** one consistency-checker step *)
  trigger_rtt : int;
      (** synchronous round-trip a trigger-based maintainer pays inside
          the user transaction when the new tables live on another node
          — the distributed-DBMS overhead of the paper's Sec. 2.1
          critique of Ronstrom's method *)
}

type tf_setup = {
  priority : float;           (** capacity share, e.g. 0.02 = 2% *)
  options : Options.t;
}

(** What runs alongside the user workload. *)
type background =
  | No_background                  (** the baseline run *)
  | Transformation of tf_setup     (** the paper's framework *)
  | Blocking_dump of { dump_priority : float }
      (** [INSERT INTO ... SELECT]: latches the sources for its whole
          duration (ablation: what the paper's intro argues against) *)
  | Trigger_maintenance
      (** Ronström-style triggers: maintenance work charged inside the
          user operations that cause it (ablation for Sec. 2.1) *)

type result = {
  summary : Metrics.summary;
  tf_done_at : int option;       (** virtual completion time *)
  tf_final_phase : Transform.phase option;
  tf_progress : Transform.progress option;
  tf_busy : int;                 (** capacity spent on the transformation *)
  retries : int;                 (** user ops re-armed (locks/latches/freezes) *)
  mgr_stats : Manager.Stats.counters;
      (** the engine's own counters for the run — deadlocks detected,
          transactions wounded, block events registered *)
  wal_high_water : int;
      (** maximum live (untruncated) in-memory WAL records at any point
          of the run — the bounded-memory claim is that this stays flat
          as run length grows *)
  wal_truncated : int;
      (** log records reclaimed by low-water truncation over the run *)
}

val run :
  kind:kind -> workload:workload -> ?costs:costs ->
  ?on_db:(Nbsc_core.Db.t -> unit) -> background:background ->
  duration:int -> warmup:int -> unit -> result
(** One simulation run; pair a [No_background] run with any other of
    the same seed and divide ({!Metrics.relative}). Measurement covers
    [warmup..duration].

    [on_db] is called with the freshly built database before any
    background work starts — attach trace sinks or probes to [Db.obs]
    there. The registry's clock is set to the simulation's virtual
    time, so with a fixed seed the emitted trace is deterministic. *)

val clients_for_workload :
  ?think_time:int -> ?ops_per_txn:int -> ?costs:costs -> float -> int
(** [clients_for_workload pct] — client count giving [pct]% of the
    saturating workload. *)
