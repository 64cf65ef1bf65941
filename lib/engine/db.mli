(** Database facade.

    Bundles a catalog and a transaction manager and offers the
    conveniences everything above the substrate uses: one-shot
    auto-committed statements, bulk loads, and state snapshots for
    comparing against the relational-algebra oracle. *)

open Nbsc_value
open Nbsc_storage
open Nbsc_txn

type t

val create : ?obs:Nbsc_obs.Obs.Registry.t -> unit -> t
(** [obs] is the observability registry every instrument in this
    database registers in (transaction manager, lock layer, schema
    changes, …); a fresh one is created when not given. Supply one to
    share a registry across components or to pre-attach sinks. *)

val of_parts :
  ?obs:Nbsc_obs.Obs.Registry.t -> Nbsc_storage.Catalog.t ->
  log:Nbsc_wal.Log.t -> t
(** Wrap an existing catalog (e.g. one restored from a snapshot) with a
    fresh transaction manager over the given log. *)

val catalog : t -> Catalog.t
val manager : t -> Manager.t

val obs : t -> Nbsc_obs.Obs.Registry.t
(** The database's observability registry — every counter, gauge and
    probe in the system lives here; trace events flow to its sinks. *)

val log : t -> Nbsc_wal.Log.t

val fresh_holder : t -> int
(** Allocate an identity for a background job (used as latch-holder and
    interceptor id, and as the default job-name suffix). Per-database and
    deterministic: a fresh database always hands out the same sequence,
    starting well above any transaction id. *)

(** The one read-side API for observability. *)
module Observe : sig
  val snapshot : t -> (string * Nbsc_obs.Obs.value) list
  (** Every instrument, sorted by name ({!Nbsc_obs.Obs.Registry.snapshot}). *)

  val subscribe : t -> (Nbsc_obs.Obs.event -> unit) -> unit -> unit
  (** [subscribe t f] attaches [f] as a live trace subscriber and
      returns an unsubscribe function. Subscribing turns tracing on
      (instrumented paths start emitting events). *)
end

val create_table :
  t -> ?size:int -> ?indexes:(string * string list) list -> name:string ->
  Schema.t -> Table.t
(** [size] is {!Table.create}'s capacity hint: a schema change passes
    an upper bound of the target's final size; other callers leave it
    out and get the default. *)

val table : t -> string -> Table.t
(** @raise Not_found *)

val with_txn : ?isolation:Manager.isolation -> t ->
  (Manager.txn_id -> ('a, Manager.error) result) ->
  ('a, Manager.error) result
(** Run [f] in a fresh transaction; commit on [Ok], roll back on
    [Error]. A commit failure also rolls back. If the rollback itself
    fails its error is logged (it cannot mask [f]'s result).
    [isolation] (default [`Read_committed], the classical locked-read
    mode) selects [`Snapshot] MVCC reads — see {!Manager.begin_txn}. *)

val load : t -> table:string -> Row.t list -> (unit, Manager.error) result
(** Bulk-insert rows in one transaction. *)

val snapshot : t -> string -> Nbsc_relalg.Relalg.t
(** The table's current rows as a relation (for oracle comparison). *)

val row_count : t -> string -> int

(** {2 Background jobs}

    The registry of in-flight incremental background work — schema
    transformations above all. A job is an opaque quantum stepper: each
    call performs one bounded quantum of work and reports whether the
    job still runs. The db knows nothing about what a job does, so the
    engine layer stays below the transformation framework; the executor
    in [Nbsc_core.Transform] registers every transformation here. *)

type job_status = [ `Running | `Done | `Failed of string ]

type job_persist = {
  job_state : string;
      (** Opaque resume payload — enough for the job's owner to rebuild
          and resume it after a crash (see [Nbsc_core.Transform]). *)
  low_water : Nbsc_wal.Lsn.t;
      (** The oldest log position the resumed job would re-read (the
          {e next} record its propagator consumes). A checkpoint must
          retain every WAL record at or above this LSN. *)
  rebuilt : string list;
      (** The tables a resume at this moment would drop and rebuild (a
          transformation's targets while it populates). A checkpoint
          writes their definitions but not their rows. *)
}

val register_job :
  t -> ?persist:(unit -> job_persist) -> name:string ->
  step:(unit -> job_status) -> unit -> unit
(** Append a job (FIFO order; names should be unique). [persist], when
    given, lets durability ({!Persist.checkpoint}) re-emit the job's
    current resume state into the WAL; jobs without it simply restart
    from scratch after a crash. *)

val unregister_job : t -> name:string -> unit

val jobs : t -> string list
(** Names of the in-flight jobs, in scheduling order. *)

val job_persists : t -> (string * (unit -> job_persist)) list
(** The persistable jobs and their current-state thunks, in scheduling
    order. *)

val step_jobs : t -> (string * job_status) list
(** One fair round: every in-flight job runs one quantum, round-robin.
    Jobs that report [`Done] or [`Failed] are removed. *)

val run_jobs :
  ?between:(unit -> unit) -> ?max_rounds:int -> t -> (unit, string) result
(** Drive all registered jobs to completion, calling [between] after
    each round so callers can interleave user transactions. Stops at
    the first failure. *)
