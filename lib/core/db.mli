(** The full database facade: everything {!Nbsc_engine.Db} offers
    (same type [t] — values interchange freely) plus the managed
    schema-change API.

    [Nbsc_core.Db.Schema_change] is the one front door for online
    schema changes: it validates an {!Options.t} record and a
    {!Spec.any} into a [result], reports every failure as an
    {!Nbsc_error.t}, and hands back an opaque handle with status /
    step / cancel. The CLI, the REPL, the simulator and the examples go
    through it; [Transform.create] remains for custom operators. *)

include module type of struct
  include Nbsc_engine.Db
end

module Scrub = Nbsc_engine.Scrub
(** Offline integrity verification of a database directory — see
    {!Nbsc_engine.Scrub}. Aliased here so CLI-facing callers have one
    entry point ([Db.Scrub.verify_dir]); it deliberately takes a
    directory, not a [t]: scrubbing trusts nothing enough to open
    it. *)

(** Managed lifecycle of one online schema change. *)
module Schema_change : sig
  module Options = Options
  (** The one-record configuration ({!Nbsc_core.Options}): batch sizes,
      synchronization strategy and migration strategy
      ([Eager | Lazy | Hybrid of { sweep_quantum : int }]) in a single
      value. *)

  type handle
  (** An in-flight (or finished) schema change, registered as a
      background job on its database — drive it with {!step}/{!run}
      or with [Db.step_jobs]/[Db.run_jobs] like any other job. *)

  (** A status report, taken by {!status}. *)
  type info = {
    sc_job : string;               (** job-registry name *)
    sc_operator : string;          (** "foj", "split", "hsplit", "merge" *)
    sc_phase : Transform.phase;
    sc_progress : Transform.progress;
    sc_routing : [ `Sources | `Targets ];
  }

  val start :
    t -> ?options:Options.t -> Spec.any -> (handle, Nbsc_error.t) result
  (** Validate [options] (default {!Options.default}) and the spec,
      refuse a spec whose target table already exists, then build the
      operator (target tables, indexes) and register the executor, both
      with [options]. Invalid options, an invalid spec and an existing
      target all return [`Invalid] before any table is created or
      indexed — nothing raises. *)

  val resume :
    ?options:Options.t -> Nbsc_engine.Persist.t ->
    (handle list, Nbsc_error.t) result
  (** Rebuild every schema change that was in flight when the reopened
      database crashed (see [Transform.resume]). Pass the same
      [options] the crashed jobs ran under — the migration strategy is
      an execution policy, not durable state. An invalid [options]
      returns [`Invalid] before any job is touched. *)

  val status : handle -> info

  val step : handle -> [ `Running | `Done | `Failed of Nbsc_error.t ]
  (** One bounded quantum of background work. *)

  val run :
    ?between:(unit -> unit) -> handle -> (unit, Nbsc_error.t) result
  (** Drive to completion, calling [between] between quanta. *)

  val cancel : handle -> unit
  (** Stop the change and delete the transformed tables (paper,
      Sec. 6). No effect once done. *)

  val transform : handle -> Transform.t
  (** Escape hatch to the bare executor, for tests and benches. *)

  val pp_info : Format.formatter -> info -> unit
end
