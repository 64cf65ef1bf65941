(** Deferred materialized views.

    The paper's closing remark: "Non-blocking population of tables may
    have other important usages than schema changes. Using the
    technique to create other types of derived tables like Materialized
    Views is an obvious example."

    This module is that example: a full-outer-join view created with
    zero blocking (fuzzy population, log catch-up) and then maintained
    {e deferred} — the view trails the sources by however many log
    records the application tolerates, and {!refresh} catches it up on
    demand. Unlike a schema transformation there is no synchronization
    step, no lock transfer, and the sources stay primary forever.

    Because the initial image comes from a fuzzy read, this sidesteps
    the limitation the paper notes about classical MV maintenance
    ("an MV must initially be consistent, i.e. populated with the
    result of a blocking read"). *)


type t

type config = {
  scan_batch : int;
  propagate_batch : int;
}

val create : Nbsc_engine.Db.t -> ?config:config -> Spec.foj -> t
(** Creates the view table (named [spec.t_table]) with its indexes and
    starts the background population. [many_to_many] views are
    supported. @raise Invalid_argument on an invalid spec. *)

val step : t -> bool
(** One bounded unit of background work (population, then propagation);
    true if anything was done. Call from an idle loop, or ignore and
    use {!refresh}. *)

val refresh : t -> unit
(** Catch the view up with the current log head (deferred maintenance:
    run before querying the view). *)

val lag : t -> int
(** Staleness: log records not yet reflected. 0 after {!refresh}
    (until the next source write). *)

val populated : t -> bool
(** Whether the initial fuzzy population has finished (before that,
    [lag] does not measure staleness meaningfully). *)

val table : t -> string

val drop : t -> unit
(** Stop maintenance and drop the view table. *)
