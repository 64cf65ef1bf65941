(** The blocking comparator: [INSERT INTO ... SELECT].

    What every DBMS of the paper's era could do (Sec. 1): lock the
    involved tables, evaluate the transformation query, insert the
    result, switch. Correct and simple — and the tables are unavailable
    for the whole duration, which for large tables "could easily take
    tens of minutes". [nbsc figure methods] runs this against the same
    workload as the non-blocking framework to regenerate the paper's
    motivating comparison.

    Implemented as an incremental background job like {!Transform} so
    the simulator can drive it — but it holds table latches from the
    first step to the last, so user transactions on the sources stall
    for the entire transformation. *)

open Nbsc_core

type t

val create : Db.t -> Transformation.t -> t
(** Dump into the prepared operator's targets: its population scan
    fills them while its sources stay latched. *)

val step : t -> limit:int -> [ `Running | `Done ]
(** Process up to [limit] source rows. The first call latches the
    source tables, all or none: if another holder has one of them it
    raises [Failure] with nothing latched, and a later call retries.
    The call that finishes unlatches (and drops the sources). *)

val rows_processed : t -> int
val finished : t -> bool
