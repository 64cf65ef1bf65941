(** The trigger-based comparator (Ronström's method, paper Sec. 2.1).

    Triggers inside user transactions keep the transformed tables up to
    date while a reorganizer scans the old tables. The paper's critique
    is that the triggered maintenance work is paid {e synchronously by
    user transactions} — the overhead materialized-view research calls
    significant — whereas the log-based method defers it to a
    background process.

    This implementation installs a write-only interceptor
    ({!Nbsc_txn.Manager.intercept}) that applies the same propagation
    rules the framework uses, but immediately and inside the user
    operation. The simulator charges the triggered rule
    applications to the user operation's cost, which is exactly the
    comparison [nbsc figure methods] makes. *)

open Nbsc_core

type t

val install : Db.t -> Transformation.t -> t
(** Populate the prepared operator's targets with its population scan
    (latched and instantaneous, in the paper's telling), then install
    the trigger, which hands every write to the operator's propagation
    rules inside the writing user operation. *)

val uninstall : t -> unit
(** Release this installation's interceptor — and only this one:
    interceptors are keyed by holder id, so two concurrently installed
    trigger methods (or a trigger method next to a shadow-table audit
    log) do not clobber each other. The transformed tables stay. *)

val triggered_ops : t -> int
(** Rule applications performed inside user transactions so far. *)

val last_op_work : t -> int
(** Rule applications performed by the most recent user operation —
    what the simulator adds to that operation's cost. *)
