(** The initial population step (paper, Sec. 3.2).

    Source tables are read with lock-free fuzzy cursors, in bounded
    batches so user transactions interleave freely; the transformation
    operator is applied to the fuzzy result and inserted into the
    transformed tables. The resulting initial image is inconsistent —
    that is the point — and the log propagation absorbs it.

    FOJ scans S first (building an in-memory join table sized from
    |S|), then streams R against it, then walks the join table across
    quanta to emit the unmatched S rows padded with the R-null record.
    Split streams T, inserting R parts (which inherit the source
    record's LSN, the rules' state identifier) and reference-counting
    S parts. *)

open Nbsc_storage

type t

type counters = {
  mutable scanned : int;
  mutable produced : int;
}

val make :
  ?close:(unit -> unit) ->
  step:(counters -> limit:int -> bool) -> finished:(unit -> bool) -> unit -> t
(** Build a population from a bounded stepper: [step counters ~limit]
    does up to [limit] records of work, bumps the counters, and returns
    true when done. [close] (default a no-op) releases whatever scan
    resources the stepper holds — the built-in constructors use it to
    close their fuzzy cursors, which unblocks arrival-array compaction
    on the source tables. This is the extension point a custom
    {!Transformation.t} uses; the constructors below are
    the paper's operators expressed through it. *)

val foj : Foj.t -> r_tbl:Table.t -> s_tbl:Table.t -> t

val scan_one : Table.t -> ingest:(Record.t -> unit) -> t
(** Generic single-source population: fuzzy-scan the table and feed
    each record to [ingest] (split, horizontal split). *)

val scan_many : Table.t list -> ingest:(Record.t -> unit) -> t
(** Several sources scanned in sequence (merge). *)

val scan_tagged :
  (string * Table.t) list -> ingest:(table:string -> Record.t -> unit) -> t
(** Like {!scan_many}, but each record is delivered with the name of
    the table it came from — the uniform sweep the lazy migration
    strategies feed through the propagation rules. *)

val with_fill :
  t -> fill:(limit:int -> bool) -> close:(unit -> unit) -> t
(** [with_fill t ~fill ~close] steps [fill] with the same [limit] inside
    [t]'s quanta, and finishes only when both have: the split fills its
    source's split index online this way ({!Table.Index_build}).
    [fill] returns true once done; [close] releases its scan. The
    counters stay [t]'s. *)

val step : t -> limit:int -> bool
(** Do up to [limit] records of work; true when population is done. *)

val finished : t -> bool
val scanned : t -> int
(** Source records consumed so far. *)

val produced : t -> int
(** Target rows written so far. *)

val close : t -> unit
(** Release the population's scan resources (idempotent — the built-in
    steppers close each cursor as its scan completes, and cursor close
    is itself idempotent). Call when tearing a population down before
    it finishes. *)
