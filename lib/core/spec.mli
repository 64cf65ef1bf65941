(** Transformation specifications and their derived layouts.

    A specification names the source table(s), the new table(s), and
    how columns map between them. Validation enforces the paper's
    preparation-step requirements (Sec. 3.1): the transformed tables
    must carry at least one candidate key of every source table, and
    key columns must exist with matching types.

    The derived {e layout} precomputes every column-position mapping the
    propagation rules need, so rule application is array indexing, not
    name lookup. *)

open Nbsc_value
open Nbsc_storage

(** {1 Full outer join} *)

(** Join R and S into T on [join_r] = [join_s]. T's columns are the
    join attributes (named [t_join]) followed by [r_carry] (non-join R
    columns, including R's primary key) and [s_carry] (non-join S
    columns, including S's primary key). T's primary key is R's key
    columns plus S's key columns — composite so that the R-null and
    S-null padded records of a full outer join are uniquely addressable
    (and so that many-to-many results are too). *)
type foj = {
  r_table : string;
  s_table : string;
  t_table : string;
  join_r : string list;
  join_s : string list;
  t_join : string list;  (** the join attributes' names in T *)
  r_carry : string list;
  s_carry : string list;
  many_to_many : bool;
      (** false: the paper's Rules 1–7, requiring [join_s] unique in S
          (one-to-many); true: the Sec. 4.2 generalization. *)
}

(** Index names the framework creates on T (paper, Sec. 4.1). *)
val ix_by_r_key : string
val ix_by_s_key : string
val ix_by_join : string

(** Precomputed positions. "In T" positions index T's schema; "in R/S"
    positions index the source schemas. *)
type foj_layout = {
  spec : foj;
  t_schema : Schema.t;
  (* source-side *)
  r_schema : Schema.t;
  s_schema : Schema.t;
  r_key_in_r : int list;
  s_key_in_s : int list;
  join_in_r : int list;
  join_in_s : int list;
  (* T-side *)
  t_join_pos : int list;
  t_r_carry_pos : int list;   (** r_carry columns, in spec order *)
  t_s_carry_pos : int list;
  t_r_key_pos : int list;     (** R's key columns as they sit in T *)
  t_s_key_pos : int list;
  r_key_in_tkey : int list;
      (** index of each R key column within T's composite key tuple *)
  s_key_in_tkey : int list;
  (* source column -> T column for carried (non-join) columns *)
  r_to_t : (int * int) list;  (** (position in R, position in T) *)
  s_to_t : (int * int) list;
  r_join_to_t : (int * int) list;  (** join columns: R position -> T *)
  s_join_to_t : (int * int) list;
}

val foj_layout : Catalog.t -> foj -> foj_layout
(** Validates the spec against the catalog.
    @raise Invalid_argument with a descriptive message if the spec
    violates a preparation-step requirement. *)

val foj_t_schema : foj_layout -> Schema.t
val foj_t_indexes : foj_layout -> (string * string list) list

(** {1 Vertical split} *)

(** Split T into R (one row per T row, keyed like T) and S (one row per
    distinct split-key value). [split_key] is the shared candidate key:
    it must be listed in both [r_cols] and [s_cols] (paper, Sec. 5 —
    e.g. postal code lives in both customer and place tables). *)
type split = {
  t_table' : string;
  r_table' : string;
  s_table' : string;
  r_cols : string list;   (** T columns going to R; must include T's key *)
  s_cols : string list;   (** T columns going to S *)
  split_key : string list;
  assume_consistent : bool;
      (** true: Sec. 5.2 (DBMS guarantees the FD); false: Sec. 5.3 with
          C/U flags and the consistency checker. *)
}

val ix_t_split : string
(** Index on the source T over the split columns, used by the
    consistency checker to read all T records contributing to an
    S-record without scanning, and by the non-blocking-commit lock map
    to go from an S record to its T records. A split registers it empty
    when it starts, so every write maintains it, and fills it online
    from a fuzzy scan of T inside its population quanta
    ({!Nbsc_storage.Table.Index_build}). Population does not finish
    until the fill has, so neither reader, both of which run after
    population, sees it partial. The blocking baselines build it in one
    call ({!Nbsc_storage.Table.add_index}). *)

type split_layout = {
  sspec : split;
  t_schema' : Schema.t;
  r_schema' : Schema.t;
  s_schema' : Schema.t;
  t_key_in_t : int list;
  split_in_t : int list;       (** split columns in T *)
  r_cols_in_t : int list;      (** R's columns as they sit in T *)
  s_cols_in_t : int list;
  split_in_r : int list;       (** split columns in R *)
  split_in_s : int list;
  t_to_r : (int * int) list;   (** (position in T, position in R) *)
  t_to_s : (int * int) list;
}

val split_layout : Catalog.t -> split -> split_layout
(** @raise Invalid_argument on spec violations. *)

val split_r_schema : split_layout -> Schema.t
val split_s_schema : split_layout -> Schema.t

(** {1 Horizontal (selection) split}

    The paper's conclusion calls for transformation methods for other
    relational operators; selection is the natural next one: split T
    horizontally into the rows satisfying a predicate and the rest
    (e.g. moving closed orders to an archive table). Both targets keep
    T's schema and key; rows migrate between them when an update flips
    the predicate. *)

type hsplit = {
  h_source : string;
  h_true_table : string;   (** rows satisfying the predicate *)
  h_false_table : string;  (** the complement *)
  h_pred : Pred.t;
}

type hsplit_layout = {
  hspec : hsplit;
  h_schema : Schema.t;
  h_route : Row.t -> bool;  (** compiled predicate *)
}

val hsplit_layout : Catalog.t -> hsplit -> hsplit_layout
(** @raise Invalid_argument on unknown source or predicate columns. *)

(** {1 Merge (union)}

    The reverse of the horizontal split: several same-schema tables
    merged into one. Sources should have disjoint keys; on a collision
    the record with the highest LSN wins (last-writer-wins), which is
    the only convergent choice available from the log alone. *)

type merge = {
  m_sources : string list;  (** at least two *)
  m_target : string;
}

type merge_layout = {
  mspec : merge;
  m_schema : Schema.t;
}

val merge_layout : Catalog.t -> merge -> merge_layout
(** @raise Invalid_argument unless all sources exist and share one
    schema. *)

(** {1 Wire codec}

    A specification is pure data, so it can ride inside a durable
    resume payload: a crashed schema change is rebuilt from its encoded
    spec plus a log position (see [Transform.resume]). *)

type any =
  | Foj of foj
  | Split of split
  | Hsplit of hsplit
  | Merge of merge

val encode : any -> string
(** Exact inverse of {!decode}. *)

val decode : string -> any
(** @raise Failure on malformed input. *)

val targets : any -> string list
(** The tables a change creates: [Schema_change.start] refuses a spec
    whose target already exists, and a crash resume drops or keeps
    exactly these. *)
