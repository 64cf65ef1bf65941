open Nbsc_value
open Nbsc_wal
open Nbsc_storage
module LR = Log_record

type stats = {
  mutable applied : int;
  mutable ignored : int;
  mutable foreign : int;
}

type t = {
  layout : Spec.split_layout;
  r_tbl : Table.t;
  s_tbl : Table.t;
  (* The rule plan, compiled once against the layout (see {!Plan}). *)
  route_t_r : Plan.route;  (* t_to_r *)
  route_t_s : Plan.route;  (* t_to_s *)
  p_r_cols : Plan.proj;    (* r_cols_in_t *)
  p_s_cols : Plan.proj;    (* s_cols_in_t *)
  p_s_key : Plan.proj;     (* S's key columns in S coordinates *)
  p_split_in_r : Plan.proj;
  p_split_in_t : Plan.proj;
  p_non_key_s : Plan.proj; (* S's non-key positions *)
  st : stats;
}

let create catalog (layout : Spec.split_layout) =
  let s_key = Schema.key_positions layout.Spec.s_schema' in
  { layout;
    r_tbl = Catalog.find catalog layout.Spec.sspec.Spec.r_table';
    s_tbl = Catalog.find catalog layout.Spec.sspec.Spec.s_table';
    route_t_r = Plan.route layout.Spec.t_to_r;
    route_t_s = Plan.route layout.Spec.t_to_s;
    p_r_cols = Plan.proj layout.Spec.r_cols_in_t;
    p_s_cols = Plan.proj layout.Spec.s_cols_in_t;
    p_s_key = Plan.proj s_key;
    p_split_in_r = Plan.proj layout.Spec.split_in_r;
    p_split_in_t = Plan.proj layout.Spec.split_in_t;
    p_non_key_s =
      Plan.proj
        (List.filter
           (fun i -> not (List.mem i s_key))
           (List.init (Schema.arity layout.Spec.s_schema') Fun.id));
    st = { applied = 0; ignored = 0; foreign = 0 } }

let layout t = t.layout
let r_table t = t.r_tbl
let s_table t = t.s_tbl
let stats t = t.st

let consistent_mode t = t.layout.Spec.sspec.Spec.assume_consistent

let r_row_of_t t trow = Plan.project t.p_r_cols trow
let s_row_of_t t trow = Plan.project t.p_s_cols trow

let r_name t = Table.name t.r_tbl
let s_name t = Table.name t.s_tbl

let s_key_of_s_row t srow = Plan.project t.p_s_key srow

let split_of_r_row t rrow = Plan.project t.p_split_in_r rrow

(* Insert or reference an S record.  On an existing record only the
   counter and possibly the LSN move (paper, rule 8); a differing image
   flips the flag to Unknown (Sec. 5.3). *)
let upsert_s t ~lsn srow =
  let sk = s_key_of_s_row t srow in
  (match Table.find t.s_tbl sk with
   | Some record ->
     let flag =
       if consistent_mode t then record.Record.flag
       else if not (Row.equal record.Record.row srow) then Record.Unknown
       else record.Record.flag
     in
     let record' =
       { record with
         Record.counter = record.Record.counter + 1;
         lsn = Lsn.max record.Record.lsn lsn;
         flag }
     in
     (match Table.set_record t.s_tbl ~key:sk record' with
      | Ok () -> ()
      | Error `Not_found -> assert false)
   | None ->
     (match Table.insert t.s_tbl ~lsn ~counter:1 ~flag:Record.Consistent srow
      with
      | Ok () -> ()
      | Error `Duplicate_key -> assert false));
  sk

(* Drop one reference to an S record; remove it at zero (paper, rule 9). *)
let decrement_s t ~lsn sk =
  match Table.find t.s_tbl sk with
  | None -> None  (* tolerated: a torn fuzzy image repaired later *)
  | Some record ->
    if record.Record.counter <= 1 then begin
      match Table.delete t.s_tbl ~lsn sk with
      | Ok _ -> Some sk
      | Error `Not_found -> assert false
    end
    else begin
      let record' =
        { record with
          Record.counter = record.Record.counter - 1;
          lsn = Lsn.max record.Record.lsn lsn }
      in
      (match Table.set_record t.s_tbl ~key:sk record' with
       | Ok () -> ()
       | Error `Not_found -> assert false);
      Some sk
    end

let ingest_initial t (record : Record.t) =
  let trow = record.Record.row in
  let lsn = record.Record.lsn in
  let rrow = r_row_of_t t trow in
  (match Table.insert t.r_tbl ~lsn rrow with
   | Ok () -> ignore (upsert_s t ~lsn (s_row_of_t t trow))
   | Error `Duplicate_key ->
     (* The fuzzy cursor reports each key once; a duplicate here means
        the same population batch was fed twice — ignore. *)
     ())

(* Rule 8: insert t{^y}{_x} into T. *)
let rule_insert t ~lsn trow =
  let rrow = r_row_of_t t trow in
  let y = Table.key_of_row t.r_tbl rrow in
  match Table.find t.r_tbl y with
  | Some _ ->
    t.st.ignored <- t.st.ignored + 1;
    [ (r_name t, y) ]
  | None ->
    t.st.applied <- t.st.applied + 1;
    (match Table.insert t.r_tbl ~lsn rrow with
     | Ok () -> ()
     | Error `Duplicate_key -> assert false);
    let sk = upsert_s t ~lsn (s_row_of_t t trow) in
    [ (r_name t, y); (s_name t, sk) ]

(* Rule 9: delete t{^y} from T. *)
let rule_delete t ~lsn y =
  match Table.find t.r_tbl y with
  | None ->
    t.st.ignored <- t.st.ignored + 1;
    []
  | Some record when Lsn.(record.Record.lsn >= lsn) ->
    t.st.ignored <- t.st.ignored + 1;
    [ (r_name t, y) ]
  | Some record ->
    t.st.applied <- t.st.applied + 1;
    (match Table.delete t.r_tbl ~lsn y with
     | Ok _ -> ()
     | Error `Not_found -> assert false);
    let sk = split_of_r_row t record.Record.row in
    (match decrement_s t ~lsn sk with
     | Some sk -> [ (r_name t, y); (s_name t, sk) ]
     | None -> [ (r_name t, y) ])

(* Rules 10 and 11: update t{^y}. *)
let rule_update t ~lsn y changes =
  match Table.find t.r_tbl y with
  | None ->
    t.st.ignored <- t.st.ignored + 1;
    []
  | Some record when Lsn.(record.Record.lsn >= lsn) ->
    (* The R-side LSN gates the whole propagation: if the operation is
       reflected in R it is also reflected in S (paper, Sec. 5.2). *)
    t.st.ignored <- t.st.ignored + 1;
    [ (r_name t, y) ]
  | Some record ->
    t.st.applied <- t.st.applied + 1;
    let x_old = split_of_r_row t record.Record.row in
    (* Rule 10: update the R part; the LSN moves even when no R column
       changes. *)
    let r_changes = Plan.changes_through t.route_t_r changes in
    (match Table.update t.r_tbl ~lsn ~key:y r_changes with
     | Ok _ -> ()
     | Error `Not_found -> assert false);
    let touched = ref [ (r_name t, y) ] in
    (* Rule 11: update the S part, gated by the S record's own LSN. *)
    let s_changes = Plan.changes_through t.route_t_s changes in
    if s_changes <> [] then begin
      let split_changed = Plan.touches t.p_split_in_t changes in
      match Table.find t.s_tbl x_old with
      | None -> ()  (* torn image: the S side will be rebuilt by CC *)
      | Some srec when split_changed ->
        (* Delete s{^x} followed by insert of s{^z}.  The counter moves
           are gated by the R side alone: rule 10's LSN check already
           guarantees this R row changes groups exactly once, whereas
           the S records' own LSNs may run ahead of the log (the fuzzy
           read stamps them with scan-time states), and skipping the
           counter transfer would break the counter = group-size
           invariant that deletion correctness rests on. *)
        (match decrement_s t ~lsn x_old with
         | Some sk -> touched := (s_name t, sk) :: !touched
         | None -> ());
        let new_srow = Row.update srec.Record.row s_changes in
        let sk' = upsert_s t ~lsn:(Lsn.max srec.Record.lsn lsn) new_srow in
        touched := (s_name t, sk') :: !touched
      | Some srec when Lsn.(srec.Record.lsn >= lsn) -> ()
      | Some srec ->
        begin
          let new_srow = Row.update srec.Record.row s_changes in
          let flag =
            if consistent_mode t then srec.Record.flag
            else if srec.Record.counter > 1 then Record.Unknown
            else begin
              (* Counter 1: an update covering every non-key column
                 makes the record consistent by construction. *)
              let all_non_key_updated = Plan.covered_by t.p_non_key_s s_changes in
              if all_non_key_updated then Record.Consistent
              else srec.Record.flag
            end
          in
          let srec' =
            { srec with Record.row = new_srow; lsn; flag }
          in
          (match Table.set_record t.s_tbl ~key:x_old srec' with
           | Ok () -> ()
           | Error `Not_found -> assert false);
          touched := (s_name t, x_old) :: !touched
        end
    end;
    !touched

let apply t ~lsn (op : LR.op) =
  let source = t.layout.Spec.sspec.Spec.t_table' in
  if not (String.equal (LR.op_table op) source) then begin
    t.st.foreign <- t.st.foreign + 1;
    []
  end
  else
    match op with
    | LR.Insert { row; _ } -> rule_insert t ~lsn row
    | LR.Delete { key; _ } -> rule_delete t ~lsn key
    | LR.Update { key; changes; _ } -> rule_update t ~lsn key changes

let unknown_count t = Table.unknown_count t.s_tbl
let first_unknown t = Table.first_unknown t.s_tbl
