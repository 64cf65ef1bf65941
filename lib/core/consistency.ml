open Nbsc_value
open Nbsc_wal
open Nbsc_storage

type stats = {
  mutable started : int;
  mutable confirmed : int;
  mutable invalidated : int;
  mutable disagreed : int;
}

(* A check in flight on the checker side: begun (logged, image read) but
   CC-ok not yet written. *)
type in_flight = {
  if_key : Row.Key.t;
  if_image : Row.t;
}

type t = {
  split : Split.t;
  t_tbl : Table.t;
  s_name : string;
  log : Log.t;
  (* Checks whose CC-begin the propagator has seen but whose CC-ok it
     has not; the bool becomes true when the key is touched. *)
  pending : bool ref Row.Key.Tbl.t;
  mutable current : in_flight option;
  st : stats;
}

let create catalog split ~log =
  let layout = Split.layout split in
  { split;
    t_tbl = Catalog.find catalog layout.Spec.sspec.Spec.t_table';
    s_name = layout.Spec.sspec.Spec.s_table';
    log;
    pending = Row.Key.Tbl.create 16;
    current = None;
    st = { started = 0; confirmed = 0; invalidated = 0; disagreed = 0 } }

let source_name t = Table.name t.t_tbl

let append_system t body =
  ignore (Log.append t.log ~txn:Log_record.system_txn ~prev_lsn:Lsn.zero body)

(* Dirty-read the S projections of every T record with split value v;
   Some image if they all agree and at least one exists. *)
let agreed_image t v =
  let layout = Split.layout t.split in
  let records =
    Table.index_lookup_records t.t_tbl ~index:Spec.ix_t_split v
  in
  let project (_, record) =
    Row.project record.Record.row layout.Spec.s_cols_in_t
  in
  match records with
  | [] -> None
  | first :: rest ->
    let image = project first in
    if List.for_all (fun r -> Row.equal (project r) image) rest then Some image
    else None

let step t =
  match t.current with
  | Some { if_key; if_image } ->
    (* Complete the check: log CC-ok; the propagator decides validity. *)
    append_system t
      (Log_record.Cc_ok
         { table = source_name t; key = if_key; image = if_image });
    t.current <- None;
    true
  | None ->
    (match Split.first_unknown t.split with
     | None -> false
     | Some (key, _) ->
       t.st.started <- t.st.started + 1;
       append_system t
         (Log_record.Cc_begin { table = source_name t; key });
       (match agreed_image t key with
        | Some image -> t.current <- Some { if_key = key; if_image = image }
        | None ->
          (* T records disagree (the data is genuinely inconsistent) or
             none exist yet; the record stays U and is retried after
             someone repairs the data or propagation catches up. *)
          t.st.disagreed <- t.st.disagreed + 1);
       true)

let note_touched t touched =
  List.iter
    (fun (table, key) ->
       if String.equal table t.s_name then
         match Row.Key.Tbl.find_opt t.pending key with
         | Some dirty -> dirty := true
         | None -> ())
    touched

let unknown_flags t = Split.unknown_count t.split

let on_cc_begin t key = Row.Key.Tbl.replace t.pending key (ref false)

let on_cc_ok t ~lsn key image =
  match Row.Key.Tbl.find_opt t.pending key with
  | None -> ()  (* no matching begin: stale record from a replay *)
  | Some dirty ->
    Row.Key.Tbl.remove t.pending key;
    if !dirty then t.st.invalidated <- t.st.invalidated + 1
    else begin
      let s_tbl = Split.s_table t.split in
      match Table.find s_tbl key with
      | None ->
        (* Deleted since: deletion would have dirtied the check, so this
           is unreachable; count as invalidated defensively. *)
        t.st.invalidated <- t.st.invalidated + 1
      | Some record ->
        let record' =
          { record with Record.row = image; lsn; flag = Record.Consistent }
        in
        (match Table.set_record s_tbl ~key record' with
         | Ok () -> t.st.confirmed <- t.st.confirmed + 1
         | Error `Not_found -> assert false)
    end

let stats t = t.st
