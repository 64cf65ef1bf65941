open Nbsc_value
open Nbsc_wal
open Nbsc_storage
open Nbsc_txn

type table_def = {
  def_name : string;
  def_schema : Schema.t;
  def_indexes : (string * string list) list;
}

let table_def ?(indexes = []) def_name def_schema =
  { def_name; def_schema; def_indexes = indexes }

type report = {
  redo_applied : int;
  redo_skipped : int;
  losers : Log_record.txn_id list;
  undo_applied : int;
  jobs : (string * string) list;
}

(* Analysis: who never completed, and what was each one's last record?
   Also collects the in-flight background jobs: the latest Job_state
   payload per job name, forgotten again on Job_done. *)
let analysis log =
  let last_lsn = Hashtbl.create 64 in
  let active = Hashtbl.create 64 in
  let job_states = Hashtbl.create 8 in
  let job_order = ref [] in
  Log.iter log (fun r ->
      (match r.Log_record.body with
       | Log_record.Job_state { job; state } ->
         if not (Hashtbl.mem job_states job) then
           job_order := job :: !job_order;
         Hashtbl.replace job_states job state
       | Log_record.Job_done { job } -> Hashtbl.remove job_states job
       | _ -> ());
      let txn = r.Log_record.txn in
      if txn <> Log_record.system_txn then begin
        Hashtbl.replace last_lsn txn r.Log_record.lsn;
        match r.Log_record.body with
        | Log_record.Begin -> Hashtbl.replace active txn ()
        | Log_record.Commit | Log_record.Abort_done -> Hashtbl.remove active txn
        (* An Abort_begin may follow a Commit: a commit whose durability
           barrier failed is rolled back after its Commit record. The
           rollback re-opens the transaction until its Abort_done. *)
        | Log_record.Abort_begin -> Hashtbl.replace active txn ()
        | Log_record.Op _ | Log_record.Clr _
        | Log_record.Fuzzy_mark _ | Log_record.Cc_begin _ | Log_record.Cc_ok _
        | Log_record.Checkpoint _ | Log_record.Job_state _
        | Log_record.Job_done _ | Log_record.Watermark _ -> ()
      end);
  let losers =
    Hashtbl.fold (fun txn () acc -> txn :: acc) active []
    |> List.sort Int.compare
  in
  let jobs =
    List.rev !job_order
    |> List.filter_map (fun job ->
        match Hashtbl.find_opt job_states job with
        | Some state -> Some (job, state)
        | None -> None)
  in
  ( losers,
    (fun txn -> try Hashtbl.find last_lsn txn with Not_found -> Lsn.zero),
    jobs )

(* Why [op] cannot apply to [table], or [None]: its rows must have the
   table's arity, its keys the key's, and its changes must name non-key
   columns of the table. Replay applies (and undo inverts) only ops that
   fit; one that does not is damage the checksum did not catch. *)
let misfit table op =
  let schema = Table.schema table and name = Table.name table in
  let arity = Schema.arity schema and key_cols = Schema.key_positions schema in
  let row what r =
    if Row.arity r = arity then None
    else
      Some
        (Printf.sprintf "%s has %d values, table %s %d columns" what
           (Row.arity r) name arity)
  in
  let key k =
    if Row.arity k = List.length key_cols then None
    else
      Some
        (Printf.sprintf "a key of %d values, table %s's key %d columns"
           (Row.arity k) name (List.length key_cols))
  in
  let changes what cs =
    List.find_map
      (fun (i, _) ->
         if i < 0 || i >= arity then
           Some
             (Printf.sprintf "%s sets column %d, table %s has %d columns" what i
                name arity)
         else if List.mem i key_cols then
           Some
             (Printf.sprintf "%s sets key column %d of table %s" what i name)
         else None)
      cs
  in
  let first = List.find_map Fun.id in
  match (op : Log_record.op) with
  | Log_record.Insert { row = r; _ } -> row "an insert's row" r
  | Log_record.Delete { key = k; before; _ } ->
    first [ key k; row "a delete's before-image" before ]
  | Log_record.Update { key = k; changes = cs; before; _ } ->
    first
      [ key k; changes "an update" cs;
        changes "an update's before-image" before ]

let check_fits catalog log =
  let bad = ref None in
  Log.iter log (fun r ->
      if Option.is_none !bad then
        match r.Log_record.body with
        | Log_record.Op op | Log_record.Clr { op; _ } ->
          (match Catalog.find_opt catalog (Log_record.op_table op) with
           | None -> ()
           | Some table ->
             Option.iter
               (fun why -> bad := Some (r.Log_record.lsn, why))
               (misfit table op))
        | _ -> ());
  match !bad with None -> Ok () | Some e -> Error e

let replay_into catalog log =
  let losers, last_lsn_of, jobs = analysis log in
  (* Redo: history repeats, including CLRs (repeating history, ARIES). *)
  let redo_applied = ref 0 and redo_skipped = ref 0 in
  let redo lsn op =
    match Catalog.find_opt catalog (Log_record.op_table op) with
    | None -> incr redo_skipped
    | Some table ->
      let key = Log_record.op_key (Table.schema table) op in
      let already_done =
        match Table.find table key with
        | Some record -> Lsn.(record.Record.lsn >= lsn)
        | None -> false
      in
      if already_done then incr redo_skipped
      else begin
        match Apply.op_to_table table ~lsn op with
        | Ok () -> incr redo_applied
        | Error (`Duplicate_key | `Not_found) ->
          (* Tolerated: overlapping history (a suffix replayed twice, or
             a delete already reflected in a snapshot) skips. *)
          incr redo_skipped
      end
  in
  Log.iter log (fun r ->
      match r.Log_record.body with
      | Log_record.Op op -> redo r.Log_record.lsn op
      | Log_record.Clr { op; _ } -> redo r.Log_record.lsn op
      | Log_record.Begin | Log_record.Commit | Log_record.Abort_begin
      | Log_record.Abort_done | Log_record.Fuzzy_mark _ | Log_record.Cc_begin _
      | Log_record.Cc_ok _ | Log_record.Checkpoint _ | Log_record.Job_state _
      | Log_record.Job_done _ | Log_record.Watermark _ -> ());
  (* Undo: roll losers back.  No new log records are produced — the
     recovered catalog is the deliverable, not a continued log. *)
  let undo_applied = ref 0 in
  let undo_lsn = Lsn.next (Log.head log) in
  (* Chains stop at the log base as well as at zero: a retained suffix
     cannot hold records below its base, and a loser's chain never
     reaches that far anyway (checkpoints are sharp, so every
     transaction in the suffix began after the truncation point). *)
  let rec undo_chain lsn =
    if Lsn.(lsn > Lsn.zero) && Lsn.(lsn > Log.base log) then begin
      let r = Log.get log lsn in
      match r.Log_record.body with
      | Log_record.Op op ->
        (match Catalog.find_opt catalog (Log_record.op_table op) with
         | None -> undo_chain r.Log_record.prev_lsn
         | Some table ->
           let key = Log_record.op_key (Table.schema table) op in
           let inverse = Log_record.invert ~key op in
           (match Apply.op_to_table table ~lsn:undo_lsn inverse with
            | Ok () -> incr undo_applied
            | Error (`Duplicate_key | `Not_found) -> ());
           undo_chain r.Log_record.prev_lsn)
      | Log_record.Clr { undo_next; _ } -> undo_chain undo_next
      | Log_record.Begin -> ()
      | Log_record.Commit | Log_record.Abort_begin | Log_record.Abort_done
      | Log_record.Fuzzy_mark _ | Log_record.Cc_begin _ | Log_record.Cc_ok _
      | Log_record.Checkpoint _ | Log_record.Job_state _
      | Log_record.Job_done _ | Log_record.Watermark _ ->
        undo_chain r.Log_record.prev_lsn
    end
  in
  List.iter (fun txn -> undo_chain (last_lsn_of txn)) losers;
  { redo_applied = !redo_applied;
    redo_skipped = !redo_skipped;
    losers;
    undo_applied = !undo_applied;
    jobs }

let recover ~table_defs log =
  let catalog = Catalog.create () in
  List.iter
    (fun d ->
       ignore
         (Catalog.create_table catalog ~indexes:d.def_indexes ~name:d.def_name
            d.def_schema))
    table_defs;
  (catalog, replay_into catalog log)

let pp_report ppf r =
  Format.fprintf ppf
    "redo: %d applied, %d skipped; losers: [%s]; undo: %d applied; jobs: [%s]"
    r.redo_applied r.redo_skipped
    (String.concat "; " (List.map string_of_int r.losers))
    r.undo_applied
    (String.concat "; " (List.map fst r.jobs))
