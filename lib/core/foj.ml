open Nbsc_value
open Nbsc_storage
module LR = Nbsc_wal.Log_record
module C = Foj_common

type stats = {
  mutable applied : int;
  mutable ignored : int;
  mutable foreign : int;
}

type t = {
  cctx : C.ctx;
  st : stats;
}

let create catalog layout =
  { cctx = C.make_ctx catalog layout;
    st = { applied = 0; ignored = 0; foreign = 0 } }

let ctx t = t.cctx
let stats t = t.st

let l t = t.cctx.C.layout

(* Rule 1: insert r{^y}{_x} into R. *)
let rule_insert_r t ~lsn row =
  let cctx = t.cctx in
  let y = C.r_key_of_r_row cctx row in
  match C.by_r_key cctx y with
  | (k, _) :: _ ->
    (* t{^y} exists: the log record is already reflected (Theorem 1). *)
    t.st.ignored <- t.st.ignored + 1;
    [ k ]
  | [] ->
    t.st.applied <- t.st.applied + 1;
    let x = C.join_of_r_row cctx row in
    let fresh, bits = C.t_row_of_sources cctx ~r:(Some row) ~s:None in
    if Row.Key.has_null x then
      (* A NULL join attribute never matches: t{^y}{_null}. *)
      [ C.put cctx ~lsn ~presence:bits fresh ]
    else begin
      let matches = C.by_join cctx x in
      match
        List.find_opt (fun (_, record) -> not (C.has_r cctx record)) matches
      with
      | Some (k, record) ->
        (* t{^null}{_x} found: fill in the R part. *)
        let row' = C.graft_r cctx ~r:row ~onto:record.Record.row in
        C.rekey cctx ~lsn ~old_key:k
          ~presence:(C.presence cctx record lor C.r_bit)
          row'
      | None ->
        (match
           List.find_opt (fun (_, record) -> C.has_s cctx record) matches
         with
         | Some (_, record) ->
           (* t{^v}{_x} exists: join the new R row with its s{^x} part. *)
           let row' =
             C.graft_s_from_t cctx ~src:record.Record.row ~onto:fresh
           in
           [ C.put cctx ~lsn ~presence:(bits lor C.s_bit) row' ]
         | None ->
           (* No s{^x} in T: t{^y}{_null} (join columns keep x). *)
           [ C.put cctx ~lsn ~presence:bits fresh ])
    end

(* Rule 3: delete r{^y} from R. *)
let rule_delete_r t ~lsn y =
  let cctx = t.cctx in
  match C.by_r_key cctx y with
  | [] ->
    t.st.ignored <- t.st.ignored + 1;
    []
  | (k, record) :: _ ->
    t.st.applied <- t.st.applied + 1;
    if not (C.has_s cctx record) then [ C.drop cctx ~lsn k ]
    else begin
      let sk = C.s_key_of_t_row cctx record.Record.row in
      let others =
        List.filter (fun (k', _) -> not (Row.Key.equal k k'))
          (C.by_s_key cctx sk)
      in
      if others = [] then begin
        (* t{^y}{_x} is the only record containing s{^x}: preserve the
           S part as t{^null}{_x} before deleting. *)
        let survivor = C.strip_r cctx record.Record.row in
        let k1 = C.drop cctx ~lsn k in
        let k2 = C.put cctx ~lsn ~presence:C.s_bit survivor in
        [ k1; k2 ]
      end
      else [ C.drop cctx ~lsn k ]
    end

(* Rule 7 (R side): update of non-join attributes of r{^y}. *)
let rule_update_r_other t ~lsn y changes =
  let cctx = t.cctx in
  match C.by_r_key cctx y with
  | [] ->
    t.st.ignored <- t.st.ignored + 1;
    []
  | (k, _) :: _ ->
    t.st.applied <- t.st.applied + 1;
    let t_changes = C.r_changes_to_t cctx changes in
    (* Changes routed here never alter T's key columns: join-column
       rewrites landing in this rule come from rule 5's x = z case and
       are no-ops by construction — drop them rather than re-keying. *)
    let t_changes = C.drop_t_key_changes cctx t_changes in
    if t_changes = [] then [ k ]
    else begin
      (match Table.update cctx.C.t_tbl ~lsn ~key:k t_changes with
       | Ok _ -> ()
       | Error `Not_found -> assert false);
      [ k ]
    end

(* Rule 5: update of the join attribute of r{^y} from x to z. *)
let rule_update_r_join t ~lsn y changes before =
  let cctx = t.cctx in
  match C.by_r_key cctx y with
  | [] ->
    t.st.ignored <- t.st.ignored + 1;
    []
  | (k, record) :: _ ->
    let row = record.Record.row in
    (* w <> x check (see the .mli note): T must still show the
       pre-update value on every changed join column, else a newer
       state is already reflected and the record is skipped. *)
    let t_pre_state =
      List.for_all
        (fun (r_pos, old_v) ->
           match C.r_join_dst cctx r_pos with
           | None -> true
           | Some t_pos -> Value.equal (Row.get row t_pos) old_v)
        before
    in
    let t_changes = C.r_changes_to_t cctx changes in
    let new_r_in_t = Row.update row t_changes in
    let z = C.join_of_t_row cctx new_r_in_t in
    let x = C.join_of_t_row cctx row in
    if not t_pre_state then begin
      t.st.ignored <- t.st.ignored + 1;
      [ k ]
    end
    else if Row.Key.equal x z then
      (* Join value unchanged (update rewrote it to the same value):
         behaves like a plain attribute update. *)
      rule_update_r_other t ~lsn y changes
    else begin
      t.st.applied <- t.st.applied + 1;
      let touched = ref [] in
      let push ks = touched := !touched @ ks in
      (* Preserve s{^x} if t{^y}{_x} was its only carrier. *)
      if C.has_s cctx record then begin
        let sk = C.s_key_of_t_row cctx row in
        let others =
          List.filter (fun (k', _) -> not (Row.Key.equal k k'))
            (C.by_s_key cctx sk)
        in
        if others = [] then
          push [ C.put cctx ~lsn ~presence:C.s_bit (C.strip_r cctx row) ]
      end;
      (* Query the destination before removing the old record. *)
      let matches_z =
        if Row.Key.has_null z then [] else C.by_join cctx z
      in
      push [ C.drop cctx ~lsn k ];
      let r_part = C.strip_s cctx new_r_in_t in
      (match
         List.find_opt (fun (_, r2) -> not (C.has_r cctx r2)) matches_z
       with
       | Some (k2, r2) ->
         (* t{^null}{_z} found: merge into t{^y}{_z}. *)
         let merged = C.graft_s_from_t cctx ~src:r2.Record.row ~onto:r_part in
         push [ C.drop cctx ~lsn k2 ];
         push [ C.put cctx ~lsn ~presence:(C.r_bit lor C.s_bit) merged ]
       | None ->
         (match
            List.find_opt (fun (_, r2) -> C.has_s cctx r2) matches_z
          with
          | Some (_, r2) ->
            (* t{^v}{_z} exists: join with its s{^z} part. *)
            let merged =
              C.graft_s_from_t cctx ~src:r2.Record.row ~onto:r_part
            in
            push [ C.put cctx ~lsn ~presence:(C.r_bit lor C.s_bit) merged ]
          | None ->
            (* No s{^z}: t{^y}{_null} with join z. *)
            push [ C.put cctx ~lsn ~presence:C.r_bit r_part ]));
      !touched
    end

(* Rule 2: insert s{^x} into S. *)
let rule_insert_s t ~lsn row =
  let cctx = t.cctx in
  let x = C.join_of_s_row cctx row in
  let sk = C.s_key_of_s_row cctx row in
  if Row.Key.has_null x then begin
    (* NULL join value: appears only padded with r-null. *)
    match C.by_s_key cctx sk with
    | (k, _) :: _ ->
      t.st.ignored <- t.st.ignored + 1;
      [ k ]
    | [] ->
      t.st.applied <- t.st.applied + 1;
      let fresh, bits = C.t_row_of_sources cctx ~r:None ~s:(Some row) in
      [ C.put cctx ~lsn ~presence:bits fresh ]
  end
  else begin
    let matches = C.by_join cctx x in
    let unfilled =
      List.filter (fun (_, record) -> not (C.has_s cctx record)) matches
    in
    if matches = [] then begin
      t.st.applied <- t.st.applied + 1;
      let fresh, bits = C.t_row_of_sources cctx ~r:None ~s:(Some row) in
      [ C.put cctx ~lsn ~presence:bits fresh ]
    end
    else if unfilled = [] then begin
      (* Every record with join x already carries an S part: reflected. *)
      t.st.ignored <- t.st.ignored + 1;
      List.map fst matches
    end
    else begin
      t.st.applied <- t.st.applied + 1;
      List.concat_map
        (fun (k, record) ->
           let row' = C.graft_s cctx ~s:row ~onto:record.Record.row in
           C.rekey cctx ~lsn ~old_key:k
             ~presence:(C.presence cctx record lor C.s_bit)
             row')
        unfilled
    end
  end

(* Rule 4: delete s{^x} from S. *)
let rule_delete_s t ~lsn sk =
  let cctx = t.cctx in
  match C.by_s_key cctx sk with
  | [] ->
    t.st.ignored <- t.st.ignored + 1;
    []
  | matches ->
    t.st.applied <- t.st.applied + 1;
    List.concat_map
      (fun (k, record) ->
         if not (C.has_r cctx record) then [ C.drop cctx ~lsn k ]
         else
           C.rekey cctx ~lsn ~old_key:k ~presence:C.r_bit
             (C.strip_s cctx record.Record.row))
      matches

(* Rule 7 (S side): update of non-join attributes of s{^x}. *)
let rule_update_s_other t ~lsn sk changes =
  let cctx = t.cctx in
  match C.by_s_key cctx sk with
  | [] ->
    t.st.ignored <- t.st.ignored + 1;
    []
  | matches ->
    t.st.applied <- t.st.applied + 1;
    let t_changes = C.s_changes_to_t cctx changes in
    List.map
      (fun (k, _) ->
         if t_changes <> [] then begin
           match Table.update cctx.C.t_tbl ~lsn ~key:k t_changes with
           | Ok _ -> ()
           | Error `Not_found -> assert false
         end;
         k)
      matches

(* Rule 6: update of the join attribute of s{^x} to z. *)
let rule_update_s_join t ~lsn sk changes =
  let cctx = t.cctx in
  match C.by_s_key cctx sk with
  | [] ->
    t.st.ignored <- t.st.ignored + 1;
    []
  | ((_, first) :: _ as matches) ->
    t.st.applied <- t.st.applied + 1;
    let touched = ref [] in
    let push ks = touched := !touched @ ks in
    (* The log lacks the unchanged S attributes; extract them from a
       record in T (paper: "sx is used to extract the attribute values
       of sz"). *)
    let t_changes = C.s_changes_to_t cctx changes in
    let new_s_in_t = Row.update first.Record.row t_changes in
    let z = C.join_of_t_row cctx new_s_in_t in
    (* Phase 1: detach s{^x} from every carrier. *)
    List.iter
      (fun (k, record) ->
         if not (C.has_r cctx record) then push [ C.drop cctx ~lsn k ]
         else
           push
             (C.rekey cctx ~lsn ~old_key:k ~presence:C.r_bit
                (C.strip_s cctx record.Record.row)))
      matches;
    (* Phase 2: attach s{^z} to records with join value z. *)
    if Row.Key.has_null z then begin
      (* New join value never matches: s{^z} survives as t{^null}{_z}. *)
      push
        [ C.put cctx ~lsn ~presence:C.s_bit (C.strip_r cctx new_s_in_t) ]
    end
    else begin
      let matches_z = C.by_join cctx z in
      let fillable =
        List.filter
          (fun (_, r2) -> C.has_r cctx r2 && not (C.has_s cctx r2))
          matches_z
      in
      if matches_z = [] then
        push
          [ C.put cctx ~lsn ~presence:C.s_bit (C.strip_r cctx new_s_in_t) ]
      else
        List.iter
          (fun (k2, r2) ->
             (* Fill the S part and refresh the S-key columns in T. *)
             let filled =
               C.graft_s_with_key cctx ~src:new_s_in_t ~onto:r2.Record.row
             in
             push
               (C.rekey cctx ~lsn ~old_key:k2
                  ~presence:(C.presence cctx r2 lor C.s_bit)
                  filled))
          fillable
    end;
    !touched

let apply t ~lsn (op : LR.op) =
  let spec = (l t).Spec.spec in
  let table = LR.op_table op in
  if String.equal table spec.Spec.r_table then
    match op with
    | LR.Insert { row; _ } -> rule_insert_r t ~lsn row
    | LR.Delete { key; _ } -> rule_delete_r t ~lsn key
    | LR.Update { key; changes; before; _ } ->
      if C.r_join_changed t.cctx changes then
        rule_update_r_join t ~lsn key changes before
      else rule_update_r_other t ~lsn key changes
  else if String.equal table spec.Spec.s_table then
    match op with
    | LR.Insert { row; _ } -> rule_insert_s t ~lsn row
    | LR.Delete { key; _ } -> rule_delete_s t ~lsn key
    | LR.Update { key; changes; _ } ->
      if C.s_join_changed t.cctx changes then
        rule_update_s_join t ~lsn key changes
      else rule_update_s_other t ~lsn key changes
  else begin
    t.st.foreign <- t.st.foreign + 1;
    []
  end
