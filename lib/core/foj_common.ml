open Nbsc_value
open Nbsc_storage

let r_bit = 1
let s_bit = 2

(* The rule plan: every positional mapping and projection the FOJ rules
   consult per record, compiled once against the layout at operator
   construction ([make_ctx]). The rules then read [Plan]'s arrays and
   never re-walk the layout's lists on the hot path. *)
type ctx = {
  layout : Spec.foj_layout;
  t_tbl : Table.t;
  route_r : Plan.route;       (* r_to_t @ r_join_to_t *)
  route_s : Plan.route;       (* s_to_t @ s_join_to_t *)
  route_r_join : Plan.route;  (* r_join_to_t alone (rule 5 pre-state) *)
  p_r_carry : Plan.proj;      (* t_r_carry_pos *)
  p_s_carry : Plan.proj;      (* t_s_carry_pos *)
  p_s_carry_key : Plan.proj;  (* t_s_carry_pos U t_s_key_pos *)
  p_t_r_key : Plan.proj;
  p_t_s_key : Plan.proj;
  p_t_join : Plan.proj;
  p_t_key : Plan.proj;        (* T's own key columns *)
  p_r_key_in_r : Plan.proj;
  p_join_in_r : Plan.proj;
  p_s_key_in_s : Plan.proj;
  p_join_in_s : Plan.proj;
  t_arity : int;
}

let make_ctx catalog (l : Spec.foj_layout) =
  { layout = l;
    t_tbl = Catalog.find catalog l.Spec.spec.Spec.t_table;
    route_r = Plan.route (l.Spec.r_to_t @ l.Spec.r_join_to_t);
    route_s = Plan.route (l.Spec.s_to_t @ l.Spec.s_join_to_t);
    route_r_join = Plan.route l.Spec.r_join_to_t;
    p_r_carry = Plan.proj l.Spec.t_r_carry_pos;
    p_s_carry = Plan.proj l.Spec.t_s_carry_pos;
    p_s_carry_key =
      Plan.proj
        (l.Spec.t_s_carry_pos
         @ List.filter
             (fun p -> not (List.mem p l.Spec.t_s_carry_pos))
             l.Spec.t_s_key_pos);
    p_t_r_key = Plan.proj l.Spec.t_r_key_pos;
    p_t_s_key = Plan.proj l.Spec.t_s_key_pos;
    p_t_join = Plan.proj l.Spec.t_join_pos;
    p_t_key = Plan.proj (Schema.key_positions l.Spec.t_schema);
    p_r_key_in_r = Plan.proj l.Spec.r_key_in_r;
    p_join_in_r = Plan.proj l.Spec.join_in_r;
    p_s_key_in_s = Plan.proj l.Spec.s_key_in_s;
    p_join_in_s = Plan.proj l.Spec.join_in_s;
    t_arity = Schema.arity l.Spec.t_schema }

let derive_presence ctx row =
  (if Plan.any_non_null ctx.p_t_r_key row then r_bit else 0)
  lor if Plan.any_non_null ctx.p_t_s_key row then s_bit else 0

let presence ctx (record : Record.t) =
  if record.Record.aux <> 0 then record.Record.aux
  else derive_presence ctx record.Record.row

let has_r ctx record = presence ctx record land r_bit <> 0
let has_s ctx record = presence ctx record land s_bit <> 0

let t_row_of_sources ctx ~r ~s =
  let row = Row.all_null ctx.t_arity in
  (match s with
   | Some s_row -> Plan.blit ctx.route_s ~src:s_row ~dst:row
   | None -> ());
  (match r with
   | Some r_row ->
     (* R wins on join columns; equal anyway. *)
     Plan.blit ctx.route_r ~src:r_row ~dst:row
   | None -> ());
  let bits =
    (match r with Some _ -> r_bit | None -> 0)
    lor match s with Some _ -> s_bit | None -> 0
  in
  (row, bits)

let strip_r ctx row = Plan.null_out ctx.p_r_carry row
let strip_s ctx row = Plan.null_out ctx.p_s_carry row

let graft_r ctx ~r ~onto = Plan.graft ctx.route_r ~src:r ~onto
let graft_s ctx ~s ~onto = Plan.graft ctx.route_s ~src:s ~onto

let graft_s_from_t ctx ~src ~onto = Plan.graft_self ctx.p_s_carry ~src ~onto

let graft_s_with_key ctx ~src ~onto =
  Plan.graft_self ctx.p_s_carry_key ~src ~onto

let r_changes_to_t ctx changes = Plan.changes_through ctx.route_r changes
let s_changes_to_t ctx changes = Plan.changes_through ctx.route_s changes

let drop_t_key_changes ctx changes = Plan.filter_out ctx.p_t_key changes

let r_join_dst ctx r_pos = Plan.dst_of_src ctx.route_r_join r_pos

let r_join_changed ctx changes = Plan.touches ctx.p_join_in_r changes
let s_join_changed ctx changes = Plan.touches ctx.p_join_in_s changes

let r_key_of_r_row ctx row = Plan.project ctx.p_r_key_in_r row
let join_of_r_row ctx row = Plan.project ctx.p_join_in_r row
let s_key_of_s_row ctx row = Plan.project ctx.p_s_key_in_s row
let join_of_s_row ctx row = Plan.project ctx.p_join_in_s row
let t_key ctx row = Plan.project ctx.p_t_key row
let r_key_of_t_row ctx row = Plan.project ctx.p_t_r_key row
let s_key_of_t_row ctx row = Plan.project ctx.p_t_s_key row
let join_of_t_row ctx row = Plan.project ctx.p_t_join row

let by_r_key ctx key =
  Table.index_lookup_records ctx.t_tbl ~index:Spec.ix_by_r_key key

let by_s_key ctx key =
  Table.index_lookup_records ctx.t_tbl ~index:Spec.ix_by_s_key key

let by_join ctx key =
  Table.index_lookup_records ctx.t_tbl ~index:Spec.ix_by_join key

let put ctx ~lsn ~presence row =
  match Table.insert ctx.t_tbl ~lsn ~aux:presence row with
  | Ok () -> Table.key_of_row ctx.t_tbl row
  | Error `Duplicate_key ->
    invalid_arg
      (Format.asprintf "Foj: rule produced duplicate T key for %a" Row.pp row)

let drop ctx ~lsn key =
  match Table.delete ctx.t_tbl ~lsn key with
  | Ok _ -> key
  | Error `Not_found ->
    invalid_arg
      (Format.asprintf "Foj: rule deleted missing T key %a" Row.Key.pp key)

let rekey ctx ~lsn ~old_key ~presence row =
  let k1 = drop ctx ~lsn old_key in
  let k2 = put ctx ~lsn ~presence row in
  [ k1; k2 ]
