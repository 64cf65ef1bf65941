(* The schema-compiled rule plans against their reference: every
   primitive of [Plan], over random position lists, rows and change
   lists, must equal its list-walking definition over the list it was
   compiled from. The definitions below are that reference. A route is
   looked up with [List.assoc_opt], so of two pairs with one source the
   first wins; a projection is tested with [List.mem]; fresh rows are
   built with [Row.update], so of two writes to one position the later
   wins. The cases are small and dense, so duplicate positions, partial
   covers and unrouted changes come up often. *)

open Nbsc_value
open Nbsc_core

module Ref = struct
  let dst_of_src pairs s = List.assoc_opt s pairs

  let changes_through pairs changes =
    List.filter_map
      (fun (pos, v) ->
         Option.map (fun d -> (d, v)) (List.assoc_opt pos pairs))
      changes

  let graft pairs ~src ~onto =
    Row.update onto (List.map (fun (s, d) -> (d, Row.get src s)) pairs)

  let blit pairs ~src ~dst =
    List.iter (fun (s, d) -> dst.(d) <- Row.get src s) pairs

  let project ps row = Row.Key.of_row row ps
  let touches ps changes = List.exists (fun (pos, _) -> List.mem pos ps) changes

  let filter_out ps changes =
    List.filter (fun (pos, _) -> not (List.mem pos ps)) changes

  let covered_by ps changes =
    List.for_all (fun p -> List.mem_assoc p changes) ps

  let null_out ps row = Row.update row (List.map (fun p -> (p, Value.Null)) ps)

  let any_non_null ps row =
    List.exists (fun p -> not (Value.is_null (Row.get row p))) ps

  let graft_self ps ~src ~onto =
    Row.update onto (List.map (fun p -> (p, Row.get src p)) ps)
end

type case = {
  arity : int;  (* of [src] and [onto]; every plan position is below it *)
  pairs : (int * int) list;
  ps : int list;
  src : Row.t;
  onto : Row.t;
  changes : (int * Value.t) list;
}

let gen_case =
  let open QCheck.Gen in
  let* arity = int_range 1 6 in
  let pos = int_bound (arity - 1) in
  let value =
    oneofl [ Value.Null; Value.Int 0; Value.Int 1; Value.Text "a"; Value.Bool true ]
  in
  let row = map Row.of_array (array_repeat arity value) in
  let* pairs = list_size (int_bound 6) (pair pos pos) in
  let* ps = list_size (int_bound 5) pos in
  let* src = row in
  let* onto = row in
  (* Change positions reach one past either end of the row: a change
     on a column the plan does not map must be dropped, not misread. *)
  let* changes = list_size (int_bound 6) (pair (int_range (-1) arity) value) in
  return { arity; pairs; ps; src; onto; changes }

let print_case c =
  let ints l = String.concat "; " (List.map string_of_int l) in
  Printf.sprintf "pairs [%s]\nps [%s]\nsrc %s\nonto %s\nchanges [%s]"
    (String.concat "; "
       (List.map (fun (s, d) -> Printf.sprintf "%d->%d" s d) c.pairs))
    (ints c.ps) (Row.to_string c.src) (Row.to_string c.onto)
    (String.concat "; "
       (List.map
          (fun (p, v) -> Printf.sprintf "%d:=%s" p (Value.to_string v))
          c.changes))

let agrees c =
  let check name ok =
    if not ok then QCheck.Test.fail_reportf "%s differs from its definition" name
  in
  let src = Array.copy c.src and onto = Array.copy c.onto in
  let r = Plan.route c.pairs and p = Plan.proj c.ps in
  for s = -1 to c.arity do
    check "dst_of_src" (Plan.dst_of_src r s = Ref.dst_of_src c.pairs s)
  done;
  check "changes_through"
    (Plan.changes_through r c.changes = Ref.changes_through c.pairs c.changes);
  check "graft"
    (Row.equal (Plan.graft r ~src ~onto) (Ref.graft c.pairs ~src ~onto));
  let compiled = Array.copy onto and reference = Array.copy onto in
  Plan.blit r ~src ~dst:compiled;
  Ref.blit c.pairs ~src ~dst:reference;
  check "blit" (Row.equal compiled reference);
  check "project" (Row.Key.equal (Plan.project p src) (Ref.project c.ps src));
  check "touches" (Plan.touches p c.changes = Ref.touches c.ps c.changes);
  check "filter_out"
    (Plan.filter_out p c.changes = Ref.filter_out c.ps c.changes);
  check "covered_by" (Plan.covered_by p c.changes = Ref.covered_by c.ps c.changes);
  check "null_out" (Row.equal (Plan.null_out p onto) (Ref.null_out c.ps onto));
  check "any_non_null" (Plan.any_non_null p src = Ref.any_non_null c.ps src);
  check "graft_self"
    (Row.equal (Plan.graft_self p ~src ~onto) (Ref.graft_self c.ps ~src ~onto));
  (* The fresh-row primitives copy: neither input row moved. *)
  check "inputs unchanged" (Row.equal src c.src && Row.equal onto c.onto);
  true

let prop_plan =
  QCheck.Test.make ~name:"every primitive equals its list definition"
    ~count:1000
    (QCheck.make ~print:print_case gen_case)
    agrees

let () =
  Alcotest.run "plan"
    [ ("compiled plan", List.map QCheck_alcotest.to_alcotest [ prop_plan ]) ]
