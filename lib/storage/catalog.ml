type t = (string, Table.t) Hashtbl.t

let create () : t = Hashtbl.create 16

let add t table =
  let name = Table.name table in
  if Hashtbl.mem t name then
    invalid_arg (Printf.sprintf "Catalog.add: table %S exists" name);
  Hashtbl.replace t name table

let create_table t ?size ?indexes ~name schema =
  if Hashtbl.mem t name then
    invalid_arg (Printf.sprintf "Catalog.create_table: table %S exists" name);
  let table = Table.create ?size ?indexes ~name schema in
  Hashtbl.replace t name table;
  table

let find t name =
  match Hashtbl.find_opt t name with
  | Some table -> table
  | None -> raise Not_found

let find_opt = Hashtbl.find_opt
let mem = Hashtbl.mem

let drop t name =
  if not (Hashtbl.mem t name) then raise Not_found;
  Hashtbl.remove t name

let rename t ~old_name ~new_name =
  let table = find t old_name in
  if Hashtbl.mem t new_name then
    invalid_arg (Printf.sprintf "Catalog.rename: table %S exists" new_name);
  Hashtbl.remove t old_name;
  Hashtbl.replace t new_name table

let names t = Hashtbl.fold (fun name _ acc -> name :: acc) t []
let tables t = Hashtbl.fold (fun _ table acc -> table :: acc) t []
