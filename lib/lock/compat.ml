type mode = S | X

type provenance = Native | Source of int

type lock = {
  mode : mode;
  provenance : provenance;
}

let standard a b = match a, b with S, S -> true | _ -> false

let compatible a b =
  match a.provenance, b.provenance with
  | Source _, Source _ -> true
  | Native, Native -> standard a.mode b.mode
  | Native, Source _ | Source _, Native -> a.mode = S && b.mode = S

let pp_provenance ppf = function
  | Native -> Format.pp_print_string ppf "T"
  | Source 0 -> Format.pp_print_string ppf "R"
  | Source 1 -> Format.pp_print_string ppf "S"
  | Source i -> Format.fprintf ppf "src%d" i

let pp_lock ppf l =
  Format.fprintf ppf "%a.%s" pp_provenance l.provenance
    (match l.mode with S -> "r" | X -> "w")

let figure2_order =
  [ { mode = S; provenance = Source 0 };
    { mode = S; provenance = Source 1 };
    { mode = S; provenance = Native };
    { mode = X; provenance = Source 0 };
    { mode = X; provenance = Source 1 };
    { mode = X; provenance = Native } ]

let figure2_cells () =
  List.map
    (fun held -> List.map (fun req -> compatible held req) figure2_order)
    figure2_order

let pp_figure2 ppf () =
  let label l = Format.asprintf "%a" pp_lock l in
  Format.fprintf ppf "     %s@."
    (String.concat "  " (List.map label figure2_order));
  List.iter2
    (fun held row ->
       Format.fprintf ppf "%s  %s@." (label held)
         (String.concat "    "
            (List.map (fun ok -> if ok then "y" else "n") row)))
    figure2_order (figure2_cells ())
