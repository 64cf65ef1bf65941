type corruption = {
  c_path : string option;
  c_line : int option;
  c_lsn : int option;
  c_expected_crc : string option;
  c_actual_crc : string option;
  c_reason : string;
}

type t =
  [ `Io of string
  | `Corrupt of corruption
  | `Disk_full of string
  | `Active_transactions of int list
  | `Invalid of string
  | `Conflict of string
  | `Job_failed of string * string
  | `Msg of string ]

exception Error of t

let fail e = raise (Error e)

let corruption ?path ?line ?lsn ?expected_crc ?actual_crc reason =
  { c_path = path; c_line = line; c_lsn = lsn; c_expected_crc = expected_crc;
    c_actual_crc = actual_crc; c_reason = reason }

let corrupt ?path ?line ?lsn ?expected_crc ?actual_crc reason =
  `Corrupt (corruption ?path ?line ?lsn ?expected_crc ?actual_crc reason)

let in_file path = function
  | `Corrupt ({ c_path = None; _ } as c) ->
    `Corrupt { c with c_path = Some path }
  | e -> e

let invalidf fmt = Format.kasprintf (fun m -> `Invalid m) fmt

let corruption_to_string c =
  let ctx =
    List.filter_map Fun.id
      [ Option.map (fun p -> "file " ^ p) c.c_path;
        Option.map (fun l -> "line " ^ string_of_int l) c.c_line;
        Option.map (fun l -> "lsn " ^ string_of_int l) c.c_lsn;
        Option.map (fun e -> "expected crc " ^ e) c.c_expected_crc;
        Option.map (fun a -> "actual crc " ^ a) c.c_actual_crc ]
  in
  match ctx with
  | [] -> c.c_reason
  | _ -> Printf.sprintf "%s (%s)" c.c_reason (String.concat ", " ctx)

let to_string = function
  | `Io m -> "io error: " ^ m
  | `Corrupt c -> "corrupt: " ^ corruption_to_string c
  | `Disk_full m -> "disk full: " ^ m
  | `Active_transactions txns ->
    Printf.sprintf "%d transaction(s) still active: [%s]" (List.length txns)
      (String.concat "; " (List.map string_of_int txns))
  | `Invalid m -> "invalid: " ^ m
  | `Conflict m -> "conflict: " ^ m
  | `Job_failed (job, reason) -> Printf.sprintf "job %s failed: %s" job reason
  | `Msg m -> m

let pp ppf e = Format.pp_print_string ppf (to_string e)
