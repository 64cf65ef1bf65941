type file_report = {
  f_path : string;
  f_lines : int;
  f_torn_tail : bool;
  f_errors : Nbsc_error.corruption list;
}

type report = { dir : string; files : file_report list }

let ok r = List.for_all (fun f -> f.f_errors = []) r.files

let errors r = List.concat_map (fun f -> f.f_errors) r.files

let corruption_of_error path = function
  | `Corrupt c -> c
  | e -> Nbsc_error.corruption ~path (Nbsc_error.to_string e)

(* Read one file through the reader [Persist.open_dir] uses, keeping
   every problem it found. [check] runs over the payloads of a file
   whose lines are all sound; what it returns comes back beside the
   report when it passed. *)
let verify_file kind path ~check =
  let report f_lines f_torn_tail f_errors =
    { f_path = path; f_lines; f_torn_tail; f_errors }
  in
  match Disk_format.read kind path with
  | Error e -> (report 0 false [ corruption_of_error path e ], None)
  | Ok { Disk_format.payloads; torn; problems } ->
    let report = report (List.length payloads) (torn > 0) in
    if problems <> [] then (report problems, None)
    else
      match check payloads with
      | Ok v -> (report [], Some v)
      | Error e -> (report [ corruption_of_error path e ], None)

let verify_dir ~dir =
  if not (Sys.file_exists dir) then Error (`Io (dir ^ ": no such directory"))
  else
    let wal = Disk_format.wal_path dir in
    let snapshot_path = Disk_format.snapshot_path dir in
    (* The snapshot loads as reopening loads it; the WAL's check needs
       the loaded state. *)
    let snapshot, loaded =
      verify_file Disk_format.Snapshot snapshot_path ~check:(fun payloads ->
          Result.map_error
            (Nbsc_error.in_file snapshot_path)
            (Snapshot.load payloads))
    in
    (* The records' LSN chain, the structure replay relies on, and,
       with a loaded snapshot, that the WAL covers it. *)
    let wal_report, _ =
      verify_file Disk_format.Wal wal ~check:(fun records ->
          match loaded with
          | Some db -> Result.map ignore (Persist.retained_log ~path:wal db records)
          | None -> Result.map ignore (Disk_format.wal_log ~path:wal records))
    in
    Ok { dir; files = [ snapshot; wal_report ] }

let pp_file ppf f =
  Format.fprintf ppf "%s: %d line(s)%s — %s@," f.f_path f.f_lines
    (if f.f_torn_tail then " (torn tail)" else "")
    (if f.f_errors = [] then "clean"
     else string_of_int (List.length f.f_errors) ^ " error(s)");
  List.iter
    (fun c -> Format.fprintf ppf "  %s@," (Nbsc_error.corruption_to_string c))
    f.f_errors

let pp_report ppf r =
  Format.fprintf ppf "@[<v>scrub %s:@," r.dir;
  List.iter (pp_file ppf) r.files;
  Format.fprintf ppf "%s@]"
    (if ok r then "CLEAN" else "CORRUPT")
