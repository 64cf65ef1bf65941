include Nbsc_engine.Db

module Scrub = Nbsc_engine.Scrub

module Schema_change = struct
  module Options = Options

  type handle = Transform.t

  type info = {
    sc_job : string;
    sc_operator : string;
    sc_phase : Transform.phase;
    sc_progress : Transform.progress;
    sc_routing : [ `Sources | `Targets ];
  }

  let transform h = h

  let start db ?(options = Options.default) spec =
    (* Refuse before the preparation step: [Transformation.of_spec]
       creates the targets and their indexes, and adopts a target that
       already exists, as crash resume needs. *)
    let catalog = catalog db in
    let taken =
      List.find_opt (Nbsc_storage.Catalog.mem catalog) (Spec.targets spec)
    in
    match (Options.validate options, taken) with
    | Error e, _ -> Error e
    | Ok _, Some name ->
      Error (Nbsc_error.invalidf "target table %S already exists" name)
    | Ok options, None ->
      (* The preparation step validates specs with Invalid_argument (a
         contract several tests pin down); the façade folds that into a
         result. *)
      (match
         Transform.create db ~options (Transformation.of_spec ~options db spec)
       with
       | t -> Ok t
       | exception Invalid_argument m -> Error (`Invalid m)
       | exception Failure m -> Error (`Msg m)
       | exception Nbsc_error.Error e -> Error e)

  let resume = Transform.resume

  let status h =
    { sc_job = Transform.job_name h;
      sc_operator = Transform.name h;
      sc_phase = Transform.phase h;
      sc_progress = Transform.progress h;
      sc_routing = Transform.routing h }

  let step h =
    match Transform.step h with
    | `Running -> `Running
    | `Done -> `Done
    | `Failed m -> `Failed (`Job_failed (Transform.job_name h, m))

  let run ?between h =
    match Transform.run ?between h with
    | Ok () -> Ok ()
    | Error m -> Error (`Job_failed (Transform.job_name h, m))

  let cancel = Transform.abort

  let pp_info ppf i =
    Format.fprintf ppf "@[%s (%s): %a, routing=%s@ %a@]" i.sc_job i.sc_operator
      Transform.pp_phase i.sc_phase
      (match i.sc_routing with `Sources -> "sources" | `Targets -> "targets")
      Transform.pp_progress i.sc_progress
end
