module Obs = Nbsc_obs.Obs

type errno = EIO | ENOSPC

type mode =
  | Crash
  | Torn
  | Io_error of { errno : errno; transient : bool }
  | Bit_flip

exception Injected of { site : string; mode : mode }
exception Io_injected of { site : string; errno : errno; transient : bool }

let all_sites =
  [ "wal_append"; "snapshot_write"; "snapshot_rename"; "wal_rewrite";
    "quantum_end"; "sync_commit"; "snapshot_load"; "recovery_replay";
    "recovery_truncate" ]

type armed = {
  a_mode : mode;
  mutable remaining : int;  (* hits to let pass before firing *)
}

let armed_tbl : (string, armed) Hashtbl.t = Hashtbl.create 8

(* Hit counts live in an observability registry of their own — the
   fault machinery is process-global, unlike the per-db registries, so
   it cannot piggyback on any one database's. *)
let registry = Obs.Registry.create ()

let obs () = registry

let armed_count = ref 0
let tracking = ref false

let enabled () = !armed_count > 0 || !tracking

let set_tracking b = tracking := b

let arm ?(mode = Crash) ?(after = 0) site =
  if not (Hashtbl.mem armed_tbl site) then incr armed_count;
  Hashtbl.replace armed_tbl site { a_mode = mode; remaining = after }

let disarm site =
  if Hashtbl.mem armed_tbl site then begin
    Hashtbl.remove armed_tbl site;
    decr armed_count
  end

let reset () =
  Hashtbl.reset armed_tbl;
  Obs.Registry.zero registry;
  armed_count := 0;
  tracking := false

let counter site = Obs.Registry.counter registry ("fault.hits." ^ site)

let count site = Obs.Counter.incr (counter site)

let io_counter site = Obs.Registry.counter registry ("fault.io_hits." ^ site)

let hits site = Obs.Counter.value (counter site)

(* The mode to fire with, if the site is armed with a mode this
   consultation point can express ([can]) and the countdown is over.
   The countdown only advances at capable consultations, so an [after]
   offset learned from a dry run of one consultation kind stays valid
   when other kinds also guard the same site. Every firing disarms the
   site — each arming fires exactly once — except a {e non-transient}
   [Io_error], which models a condition (dead disk, full disk) rather
   than an event: it keeps firing on every consultation until
   explicitly disarmed. *)
let due site ~can =
  match Hashtbl.find_opt armed_tbl site with
  | None -> None
  | Some a ->
    if not (can a.a_mode) then None
    else if a.remaining > 0 then begin
      a.remaining <- a.remaining - 1;
      None
    end
    else begin
      (match a.a_mode with
       | Io_error { transient = false; _ } -> ()
       | Crash | Torn | Bit_flip | Io_error { transient = true; _ } ->
         disarm site);
      Some a.a_mode
    end

let fire site = function
  | Io_error { errno; transient } ->
    raise (Io_injected { site; errno; transient })
  | mode -> raise (Injected { site; mode })

let hit site =
  if enabled () then begin
    count site;
    match due site ~can:(fun _ -> true) with
    | Some mode ->
      (* A Torn or Bit_flip arming at a plain hit point degrades to a
         clean crash: there is no byte stream to damage here. *)
      fire site mode
    | None -> ()
  end

let write_record site ~partial ~flip =
  if enabled () then begin
    count site;
    match due site ~can:(function Io_error _ -> false | _ -> true) with
    | Some Torn ->
      partial ();
      raise (Injected { site; mode = Torn })
    | Some Bit_flip ->
      (* Silent bit rot: damage the framed bytes and carry on — only a
         later checksum verification may notice. *)
      flip ()
    | Some mode -> fire site mode
    | None -> ()
  end

let file_write site ~flip =
  if enabled () then begin
    count site;
    match due site ~can:(fun _ -> true) with
    | Some Bit_flip -> flip ()
    | Some mode -> fire site mode
    | None -> ()
  end

let io site =
  if enabled () then begin
    Obs.Counter.incr (io_counter site);
    match due site ~can:(function Io_error _ -> true | _ -> false) with
    | Some mode -> fire site mode
    | None -> ()
  end
