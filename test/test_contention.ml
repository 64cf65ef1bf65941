(* Contention soak: a high-conflict client mix (six clients, four-update
   transactions over a dozen hot keys of a 30-row table) runs against a
   split transformation for each synchronization strategy, fault-free
   and with a transient fault injected at the sync-commit point. Each
   run must neither livelock (the change completes within a bounded
   number of quanta, clients keep committing) nor diverge (the final
   R and S equal the oracle split of the final T, the waits-for graph
   is empty and acyclic at rest).

   The seed is fixed; override with NBSC_CONTENTION_SEED to explore. *)

open Nbsc_value
open Nbsc_lock
open Nbsc_txn
open Nbsc_core
open Nbsc_engine
module H = Helpers

let seed_env =
  match Sys.getenv_opt "NBSC_CONTENTION_SEED" with
  | Some s -> (try int_of_string s with Failure _ -> 42)
  | None -> 42

let split_oracle db =
  let t = Db.snapshot db "T" in
  Nbsc_relalg.Relalg.split
    { Nbsc_relalg.Relalg.r_cols' = [ "a"; "b"; "c" ];
      s_cols' = [ "c"; "d" ];
      r_key = [ "a" ];
      s_key = [ "c" ] }
    t

let check_split_converged db =
  let expected_r, expected_s = split_oracle db in
  H.check_relations_equal "R = pi_R(T)" expected_r (Db.snapshot db "R");
  H.check_relations_equal "S = pi_S(T)" expected_s (Db.snapshot db "S")

type client = {
  mutable txn : Manager.txn_id option;
  mutable ops_in_txn : int;
  mutable commits : int;
  mutable restarts : int;  (* deadlock sentences, wounds, forced aborts *)
  mutable retries : int;   (* Blocked / Latched re-arms *)
}

let strategy_ix = function
  | Options.Nonblocking_abort -> 0
  | Options.Nonblocking_commit -> 1
  | Options.Blocking_commit -> 2

let ops_per_txn = 4

let soak ~strategy ~fault () =
  let db = H.fresh_split_db ~t_rows:(H.seed_t_rows ~n:30) in
  let mgr = Db.manager db in
  let rng =
    Random.State.make
      [| seed_env; strategy_ix strategy; (if fault then 1 else 0) |]
  in
  let options =
    { Options.default with
      Options.scan_batch = 8;
      propagate_batch = 8;
      sync_lag = 4;
      sync = strategy;
      drop_sources = false;
      sync_gate = (fun () -> true) }
  in
  let tf = H.start db ~options (Spec.Split (H.split_spec ~assume_consistent:true)) in
  let clients =
    Array.init 6 (fun _ ->
        { txn = None; ops_in_txn = 0; commits = 0; restarts = 0; retries = 0 })
  in
  let hot_key () = Row.make [ Value.Int (1 + Random.State.int rng 12) ] in
  let pump c =
    match c.txn with
    | None ->
      (* New transactions only while the schema change still routes to
         the sources; afterwards the clients idle and let it drain. *)
      if Transform.routing tf = `Sources then begin
        c.txn <- Some (Manager.begin_txn mgr);
        c.ops_in_txn <- 0
      end
    | Some txn ->
      if not (Manager.is_active mgr txn) then begin
        (* Died under us: wounded by an older transaction or force-
           aborted by non-blocking-abort synchronization. *)
        if Manager.is_victim mgr txn then c.restarts <- c.restarts + 1;
        c.txn <- None
      end
      else if c.ops_in_txn >= ops_per_txn || Transform.routing tf = `Targets
      then begin
        (* Quota reached — or the schema change switched while this
           transaction was open: commit what it has instead of writing
           more, so the drain can end with nothing left to propagate. *)
        (match Manager.commit mgr txn with
         | Ok () -> c.commits <- c.commits + 1
         | Error _ -> ignore (Manager.abort mgr txn));
        c.txn <- None
      end
      else begin
        match
          Manager.update mgr ~txn ~table:"T" ~key:(hot_key ())
            [ (1, Value.Text ("w" ^ string_of_int (Random.State.int rng 1000))) ]
        with
        | Ok () | Error `Not_found -> c.ops_in_txn <- c.ops_in_txn + 1
        | Error (`Blocked _) | Error (`Latched _) ->
          c.retries <- c.retries + 1
        | Error (`Deadlock _) | Error `Abort_only ->
          ignore (Manager.abort mgr txn);
          c.restarts <- c.restarts + 1;
          c.txn <- None
        | Error _ ->
          (* [`Frozen] during blocking-commit quiescence, and anything
             else unexpected: give the transaction up. *)
          ignore (Manager.abort mgr txn);
          c.txn <- None
      end
  in
  Fault.reset ();
  if fault then Fault.arm "sync_commit";
  let rounds = ref 0 and max_rounds = 300_000 in
  let faults_seen = ref 0 in
  let finished = ref false in
  while (not !finished) && !rounds < max_rounds do
    incr rounds;
    (match Transform.step tf with
     | `Done -> finished := true
     | `Failed m -> Alcotest.failf "transformation failed: %s" m
     | `Running -> ()
     | exception Fault.Injected _ ->
       (* The injected sync-commit fault: disarm and keep stepping —
          finalization is idempotent, the next quantum retries it. *)
       incr faults_seen;
       Fault.reset ());
    (* No client activity after completion: the propagator is gone, so
       anything written now could never reach the targets. *)
    if not !finished then Array.iter pump clients
  done;
  Fault.reset ();
  Alcotest.(check bool) "no livelock: change completes within bound" true
    !finished;
  if fault then
    Alcotest.(check bool) "the armed fault fired" true (!faults_seen > 0);
  (* Wind down stragglers by committing: every update they made was
     propagated before the drain ended, so committing preserves the
     state the targets already reflect (aborting would revert T with no
     propagator left to compensate on R and S). *)
  Array.iter
    (fun c ->
       (match c.txn with
        | Some t when Manager.is_active mgr t ->
          (match Manager.commit mgr t with
           | Ok () -> c.commits <- c.commits + 1
           | Error _ -> ignore (Manager.abort mgr t))
        | _ -> ());
       c.txn <- None)
    clients;
  let total_commits = Array.fold_left (fun a c -> a + c.commits) 0 clients in
  Alcotest.(check bool) "clients kept committing under contention" true
    (total_commits > 0);
  let s = Manager.Stats.get mgr in
  Alcotest.(check bool) "the workload actually contended" true
    (s.Manager.Stats.blocked > 0);
  let g = Manager.wait_graph mgr in
  Alcotest.(check bool) "waits-for graph acyclic at rest" true
    (Wait_graph.acyclic g);
  Alcotest.(check (list int)) "nothing left waiting" [] (Wait_graph.waiters g);
  check_split_converged db

let strategies =
  [ ("nonblocking-abort", Options.Nonblocking_abort);
    ("nonblocking-commit", Options.Nonblocking_commit);
    ("blocking-commit", Options.Blocking_commit) ]

let () =
  Alcotest.run "contention"
    (List.map
       (fun (name, strategy) ->
          ( name,
            [ Alcotest.test_case "fault-free soak" `Quick
                (soak ~strategy ~fault:false);
              Alcotest.test_case "sync-commit fault soak" `Quick
                (soak ~strategy ~fault:true) ] ))
       strategies)
