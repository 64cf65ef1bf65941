(* Determinism self-test of the benchmark.

   Runs every workload at tiny scale for one episode (--seconds 1 is
   less than any workload's episode), twice with one
   seed and once with another, each in a fresh process (the heap peak is
   a whole-process figure). The counts line must repeat exactly under
   the same seed and the op streams must change with the seed. Each run
   also checks, inside the benchmark, that the change side and the twin
   drew identical streams and that the oracle (and, for the durable
   workload, recovery) held: a failure there exits non-zero. *)

let workloads = [ "foj-populate"; "split-lazy-hot"; "foj-durable-write" ]

let counts_prefix = "counts: "

let run ~workload ~seed =
  let work_dir = Filename.concat (Sys.getcwd ()) ("selftest-" ^ workload) in
  let args =
    [| "./main.exe"; "--workload"; workload; "--seed"; string_of_int seed;
       "--seconds"; "1"; "--trace"; "0"; "--tiny";
       "--work-dir"; work_dir |]
  in
  let ic = Unix.open_process_args_in "./main.exe" args in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  (match Unix.close_process_in ic with
   | Unix.WEXITED 0 -> ()
   | _ ->
     List.iter prerr_endline lines;
     failwith (Printf.sprintf "%s seed %d: benchmark run failed" workload seed));
  match
    List.find_opt (String.starts_with ~prefix:counts_prefix) lines
  with
  | Some l -> l
  | None -> failwith (Printf.sprintf "%s seed %d: no counts line" workload seed)

(* The stream digest is the last field of the counts line. *)
let digest counts =
  let key = "\"stream_digest\": " in
  let rec find i =
    if String.sub counts i (String.length key) = key then
      String.sub counts (i + String.length key)
        (String.length counts - i - String.length key)
    else find (i + 1)
  in
  find 0

let () =
  let failures = ref 0 in
  List.iter
    (fun workload ->
       let first = run ~workload ~seed:1 in
       let again = run ~workload ~seed:1 in
       let other = run ~workload ~seed:2 in
       if first <> again then begin
         incr failures;
         Printf.printf "FAIL %s: same seed, different counts\n  %s\n  %s\n" workload
           first again
       end
       else if digest first = digest other then begin
         incr failures;
         Printf.printf "FAIL %s: seeds 1 and 2 drew the same op streams\n" workload
       end
       else Printf.printf "ok %s: %s\n" workload first)
    workloads;
  if !failures > 0 then exit 1
