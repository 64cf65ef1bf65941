(* The two clocks of the benchmark, in seconds.

   [cpu] is the process's CPU time (user + system). The driver is one
   thread that never blocks (the durable workload's write(2) calls are
   system time), so on an idle core it advances with the wall clock;
   but it stops while another process holds the core, which on a shared
   host happens for seconds at a time and would otherwise halve every
   timing. Side clocks, set-up and recovery times run on it. It costs a
   system call (about 0.4 us).

   [wall] is the monotonic wall clock (vDSO, about 40 ns): spans and
   quanta are stamped with it. *)

external cpu_ns : unit -> (int64[@unboxed])
  = "perfbench_cpu_ns_byte" "perfbench_cpu_ns"
[@@noalloc]

let cpu () = Int64.to_float (cpu_ns ()) *. 1e-9
let wall () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
