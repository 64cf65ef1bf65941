/* The benchmark's CPU clock: CPU time of the whole process. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

int64_t perfbench_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

value perfbench_cpu_ns_byte(value unit)
{
  return caml_copy_int64(perfbench_cpu_ns(unit));
}
