/* Host clocks with nanosecond resolution, for timing spans and windows,
   and pinning to one CPU. */
#define _GNU_SOURCE
#include <sched.h>
#include <time.h>
#include <caml/mlvalues.h>

static long read_clock(clockid_t id)
{
  struct timespec ts;
  clock_gettime(id, &ts);
  return (long)ts.tv_sec * 1000000000L + ts.tv_nsec;
}

/* CLOCK_MONOTONIC is system-wide, so readings from two processes on one
   host compare directly. */
value perfbench_now_ns(value unit)
{
  (void)unit;
  return Val_long(read_clock(CLOCK_MONOTONIC));
}

/* CPU time (user + system) of every thread of the calling process. */
value perfbench_cpu_ns(value unit)
{
  (void)unit;
  return Val_long(read_clock(CLOCK_PROCESS_CPUTIME_ID));
}

/* Pin the calling thread (and the children it forks) to the CPU it runs
   on now, if it can; [perfbench_unpin] gives back the CPUs it was allowed
   before. */
static cpu_set_t allowed;
static int pinned = 0;

value perfbench_pin_here(value unit)
{
  cpu_set_t one;
  int cpu = sched_getcpu();
  (void)unit;
  if (!pinned && cpu >= 0 && sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  return Val_unit;
}

value perfbench_unpin(value unit)
{
  (void)unit;
  if (pinned) sched_setaffinity(0, sizeof allowed, &allowed);
  pinned = 0;
  return Val_unit;
}
