/* The host's monotonic clock, for Real_clock.  CLOCK_MONOTONIC never steps
   backward when the wall clock is set, so timed waits on the Unix backend
   keep their deadlines across an NTP correction or a manual date change. */
#include <time.h>
#include <caml/mlvalues.h>

value pthreads_vm_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}
