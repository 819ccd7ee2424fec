/* CLOCK_REALTIME in nanoseconds: the daemon's spans use the same clock
   (gettimeofday), at microsecond resolution, so the two can be joined. */
#include <time.h>
#include <caml/mlvalues.h>

intnat perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_REALTIME, &ts);
  return (intnat)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

value perfbench_now_ns_byte(value unit)
{
  return Val_long(perfbench_now_ns(unit));
}
