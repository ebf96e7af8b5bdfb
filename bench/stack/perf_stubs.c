/* The hardware counter of instructions retired, read through
   perf_event_open(2). */

#include <caml/mlvalues.h>

#ifdef __linux__
#include <linux/perf_event.h>
#include <stdint.h>
#include <string.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

/* Opens a counter of the instructions this process retires in user space.
   It is inherited: threads and child processes started later count too,
   each from the moment it exits. Returns the descriptor, or -1 where the
   kernel or the machine offers no such counter. */
CAMLprim value stackbench_instructions_open(value unit)
{
  (void)unit;
#ifdef __linux__
  struct perf_event_attr attr;
  memset(&attr, 0, sizeof attr);
  attr.type = PERF_TYPE_HARDWARE;
  attr.size = sizeof attr;
  attr.config = PERF_COUNT_HW_INSTRUCTIONS;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.inherit = 1;
  long fd = syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
  return Val_long(fd < 0 ? -1 : fd);
#else
  return Val_long(-1);
#endif
}

/* The counter's value, or -1 if it cannot be read. */
CAMLprim value stackbench_instructions_read(value fd)
{
#ifdef __linux__
  uint64_t count;
  if (read(Long_val(fd), &count, sizeof count) != sizeof count) return Val_long(-1);
  return Val_long((long)count);
#else
  (void)fd;
  return Val_long(-1);
#endif
}
