/* Core affinity for the benchmark's passes (Linux sched_setaffinity). */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/alloc.h>

/* The cores this process may run on, in increasing order. */
value perfbench_allowed_cores(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(cores);
  cpu_set_t set;
  int i, n = 0, k = 0;
  if (sched_getaffinity(0, sizeof set, &set) != 0) CPU_ZERO(&set);
  for (i = 0; i < CPU_SETSIZE; i++)
    if (CPU_ISSET(i, &set)) n++;
  cores = caml_alloc(n, 0);
  for (i = 0; i < CPU_SETSIZE; i++)
    if (CPU_ISSET(i, &set)) Store_field(cores, k++, Val_int(i));
  CAMLreturn(cores);
}

/* Pin the calling thread to [cpu]; 0 on success. */
value perfbench_pin_core(value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_int(sched_setaffinity(0, sizeof set, &set));
}
