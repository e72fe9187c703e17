/* Peak resident set sizes, which OCaml's Unix library does not expose. */
#include <sys/resource.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>

/* (self, reaped children) ru_maxrss in KiB; -1 where unavailable. */
value perf_e2e_maxrss_kb(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(res);
  struct rusage self, children;
  long s = -1, c = -1;
  if (getrusage(RUSAGE_SELF, &self) == 0) s = self.ru_maxrss;
  if (getrusage(RUSAGE_CHILDREN, &children) == 0) c = children.ru_maxrss;
  res = caml_alloc_tuple(2);
  Store_field(res, 0, Val_long(s));
  Store_field(res, 1, Val_long(c));
  CAMLreturn(res);
}
