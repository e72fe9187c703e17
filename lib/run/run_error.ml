(* Structured failures of the run harness: the loader's errors (see
   Qbf_io.Load).  Solver-side failures (budgets, interrupts) are NOT
   errors — they are reported as [Unknown] outcomes with partial
   statistics (see Run). *)

type t = Qbf_io.Load.error

let to_string = Qbf_io.Load.error_to_string

(* All input errors share one exit code, distinct from the solver's
   10/20/30 outcome codes. *)
let exit_code (_ : t) = 2
