(** Structured input errors of the run harness.

    Everything between "here is a file" and "here is a formula" that can
    fail is one of {!Qbf_io.Load}'s errors; they render as one-line
    [file:line:col: message] diagnostics and map to exit code 2.
    Solver-side failures (budgets, interrupts, memory) are not errors:
    they surface as [Unknown] outcomes with partial statistics. *)

type t = Qbf_io.Load.error

val to_string : t -> string

val exit_code : t -> int
(** Always 2, distinct from the solver's 10/20/30 outcome codes. *)
