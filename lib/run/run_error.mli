(** Structured input errors of the run harness.

    Everything between "here is a file" and "here is a formula" that can
    fail is one of these; they render as one-line
    [file:line:col: message] diagnostics and map to exit code 2.
    Solver-side failures (budgets, interrupts, memory) are not errors:
    they surface as [Unknown] outcomes with partial statistics. *)

type t =
  | Io of { file : string; msg : string }
  | Parse of { file : string; line : int; col : int; msg : string }
  | Invalid of { file : string; msg : string }

val to_string : t -> string

val exit_code : t -> int
(** Always 2, distinct from the solver's 10/20/30 outcome codes. *)

val of_qdimacs : file:string -> Qbf_io.Qdimacs.error -> t
val of_nqdimacs : file:string -> Qbf_io.Nqdimacs.error -> t
