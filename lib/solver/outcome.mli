(** The single pretty-print / parse surface for
    {!Solver_types.outcome}.  All user-facing renderings (qube's result
    line, qubed's protocol frames and reports, bench tables) go through
    these functions. *)

val to_string : Solver_types.outcome -> string

(** ['1'], ['0'] or ['?'] — the result character of qube's [s cnf]
    line. *)
val to_char : Solver_types.outcome -> char

(** Inverse of {!to_string}. *)
val of_string : string -> Solver_types.outcome option

(** Prints {!to_string}. *)
val pp : Format.formatter -> Solver_types.outcome -> unit
