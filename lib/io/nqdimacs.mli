(** NQDIMACS writer: a QDIMACS-like exchange format for non-prenex
    QBFs; {!Load} is the reader.

    {v
    c comment
    p ncnf <nvars> <nclauses>
    t (e 1 (a 2 (e 3 4)) (a 5 (e 6 7)))
    1 -3 0
    v}

    The [t] line is the quantifier forest as s-expressions with 1-based
    variables; variables not bound anywhere are implicitly outermost
    existentials.  Clauses are DIMACS-style, 0-terminated. *)

val print : Format.formatter -> Qbf_core.Formula.t -> unit
val to_string : Qbf_core.Formula.t -> string
val write_file : string -> Qbf_core.Formula.t -> unit
