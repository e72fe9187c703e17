(** QDIMACS (prenex CNF) reader and writer.

    External variables are 1-based; they map to the 0-based dense
    variables of {!Qbf_core.Lit}.  The reader is lenient about clause
    counts and line breaks; quantifier blocks must precede the matrix. *)

val parse : string -> (Qbf_core.Formula.t, Syntax.error) result
(** Syntax and validation failures come back as [Error] (see {!Load}). *)

(** Printing requires a prenex prefix; raises [Invalid_argument]
    otherwise (convert first, e.g. with [Qbf_prenex.Prenexing]). *)
val print : Format.formatter -> Qbf_core.Formula.t -> unit

val to_string : Qbf_core.Formula.t -> string
val write_file : string -> Qbf_core.Formula.t -> unit
