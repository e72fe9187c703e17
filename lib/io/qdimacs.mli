(** QDIMACS (prenex CNF) writer; {!Load} is the reader.

    External variables are 1-based; they map to the 0-based dense
    variables of {!Qbf_core.Lit}. *)

(** Printing requires a prenex prefix; raises [Invalid_argument]
    otherwise (convert first, e.g. with [Qbf_prenex.Prenexing]). *)
val print : Format.formatter -> Qbf_core.Formula.t -> unit

val to_string : Qbf_core.Formula.t -> string
val write_file : string -> Qbf_core.Formula.t -> unit

val print_matrix : Format.formatter -> Qbf_core.Clause.t list -> unit
(** The clauses, one 0-terminated line each: the body both formats
    share. *)

val write_with :
  (Format.formatter -> Qbf_core.Formula.t -> unit) ->
  string ->
  Qbf_core.Formula.t ->
  unit
(** [write_with print path f] writes [f] to [path] with [print]. *)
