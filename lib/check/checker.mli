(** Independent checker for the solver's qproof traces.

    Replays a trace (grammar in lib/solver/proof.ml) with its own
    resolution, reduction and coverage rules; it shares only the core
    formula types and the instance loader ({!Qbf_io.Load}) with the
    solver, so a bug in the search cannot hide in the checker.

    With [?formula] (formula mode — what [qcheck_proof] and the qubed
    supervisor use) every variable declaration and input clause is also
    cross-checked against the original formula, and a [true] conclusion
    requires the whole matrix to be registered.  Without it (trust
    mode) declarations and inputs are taken at face value — only for
    white-box tests of incremental sessions, which no single input file
    describes — up to {!Qbf_io.Load.max_declared_vars} variables.

    Each record costs O(n log n) in its literal count, except an axiom
    term, which is also checked against every alive input clause. *)

type verdict = {
  conclusions : bool list;
      (** each [f] record's outcome, in trace order; a valid certificate
          has at least one *)
  steps : int;  (** derivation records replayed (i/a/r) *)
}

type failure = { line : int; msg : string }
(** First failing record; [line = 0] for file-level problems. *)

val check_channel :
  ?formula:Qbf_core.Formula.t -> in_channel -> (verdict, failure) result

val check_file :
  ?formula:Qbf_core.Formula.t -> string -> (verdict, failure) result

(** [check_against ~formula_path proof] loads the formula with
    {!Qbf_io.Load.of_file} and runs {!check_file} in formula mode.  A
    formula that does not load is a file-level failure whose message is
    the loader's diagnostic, [file:line:col: message]. *)
val check_against :
  formula_path:string -> string -> (verdict, failure) result
