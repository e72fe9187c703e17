(** QBFs as (partial-order prefix, CNF matrix) pairs — Section II of the
    paper. *)

type t

(** [make prefix matrix] checks that all clause variables are in range for
    [prefix] (raising {!Prefix.Ill_formed} otherwise).  Clauses are kept
    verbatim; see {!simplify}. *)
val make : Prefix.t -> Clause.t list -> t

val prefix : t -> Prefix.t
val matrix : t -> Clause.t list
val nvars : t -> int
val num_clauses : t -> int

(** Lemma 3 of the paper: remove from a clause every universal literal
    whose variable does not precede any existential variable of the
    clause.  Sound for arbitrary (non-prenex) prefixes. *)
val universal_reduce_clause : Prefix.t -> Clause.t -> Clause.t

(** A clause with no existential literal (its universal reduction is the
    empty clause) — Lemma 4. *)
val is_contradictory_clause : Prefix.t -> Clause.t -> bool

(** Every clause's variables lie on a single root path of the quantifier
    forest.  Matrices of actual non-prenex QBFs always satisfy this; the
    game semantics is order-independent (and the solver/oracle agree)
    only on such inputs.  Learned constraints are exempt. *)
val path_consistent : t -> bool

(** Remove tautological clauses, apply universal reduction, deduplicate;
    the clauses come back sorted by {!Clause.compare}. *)
val simplify : t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
