(** Incremental solving sessions.

    A session owns a solver state that persists across [solve] calls:
    the prefix and matrix grow monotonically between calls
    ({!new_block}/{!new_vars}/{!extend_prefix} and {!add_clause}), and
    {!push}/{!pop} frames retract clauses — together with exactly the
    learned constraints whose derivations depended on them — while
    keeping the rest.  This is the Lonsing–Egly incremental-QBF recipe
    adapted to the paper's partial-order prefixes:

    - {b Learned clauses survive growth.}  A learned clause is a
      Q-resolution consequence of a subset of the matrix; adding clauses
      cannot invalidate the derivation, and its universal-reduction
      steps (Lemma 3) stay sound because the growth contract below
      preserves ≺ on existing variable pairs.
    - {b Learned cubes are invalidated on matrix growth.}  A cube
      certifies that the matrix {e as it stood} was satisfiable under
      some assignments; a new clause can falsify the certificate, so
      every learned cube is dropped when clauses are added.
    - {b Frames.}  Every constraint carries the push/pop frame that was
      current when it was added; a learned constraint carries the
      maximum frame over its derivation's antecedents.  [pop] retracts
      every constraint of deeper frames — originals and dependent
      learned constraints alike — and nothing else.
    - {b Heuristic state persists.}  Literal activities and the
      occurrence counters driving them survive every call; fresh
      variables enter with activity seeded from their occurrence counts,
      exactly as a cold start would seed them.

    {b Growth contract}: extensions may add variables to existing blocks
    and add new blocks anywhere, but must not change the quantifier of
    an existing variable nor the order ≺ between two existing variables
    (d/f timestamps are renumbered internally; the {e relation} must be
    preserved).  Beware that prefix normalisation merges
    same-quantifier only-child blocks: giving such a child a new
    sibling un-merges it and changes the order.  Sessions created with
    [~validate:true] (or with [QBF_SESSION_DEBUG] set in the
    environment) check the contract — the parenthesis property of
    eq. 13 restricted to old variables — on every extension and raise
    [Invalid_argument] instead of silently corrupting the search. *)

type t

(** A handle to a quantifier block of the session's forest. *)
type block

(** [create ()] starts an empty session (no variables, no clauses).
    The [config] is fixed for the session's lifetime; its budget hooks
    apply to every call, and [max_nodes] bounds the leaves of each call
    on its own.

    [?proof] attaches a trace writer for the session's lifetime: every
    input clause, resolution and retraction is recorded, each conclusive
    [solve] appends its own conclusion record, pure-literal fixing is
    forced off and learning forced on (see {!Proof}).  The caller owns the writer and must
    {!Proof.close} it after disposing the session. *)
val create :
  ?config:Solver_types.config ->
  ?validate:bool ->
  ?proof:Proof.t ->
  unit ->
  t

(** Seed a session with an existing formula: its (normalised) quantifier
    forest becomes the session forest — variables keep their ids — and
    its matrix is added at frame 0.  [?proof] as in {!create}. *)
val of_formula :
  ?config:Solver_types.config ->
  ?validate:bool ->
  ?proof:Proof.t ->
  Qbf_core.Formula.t ->
  t

(** [new_block t ?parent quant] adds an empty quantifier block, at the
    root of the forest when [parent] is omitted. *)
val new_block : t -> ?parent:block -> Qbf_core.Quant.t -> block

(** [new_vars t b k] allocates [k] fresh variables in block [b] and
    returns the first id (the ids are consecutive). *)
val new_vars : t -> block -> int -> int

(** [extend_prefix t ?parent quant k] = a new block holding [k] fresh
    variables: [new_block] + [new_vars] in one call. *)
val extend_prefix :
  t -> ?parent:block -> Qbf_core.Quant.t -> int -> block * int

(** Add a clause over allocated variables at the current frame.
    Tautologies are dropped.  Raises [Invalid_argument] on out-of-range
    variables. *)
val add_clause : t -> Qbf_core.Lit.t list -> unit

(** Open a retraction frame: clauses added from now on (and learned
    constraints derived from them) are dropped by the matching {!pop}. *)
val push : t -> unit

(** Retract the innermost frame.  Raises [Invalid_argument] at frame 0. *)
val pop : t -> unit

(** Current frame (0 = base). *)
val frame : t -> int

(** Decide the current formula.  [assumptions] are solved as an
    ephemeral frame of unit clauses — the call decides
    [formula ∧ ⋀ assumptions] and retracts the frame (and any learned
    constraint depending on it) afterwards; note that assuming a
    universal literal therefore yields [False] by universal reduction.
    The returned stats are the {e delta} of this call; see {!stats} for
    cumulative totals. *)
val solve : ?assumptions:Qbf_core.Lit.t list -> t -> Solver_types.result

(** Cumulative statistics over the whole session (a snapshot copy). *)
val stats : t -> Solver_types.stats

(** Constraint-database occupancy, for tests and diagnostics. *)
type db_stats = {
  originals_active : int;
  learned_clauses_active : int;
  learned_cubes_active : int;
  retracted : int;  (** constraints dropped by pops / cube invalidation *)
}

val db_stats : t -> db_stats

val var_count : t -> int

(** Mark the session unusable; further growth or solving raises
    [Invalid_argument] (reading {!stats} stays allowed). *)
val dispose : t -> unit

(** One-shot convenience: [of_formula] + [solve] + [dispose].
    Equivalent to [Engine.solve]; [?proof] as in {!create} (the caller
    still closes the writer). *)
val one_shot :
  ?config:Solver_types.config ->
  ?proof:Proof.t ->
  Qbf_core.Formula.t ->
  Solver_types.result

(** The backing state, for white-box tests only. *)
val state_for_testing : t -> State.t
