(** The search engine: Q-DLL (Figure 1 of the paper) extended to
    arbitrary quantifier trees (Section IV) with pure-literal fixing,
    conflict/solution learning and backjumping, and the TO/PO branching
    heuristics of Section VI.

    The same engine implements both of the paper's solvers: QuBE(TO) is
    [solve] on a prenex formula with [heuristic = Total_order], QuBE(PO)
    is [solve] on the original non-prenex formula with
    [heuristic = Partial_order] (the default).

    This interface is deliberately narrow: state construction and the
    internal search entry points live behind {!Session}, the primary
    API.  Use {!Session.one_shot} (or the [solve] below, its historical
    alias) only for fire-and-forget calls. *)

(** Decide a QBF in one shot.  Correct and complete for any budget-free
    configuration; returns [Unknown] only when a budget of [config]
    triggers — it never raises on its own and never mutates [config].

    [?proof] attaches a trace writer: the call forces pure-literal
    fixing off (a pure-assigned pivot has no reason constraint, see
    {!Proof}) and learning on (the resolutions of conflict/solution
    analysis are the derivation), records every resolution, and sets the result's
    [witness] to [Proof_trace] when the outcome is conclusive and fully
    derived.  The caller still owns the writer and must {!Proof.close}
    it.

    This entry point is equivalent to {!Session.one_shot} and kept for
    callers with no session state to manage (tools, tests, the
    differential fuzzer); anything incremental — growth, push/pop,
    assumptions — must go through {!Session}. *)
val solve :
  ?config:Solver_types.config ->
  ?proof:Proof.t ->
  Qbf_core.Formula.t ->
  Solver_types.result

(** Run the search loop on a prepared state.  Internal: {!Session} is
    the supported way to drive the engine across multiple calls.  The
    result's [witness] reports a certificate iff the state's attached
    proof writer (see {!State.create}) gained a conclusion record
    during this call. *)
val solve_state : State.t -> Solver_types.result

(** Run one learned-DB reduction cycle (deactivate the worst unlocked,
    non-glue learned constraints per [db_keep_fraction], then compact
    the arena) exactly as the search loop's periodic trigger would.
    Exposed for white-box tests only. *)
val reduce_db_for_testing : State.t -> unit
