(** The resilient solving harness.

    A "run" never throws on bad input or an exhausted budget: loading
    returns [(formula, Run_error.t) result]; solving returns a {!report}
    whose [stopped] field says which limit (if any) ended the search,
    with full partial statistics; {!portfolio} escalates through a
    ladder of attempts and reports each one. *)

module ST = Qbf_solver.Solver_types

type format = Qdimacs | Nqdimacs

val sniff_format : string -> format
(** Decide from the first non-comment line of the {e contents}: a
    [p ncnf] header means NQDIMACS, anything else QDIMACS. *)

val load :
  ?format:format -> string -> (Qbf_core.Formula.t, Run_error.t) result
(** Read and parse a file, sniffing the format unless given.  Missing or
    unreadable files, malformed input, and invalid formulas all come
    back as structured errors — nothing escapes as an exception. *)

val load_string :
  ?file:string ->
  ?format:format ->
  string ->
  (Qbf_core.Formula.t, Run_error.t) result
(** Same on in-memory contents; [file] only labels diagnostics. *)

val load_exn : ?format:format -> string -> Qbf_core.Formula.t
(** Exception shim: raises {!Run_error.Error}. *)

type stop_reason =
  | Timeout  (** the wall-clock deadline expired *)
  | Interrupted of Limits.Interrupt.reason
      (** a signal arrived, the memory guard tripped, or code tripped
          the interrupt *)
  | Node_budget  (** the leaf budget was hit *)
  | Budget
      (** the caller's own [should_stop] hook or [stop_flag] in [config] *)

val string_of_stop_reason : stop_reason -> string

(** The one report shape for a budgeted solve, shared by {!solve},
    {!Session.solve} and the serving worker. *)
type report = {
  outcome : ST.outcome;
  time : float;  (** seconds, measured by the limits' clock *)
  stats : ST.stats;  (** complete even when stopped early *)
  witness : ST.witness;
      (** certificate of a conclusive outcome, when [proof_file] (or a
          session's proof writer) was attached and the run fully
          derived its conclusion *)
  stopped : stop_reason option;  (** [None] iff the outcome is conclusive *)
  metrics : Qbf_obs.Metrics.snapshot option;
      (** metrics-registry snapshot, when [config.obs] carried a
          collector with metrics enabled; present on every exit path *)
  profile : Qbf_obs.Profile.snapshot option;
      (** phase-profile snapshot under the same condition *)
}

val solve :
  ?limits:Limits.t ->
  ?interrupt:Limits.Interrupt.t ->
  ?config:ST.config ->
  ?proof_file:string ->
  Qbf_core.Formula.t ->
  report
(** Solve under [limits].  A [should_stop]/[stop_flag] already present
    in [config] is preserved (the deadline is OR-ed in; the caller's
    flag keeps priority).  Passing a shared [interrupt] lets one
    Ctrl-C end a whole suite of runs.

    [proof_file] records a Q-resolution trace there (forcing
    pure-literal fixing off for the run); when the outcome is
    conclusive and fully derived, [report.witness] points at the
    written certificate, which [tools/qcheck_proof.exe] (or
    {!Qbf_check.Checker}, from code) validates independently.  Opening
    the file may raise [Sys_error] — the one exception this function
    does not catch, since it concerns the caller's own output path, not
    the input. *)

type source = Path of string | Inline of string
(** Where a job's instance text lives: a file on disk, or the QDIMACS /
    NQDIMACS text itself (batch lines can inline small instances). *)

val source_label : source -> string
(** The path, or ["<inline>"] — used in diagnostics and reports. *)

val solve_source :
  ?limits:Limits.t ->
  ?interrupt:Limits.Interrupt.t ->
  ?config:ST.config ->
  ?proof_file:string ->
  source ->
  (report, Run_error.t) result
(** The worker-side entry of the serving layer: {!load} (format
    sniffed) then {!solve} under the same limit plumbing.  Input
    failures come back as structured errors, so a supervised worker
    reports them over its pipe instead of dying. *)

(** The session analogue of {!solve}: a growable
    {!Qbf_solver.Session} behind the same limit plumbing.  The
    wall-clock budget and the memory guard apply {e per call} — each
    [solve] gets a fresh deadline, and the guard is installed only
    while solving — whereas a [max_nodes] limit is necessarily
    cumulative over the session's lifetime (the engine compares it
    against the session's running totals).  An interrupt stays tripped
    across calls until {!Limits.Interrupt.clear}ed. *)
module Session : sig
  type t

  val create :
    ?limits:Limits.t ->
    ?interrupt:Limits.Interrupt.t ->
    ?config:ST.config ->
    ?validate:bool ->
    unit ->
    t

  val of_formula :
    ?limits:Limits.t ->
    ?interrupt:Limits.Interrupt.t ->
    ?config:ST.config ->
    ?validate:bool ->
    Qbf_core.Formula.t ->
    t

  val raw : t -> Qbf_solver.Session.t
  (** The underlying session, for growth calls ([add_clause],
      [extend_prefix], [push]/[pop], ...). *)

  val interrupt : t -> Limits.Interrupt.t

  val solve : ?assumptions:Qbf_core.Lit.t list -> t -> report
  (** One budgeted call; [report.stats] is this call's delta. *)

  val stats : t -> ST.stats
  (** Cumulative totals over the whole session. *)

  val dispose : t -> unit
end

type attempt = {
  label : string;
  budget_s : float option;
      (** per-attempt wall budget; [None] = only the overall limit *)
  config : ST.config;
}

val escalating :
  ?base:float -> ?factor:float -> ?config:ST.config -> unit -> attempt list
(** The default escalation ladder: PO with learning at [base] seconds,
    TO with restarts at [base *. factor], then PO with restarts,
    unbounded.  [config] seeds every rung (e.g. an [aux_hint]). *)

type portfolio_report = {
  outcome : ST.outcome;  (** of the last attempt run *)
  attempts : (string * report) list;  (** in execution order *)
  total_time : float;
}

val portfolio :
  ?limits:Limits.t ->
  ?interrupt:Limits.Interrupt.t ->
  ?observe:(string -> Qbf_obs.Obs.t) ->
  attempt list ->
  Qbf_core.Formula.t ->
  portfolio_report
(** Run [attempts] in order, returning on the first conclusive outcome.
    Per-attempt budgets are clipped to the remaining overall
    [limits.timeout_s]; an interrupt or an expired overall deadline
    stops the ladder between attempts.  [observe label] supplies each
    attempt with a fresh observability collector, so every per-attempt
    {!report} carries its own metrics snapshot and phase profile; an
    [obs] already present in an attempt's config takes precedence. *)
