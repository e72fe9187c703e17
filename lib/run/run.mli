(** The resilient solving harness.

    A "run" never throws on bad input or an exhausted budget: loading
    returns [(formula, Run_error.t) result]; solving returns a {!report}
    whose [stopped] field says which limit (if any) ended the search,
    with full partial statistics.  Escalating budgets and racing
    configurations are the serving layer's job ([qubed]). *)

module ST = Qbf_solver.Solver_types

val load : string -> (Qbf_core.Formula.t, Run_error.t) result
(** {!Qbf_io.Load.of_file}: read and parse a file, in either format.
    Missing or unreadable files, malformed input, and invalid formulas
    all come back as structured errors — nothing escapes as an
    exception. *)

val load_string :
  ?file:string -> string -> (Qbf_core.Formula.t, Run_error.t) result
(** {!Qbf_io.Load.of_string}: the same on in-memory contents; [file]
    only labels diagnostics. *)

type stop_reason =
  | Timeout  (** the wall-clock deadline expired *)
  | Interrupted of Limits.Interrupt.reason
      (** a signal arrived, the memory guard tripped, or code tripped
          the interrupt *)
  | Node_budget  (** the leaf budget was hit *)
  | Budget
      (** the caller's own [should_stop] hook or [stop_flag] in [config] *)

val string_of_stop_reason : stop_reason -> string

(** The one report shape for a budgeted solve, shared by {!solve} and
    the serving worker. *)
type report = {
  outcome : ST.outcome;
  time : float;  (** seconds, measured by the limits' clock *)
  stats : ST.stats;  (** complete even when stopped early *)
  witness : ST.witness;
      (** certificate of a conclusive outcome, when [proof_file] was
          attached and the run fully derived its conclusion *)
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

val load_source : source -> (Qbf_core.Formula.t, Run_error.t) result
(** {!load} a [Path], or {!load_string} an [Inline] text labelled
    ["<inline>"] in diagnostics: the one loader of the serving layer's
    worker and supervisor. *)
