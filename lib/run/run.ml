(* The resilient solving harness: structured loading and budgeted,
   interruptible solves.

   A "run" never throws on bad input or exhausted budgets: loading
   returns [(formula, Run_error.t) result], and solving returns a
   [report] whose [stopped] field says which limit (if any) ended the
   search.  Partial statistics are always preserved. *)

module ST = Qbf_solver.Solver_types

(* Loading is Qbf_io's: [Run_error.t] is [Qbf_io.Load.error]. *)
let load = Qbf_io.Load.of_file
let load_string = Qbf_io.Load.of_string

(* ------------------------------------------------------------------ *)
(* Budgeted, interruptible solving                                     *)

type stop_reason =
  | Timeout
  | Interrupted of Limits.Interrupt.reason
  | Node_budget
  | Budget

let string_of_stop_reason = function
  | Timeout -> "timeout"
  | Interrupted (Limits.Interrupt.Signal n) ->
      if n = Sys.sigint then "sigint"
      else if n = Sys.sigterm then "sigterm"
      else Printf.sprintf "signal-%d" n
  | Interrupted Limits.Interrupt.Memory -> "memory"
  | Interrupted Limits.Interrupt.Manual -> "interrupted"
  | Node_budget -> "node-budget"
  | Budget -> "budget"

(* The one report shape for a budgeted solve: [solve] builds it with
   [make_report], and the serving worker ships it over its pipe. *)
type report = {
  outcome : ST.outcome;
  time : float;
  stats : ST.stats;
  witness : ST.witness;
  stopped : stop_reason option;
  metrics : Qbf_obs.Metrics.snapshot option;
  profile : Qbf_obs.Profile.snapshot option;
}

(* Why an [Unknown] solve ended, in priority order: an interrupt beats
   the deadline beats the node budget beats the rest — the same order
   the engine's budget check polls them.  [nodes] are the leaves the
   engine compared against [max_nodes]. *)
let stopped_of ~interrupt ~deadline ~max_nodes ~nodes = function
  | ST.True | ST.False -> None
  | ST.Unknown ->
      if Limits.Interrupt.triggered interrupt then
        Some
          (Interrupted
             (Option.value ~default:Limits.Interrupt.Manual
                (Limits.Interrupt.reason interrupt)))
      else if Limits.Deadline.expired deadline then Some Timeout
      else
        let node_hit =
          match max_nodes with Some m -> nodes >= m | None -> false
        in
        Some (if node_hit then Node_budget else Budget)

(* Snapshots of an attached collector, taken when the solve returns
   (also on interrupt/timeout paths: Engine always returns a result). *)
let snapshots_of_obs = function
  | Some o ->
      ( (if o.Qbf_obs.Obs.metrics_on then
           Some
             (Qbf_obs.Metrics.snapshot ~counters:(Qbf_obs.Obs.counters o)
                o.Qbf_obs.Obs.metrics)
         else None),
        if o.Qbf_obs.Obs.profile_on then
          Some (Qbf_obs.Profile.snapshot o.Qbf_obs.Obs.profile)
        else None )
  | None -> (None, None)

(* Assemble the report of one budgeted solve from the engine's result
   and the limit plumbing that surrounded it. *)
let make_report ~interrupt ~deadline ~config ~time ~nodes (r : ST.result) =
  let stopped =
    stopped_of ~interrupt ~deadline
      ~max_nodes:config.ST.budgets.ST.max_nodes ~nodes r.ST.outcome
  in
  let metrics, profile = snapshots_of_obs config.ST.observe.ST.obs in
  {
    outcome = r.ST.outcome;
    time;
    stats = r.ST.stats;
    witness = r.ST.witness;
    stopped;
    metrics;
    profile;
  }

let min_opt a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (min a b)

(* Merge [limits] and [interrupt] into [config]'s budget hooks.  A
   pre-existing [should_stop]/[stop_flag] in the config is preserved:
   the deadline is OR-ed into the poll and the flag keeps priority. *)
let effective_config (limits : Limits.t) interrupt deadline config =
  let b = config.ST.budgets in
  let should_stop =
    match (b.ST.should_stop, limits.Limits.timeout_s) with
    | None, None -> None
    | user, _ ->
        Some
          (fun () ->
            Limits.Deadline.expired deadline
            || match user with Some f -> f () | None -> false)
  in
  let stop_flag =
    match b.ST.stop_flag with
    | None -> Some (Limits.Interrupt.flag interrupt)
    | Some _ as user -> user
  in
  ST.with_budgets
    (fun b ->
      {
        ST.should_stop;
        stop_flag;
        stop_interval = max 1 limits.Limits.poll_interval;
        max_nodes = min_opt b.ST.max_nodes limits.Limits.max_nodes;
      })
    config

let solve ?(limits = Limits.default) ?interrupt ?(config = ST.default_config)
    ?proof_file formula =
  let interrupt =
    match interrupt with Some i -> i | None -> Limits.Interrupt.create ()
  in
  let deadline =
    match limits.Limits.timeout_s with
    | None -> Limits.Deadline.never
    | Some s -> Limits.Deadline.after ~clock:limits.Limits.clock s
  in
  let config = effective_config limits interrupt deadline config in
  let guard =
    Option.map
      (fun mb -> Limits.Mem_guard.install ~limit_mb:mb interrupt)
      limits.Limits.mem_mb
  in
  (* The writer lives exactly as long as the solve; Engine.solve forces
     pure-literal fixing off while it is attached. *)
  let proof =
    Option.map (fun path -> Qbf_solver.Proof.create ~path) proof_file
  in
  let t0 = limits.Limits.clock () in
  let r =
    Fun.protect
      ~finally:(fun () ->
        Option.iter Qbf_solver.Proof.close proof;
        Option.iter Limits.Mem_guard.remove guard)
      (fun () -> Qbf_solver.Engine.solve ~config ?proof formula)
  in
  let time = limits.Limits.clock () -. t0 in
  make_report ~interrupt ~deadline ~config ~time
    ~nodes:(ST.nodes r.ST.stats) r

(* ------------------------------------------------------------------ *)
(* Job sources                                                         *)

type source = Path of string | Inline of string

let source_label = function Path p -> p | Inline _ -> "<inline>"

(* The one loader for a serving job's instance, used by the worker
   before it solves and by the supervisor when it ingests a job and
   when it re-checks a certificate.  [Inline] text gets a synthetic
   diagnostic label. *)
let load_source = function
  | Path p -> load p
  | Inline text -> load_string ~file:"<inline>" text
