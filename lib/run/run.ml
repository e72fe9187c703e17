(* The resilient solving harness: structured loading, budgeted and
   interruptible solves, and a budget-escalation portfolio.

   A "run" never throws on bad input or exhausted budgets: loading
   returns [(formula, Run_error.t) result], solving returns a [report]
   whose [stopped] field says which limit (if any) ended the search, and
   the portfolio returns the first conclusive attempt plus a per-attempt
   trail.  Partial statistics are always preserved. *)

module ST = Qbf_solver.Solver_types

type format = Qdimacs | Nqdimacs

(* Decide the format from the first non-comment, non-blank line: a
   `p ncnf` header means NQDIMACS, anything else (including a missing or
   malformed header, which the parser will then diagnose) is QDIMACS. *)
let sniff_format text =
  let rec scan = function
    | [] -> Qdimacs
    | line :: rest ->
        let t = String.trim line in
        if t = "" || t.[0] = 'c' then scan rest
        else if String.length t >= 6 && String.sub t 0 6 = "p ncnf" then
          Nqdimacs
        else Qdimacs
  in
  scan (String.split_on_char '\n' text)

let parse ~file ~format text =
  match format with
  | Qdimacs ->
      Qbf_io.Qdimacs.parse_string_res text
      |> Result.map_error (Run_error.of_qdimacs ~file)
  | Nqdimacs ->
      Qbf_io.Nqdimacs.parse_string_res text
      |> Result.map_error (Run_error.of_nqdimacs ~file)

let load_string ?(file = "<string>") ?format text =
  let format =
    match format with Some f -> f | None -> sniff_format text
  in
  parse ~file ~format text

(* Read the whole file once; every failure mode (missing file,
   directory, permission, truncated read) becomes a structured [Io]
   error instead of an escaping exception. *)
let load ?format path =
  match
    if Sys.file_exists path && Sys.is_directory path then
      raise (Sys_error (path ^ ": is a directory"));
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> load_string ~file:path ?format text
  | exception Sys_error msg ->
      (* Sys_error messages already lead with the path; drop it so the
         rendered diagnostic doesn't repeat it. *)
      let msg =
        let p = path ^ ": " in
        let lp = String.length p in
        if String.length msg > lp && String.sub msg 0 lp = p then
          String.sub msg lp (String.length msg - lp)
        else msg
      in
      Error (Run_error.Io { file = path; msg })
  | exception End_of_file ->
      Error (Run_error.Io { file = path; msg = "truncated read" })

let load_exn ?format path =
  match load ?format path with
  | Ok f -> f
  | Error e -> raise (Run_error.Error e)

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

(* The one report shape for a budgeted solve: [solve], [Session.solve]
   and the serving worker all report through [make_report]. *)
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
   engine compared against [max_nodes] (cumulative session totals for a
   session call, this run's count otherwise). *)
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
(* Worker-side entry: load + solve in one call                         *)

type source = Path of string | Inline of string

let source_label = function Path p -> p | Inline _ -> "<inline>"

(* The entry point a serving worker runs per job: structured load (the
   format is sniffed; [Inline] text gets a synthetic diagnostic label),
   then a budgeted solve.  Nothing escapes as an exception on the input
   side, so a worker never dies on a malformed instance — it reports the
   error over its pipe instead. *)
let solve_source ?limits ?interrupt ?config ?proof_file src =
  let loaded =
    match src with
    | Path p -> load p
    | Inline text -> load_string ~file:"<inline>" text
  in
  Result.map (fun f -> solve ?limits ?interrupt ?config ?proof_file f) loaded

(* ------------------------------------------------------------------ *)
(* Budgeted incremental sessions                                       *)

(* The session analogue of [solve]: one growable Qbf_solver.Session
   behind the same limit plumbing.  The wall-clock budget is per call —
   each [solve] gets a fresh deadline — while [max_nodes] necessarily
   stays cumulative (the engine compares it against the session's
   running totals).  The memory guard is installed only around solves,
   so building a large extension between calls never trips it. *)
module Session = struct
  type session = {
    raw : Qbf_solver.Session.t;
    limits : Limits.t;
    interrupt : Limits.Interrupt.t;
    config : ST.config; (* the effective config, for snapshots *)
  }

  type t = session

  let make ?(limits = Limits.default) ?interrupt
      ?(config = ST.default_config) ?validate seed =
    let interrupt =
      match interrupt with Some i -> i | None -> Limits.Interrupt.create ()
    in
    let config =
      ST.with_budgets
        (fun b ->
          {
            b with
            ST.stop_flag =
              (match b.ST.stop_flag with
              | None -> Some (Limits.Interrupt.flag interrupt)
              | Some _ as user -> user);
            stop_interval = max 1 limits.Limits.poll_interval;
            max_nodes = min_opt b.ST.max_nodes limits.Limits.max_nodes;
          })
        config
    in
    let raw =
      match seed with
      | None -> Qbf_solver.Session.create ~config ?validate ()
      | Some f -> Qbf_solver.Session.of_formula ~config ?validate f
    in
    { raw; limits; interrupt; config }

  let create ?limits ?interrupt ?config ?validate () =
    make ?limits ?interrupt ?config ?validate None

  let of_formula ?limits ?interrupt ?config ?validate f =
    make ?limits ?interrupt ?config ?validate (Some f)

  let raw t = t.raw
  let interrupt t = t.interrupt
  let stats t = Qbf_solver.Session.stats t.raw

  let solve ?assumptions t =
    let deadline =
      match t.limits.Limits.timeout_s with
      | None -> Limits.Deadline.never
      | Some s -> Limits.Deadline.after ~clock:t.limits.Limits.clock s
    in
    let guard =
      Option.map
        (fun mb -> Limits.Mem_guard.install ~limit_mb:mb t.interrupt)
        t.limits.Limits.mem_mb
    in
    let t0 = t.limits.Limits.clock () in
    let r =
      Fun.protect
        ~finally:(fun () -> Option.iter Limits.Mem_guard.remove guard)
        (fun () ->
          Qbf_solver.Session.solve ?assumptions
            ~should_stop:(fun () -> Limits.Deadline.expired deadline)
            t.raw)
    in
    let time = t.limits.Limits.clock () -. t0 in
    (* [max_nodes] is compared against the session's cumulative totals,
       not this call's delta — hence the session-wide node count. *)
    make_report ~interrupt:t.interrupt ~deadline ~config:t.config ~time
      ~nodes:(ST.nodes (Qbf_solver.Session.stats t.raw)) r

  let dispose t = Qbf_solver.Session.dispose t.raw
end

(* ------------------------------------------------------------------ *)
(* Budget-escalation portfolio                                         *)

type attempt = {
  label : string;
  budget_s : float option; (* per-attempt wall budget; None = only the
                              overall limit applies *)
  config : ST.config;
}

(* The default escalation ladder: the paper's PO solver with learning on
   a short leash, then the TO solver with restarts and database
   reduction at [factor] times the budget, then PO with restarts,
   unbounded (the overall limit, if any, still applies).  Each rung
   restarts from scratch — conflicts that wedge one heuristic rarely
   wedge the other. *)
let escalating ?(base = 0.5) ?(factor = 2.) ?(config = ST.default_config) ()
    =
  [
    {
      label = "po-learn";
      budget_s = Some base;
      config =
        ST.(
          config
          |> with_heuristic Partial_order
          |> with_learning true);
    };
    {
      label = "to-restarts";
      budget_s = Some (base *. factor);
      config =
        ST.(
          config
          |> with_heuristic Total_order
          |> with_learning true
          |> with_restarts true
          |> with_db_reduction true);
    };
    {
      label = "po-restarts";
      budget_s = None;
      config =
        ST.(
          config
          |> with_heuristic Partial_order
          |> with_learning true
          |> with_restarts true
          |> with_db_reduction true);
    };
  ]

type portfolio_report = {
  outcome : ST.outcome; (* of the last attempt run *)
  attempts : (string * report) list; (* in execution order *)
  total_time : float;
}

(* [observe] gives each attempt its own fresh collector (keyed by the
   attempt label), so every rung of the ladder reports its own metrics
   snapshot and phase profile: escalation decisions become explainable
   ("the PO rung spent 80% of its budget in analysis and learned
   nothing") instead of opaque wall-clock budgets.  An [obs] already
   present in an attempt's config wins over the factory. *)
let portfolio ?(limits = Limits.default) ?interrupt ?observe attempts formula =
  let interrupt =
    match interrupt with Some i -> i | None -> Limits.Interrupt.create ()
  in
  let config_of (a : attempt) =
    match (a.config.ST.observe.ST.obs, observe) with
    | Some _, _ | None, None -> a.config
    | None, Some factory -> ST.with_obs (Some (factory a.label)) a.config
  in
  let overall =
    match limits.Limits.timeout_s with
    | None -> Limits.Deadline.never
    | Some s -> Limits.Deadline.after ~clock:limits.Limits.clock s
  in
  let t0 = limits.Limits.clock () in
  let rec go acc = function
    | [] -> (ST.Unknown, List.rev acc)
    | a :: rest ->
        if Limits.Interrupt.triggered interrupt then (ST.Unknown, List.rev acc)
        else if Limits.Deadline.remaining overall <= 0. then
          (ST.Unknown, List.rev acc)
        else
          let budget =
            let left = Limits.Deadline.remaining overall in
            match a.budget_s with
            | Some b when left < infinity -> Some (Float.min b left)
            | Some b -> Some b
            | None when left < infinity -> Some left
            | None -> None
          in
          let attempt_limits = { limits with Limits.timeout_s = budget } in
          let r =
            solve ~limits:attempt_limits ~interrupt ~config:(config_of a)
              formula
          in
          let acc = (a.label, r) :: acc in
          if r.outcome <> ST.Unknown then (r.outcome, List.rev acc)
          else go acc rest
  in
  let outcome, attempts = go [] attempts in
  { outcome; attempts; total_time = limits.Limits.clock () -. t0 }
