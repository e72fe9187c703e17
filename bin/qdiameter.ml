(* qdiameter: state-space diameter via the QBFs of Section VII-C.

     qdiameter MODEL [--style po|to] [--max-n N] [--timeout S] [--bfs]
               [--profile] [--no-incremental]

   MODEL is counter<N>, ring<N>, semaphore<N>, dme<N>, or a path to an
   .smv file in the small NuSMV-like language of Qbf_models.Smv.
   Iterates phi_n until false; by default one incremental solving
   session carries learned clauses and activities across bounds
   (--no-incremental re-encodes every phi_n from scratch).  When the
   iteration ends inconclusively the proven lower bound is reported.
   --bfs cross-checks against the explicit-state oracle (small models
   only). *)

open Cmdliner
module ST = Qbf_solver.Solver_types
module Obs = Qbf_obs.Obs
module Profile = Qbf_obs.Profile

let run model_name style max_n timeout bfs verbose profile_on
    incremental =
  (* Bad input exits 2 with a diagnostic — part of the documented
     exit-code contract, and raw exceptions must never escape to the
     cmdliner backstop (exit 125). *)
  let model =
    match
      if Filename.check_suffix model_name ".smv" then
        Qbf_models.Smv.parse_file model_name
      else Qbf_models.Families.by_name model_name
    with
    | model -> model
    | exception Qbf_models.Smv.Parse_error msg ->
        Printf.eprintf "qdiameter: %s: %s\n" model_name msg;
        exit 2
    | exception (Sys_error msg | Invalid_argument msg | Failure msg) ->
        Printf.eprintf "qdiameter: %s\n" msg;
        exit 2
  in
  let style =
    match style with
    | "po" -> Qbf_models.Diameter.Nonprenex
    | "to" -> Qbf_models.Diameter.Prenex
    | other ->
        Printf.eprintf "unknown style %S (use po or to)\n" other;
        exit 2
  in
  (* Amortized deadline plus a SIGINT/SIGTERM flag: interrupting a long
     iteration reports "not determined within budget" instead of dying. *)
  let deadline = Qbf_run.Limits.Deadline.after timeout in
  let interrupt = Qbf_run.Limits.Interrupt.create () in
  let _restore = Qbf_run.Limits.Interrupt.install interrupt in
  (* One collector across the whole phi_0..phi_d iteration: the profile
     aggregates the solver phases over every length tried. *)
  let obs =
    if profile_on then
      Some
        (Obs.make ~profile:(Profile.create ()) ())
    else None
  in
  let config =
    ST.(
      default_config
      |> with_heuristic
           (if style = Qbf_models.Diameter.Nonprenex then Partial_order
            else Total_order)
      |> with_should_stop
           (Some (fun () -> Qbf_run.Limits.Deadline.expired deadline))
      |> with_stop_flag (Some (Qbf_run.Limits.Interrupt.flag interrupt))
      |> with_stop_interval 64
      |> with_obs obs)
  in
  let t0 = Unix.gettimeofday () in
  let last = ref t0 in
  let on_bound (b : Qbf_models.Diameter.bound_stat) =
    if verbose then begin
      let now = Unix.gettimeofday () in
      Printf.printf "phi_%-3d %s  (%.3fs, %d vars, %d decisions%s)\n%!"
        b.Qbf_models.Diameter.bound
        (Printf.sprintf "%-5s"
           (Qbf_solver.Outcome.to_string b.Qbf_models.Diameter.outcome))
        (now -. !last) b.Qbf_models.Diameter.nvars
        b.Qbf_models.Diameter.stats.ST.decisions
        (if b.Qbf_models.Diameter.carried_clauses > 0 then
           Printf.sprintf ", %d carried"
             b.Qbf_models.Diameter.carried_clauses
         else "");
      last := now
    end
  in
  let mode = if incremental then `Incremental else `Rebuild in
  let report =
    Qbf_models.Diameter.compute_report ~config ~style ~max_n ~mode ~on_bound
      model
  in
  (match report.Qbf_models.Diameter.diameter with
  | Some d ->
      Printf.printf "%s: diameter %d (%.3fs)\n" model_name d
        (Unix.gettimeofday () -. t0)
  | None ->
      Printf.printf "%s: diameter >= %d (stopped: %s, %.3fs)\n" model_name
        report.Qbf_models.Diameter.lower_bound
        (Qbf_models.Diameter.string_of_stop
           report.Qbf_models.Diameter.stop)
        (Unix.gettimeofday () -. t0));
  (match obs with
  | Some o when o.Obs.profile_on ->
      let c name =
        Option.value ~default:0 (List.assoc_opt name (Obs.counters o))
      in
      Printf.printf "\nprofile (all lengths combined):\n%s"
        (Profile.render_table (Profile.snapshot o.Obs.profile));
      Printf.printf "decisions %d  propagations %d  conflicts %d  solutions %d\n"
        (c "decisions") (c "propagations") (c "conflicts") (c "solutions")
  | _ -> ());
  if bfs then
    match Qbf_models.Reach.diameter model with
    | d -> Printf.printf "%s: BFS oracle diameter %d\n" model_name d
    | exception Qbf_models.Reach.Too_large ->
        Printf.printf "%s: too large for the BFS oracle\n" model_name

let cmd =
  let doc = "state-space diameter through the paper's diameter QBFs" in
  let open Arg in
  Cmd.v
    (Cmd.info "qdiameter" ~doc)
    Term.(
      const run
      $ (required & pos 0 (some string) None & Arg.info [] ~docv:"MODEL")
      $ (value & opt string "po"
         & Arg.info [ "style" ] ~docv:"MODE"
             ~doc:
               "$(b,po): the non-prenex phi_n of eq. (14) under \
                partial-order branching, QuBE(PO); $(b,to): its prenex \
                form, eq. (16), under total-order branching, QuBE(TO).")
      $ (value & opt int 40 & Arg.info [ "max-n" ] ~docv:"N")
      $ (value & opt float 60. & Arg.info [ "timeout" ] ~docv:"S")
      $ (value & flag & Arg.info [ "bfs" ] ~doc:"Cross-check with explicit BFS.")
      $ (value & flag & Arg.info [ "verbose" ] ~doc:"Print each phi_n result.")
      $ (value & flag
         & Arg.info [ "profile" ]
             ~doc:"Report solver phase timings aggregated over all lengths.")
      $ (value
         & vflag true
             [
               ( true,
                 Arg.info [ "incremental" ]
                   ~doc:
                     "Carry learned clauses and heuristic state across \
                      bounds in one solving session (default)." );
               ( false,
                 Arg.info [ "no-incremental" ]
                   ~doc:"Re-encode and solve every phi_n from scratch." );
             ]))

let () = exit (Cmd.eval cmd)
