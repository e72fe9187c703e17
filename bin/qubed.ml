(* qubed: fault-tolerant batch solving service.

   Reads a JSONL batch (one job per line) from FILE or stdin and drives
   it through the supervised worker pool of Qbf_serve: forked workers
   under per-job limits, failure classification on every worker death,
   retry with jittered backoff and budget escalation, portfolio racing
   with first-answer-wins cancellation, and result memoization by
   canonical formula hash.  A worker that cannot be spawned is tried
   again on a later round; while none runs, waiting jobs fail their
   round as `spawn` failures and retry.

   Batch lines are either a bare instance path, or a JSON object:

     path/to/instance.qdimacs
     {"path": "f.qdimacs", "timeout_s": 5.0}
     {"inline": "p cnf 1 1\ne 1 0\n1 0\n", "max_nodes": 10000}

   Blank lines and lines starting with '#' are skipped.  Output is one
   JSON status line per job (in job order), carrying the outcome,
   timing, winning configuration, attempt/retry counts and per-class
   failure counts; --summary appends a batch-level record with every
   counter of the registry that --telemetry writes.

   --inject-faults P makes each worker crash, die by signal, hang, or
   emit garbage with probability P per dispatch — the supervisor's
   recovery machinery under test, not a simulation: the same classify/
   retry/cancel paths run in production.

   Exit code: 0 when every job was decided; 2 when the batch itself or
   any job's input was invalid; 3 when some job stayed unknown (budget,
   retry cap, interrupt); 4 on an internal error. *)

open Cmdliner
module Supervisor = Qbf_serve.Supervisor
module Protocol = Qbf_serve.Protocol
module Worker = Qbf_serve.Worker
module Run = Qbf_run.Run
module Limits = Qbf_run.Limits
module Obs = Qbf_obs.Obs
module Trace = Qbf_obs.Trace
module Json = Qbf_obs.Json

let batch_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "qubed: %s\n" msg;
      exit 2)
    fmt

(* ---------- batch parsing ------------------------------------------- *)

let job_of_line ~lineno ~id line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then None
  else if line.[0] <> '{' then Some (Protocol.job ~id (Run.Path line))
  else
    match Json.of_string_res line with
    | Error msg -> batch_error "batch line %d: %s" lineno msg
    | Ok j ->
        let source =
          match (Json.member_string "path" j, Json.member_string "inline" j) with
          | Some p, _ -> Run.Path p
          | None, Some text -> Run.Inline text
          | None, None ->
              batch_error "batch line %d: neither \"path\" nor \"inline\""
                lineno
        in
        Some
          (Protocol.job ~id
             ?timeout_s:(Json.member_float "timeout_s" j)
             ?mem_mb:(Json.member_int "mem_mb" j)
             ?max_nodes:(Json.member_int "max_nodes" j)
             source)

let read_batch = function
  | "-" ->
      let rec go acc =
        match input_line stdin with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go []
  | file -> (
      match open_in file with
      | exception Sys_error msg -> batch_error "%s" msg
      | ic ->
          let rec go acc =
            match input_line ic with
            | line -> go (line :: acc)
            | exception End_of_file ->
                close_in_noerr ic;
                List.rev acc
          in
          go [])

let parse_batch lines =
  let jobs = ref [] in
  let id = ref 0 in
  List.iteri
    (fun i line ->
      match job_of_line ~lineno:(i + 1) ~id:!id line with
      | Some j ->
          incr id;
          jobs := j :: !jobs
      | None -> ())
    lines;
  List.rev !jobs

(* ---------- main ----------------------------------------------------- *)

let run batch workers race_arg retries timeout mem_limit max_nodes grace hang
    faults no_cache seed trace_file trace_every summary telemetry_file
    telemetry_interval no_stats proof_dir =
  let race =
    String.split_on_char ',' race_arg
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  List.iter
    (fun label ->
      if Worker.config_of_label label = None then
        batch_error "unknown race configuration %S (available: %s)" label
          (String.concat ", " Worker.known_labels))
    race;
  if race = [] then batch_error "empty --race list";
  if workers < 1 then batch_error "--workers wants at least 1";
  if faults < 0.0 || faults > 1.0 then
    batch_error "--inject-faults wants a probability in [0,1]";
  let jobs = parse_batch (read_batch batch) in
  if jobs = [] then batch_error "empty batch";
  (match proof_dir with
  | Some dir -> (
      match (Unix.stat dir).Unix.st_kind with
      | Unix.S_DIR -> ()
      | _ -> batch_error "--proof-dir %s is not a directory" dir
      | exception Unix.Unix_error _ ->
          batch_error "--proof-dir %s does not exist" dir)
  | None -> ());
  (* Durability: the trace sink and stdout are flushed and closed on
     every exit path — normal, interrupt (the flag turns SIGINT/SIGTERM
     into an orderly drain), and uncaught exception (at_exit still
     runs).  Flushing twice is harmless; not flushing once loses the
     tail of the trace. *)
  let trace_oc = Option.map open_out trace_file in
  let trace =
    Option.map
      (fun oc ->
        Trace.create ~capacity:65536 ~every:(max 1 trace_every)
          ~sink:(fun line ->
            output_string oc line;
            output_char oc '\n')
          ())
      trace_oc
  in
  at_exit (fun () ->
      Option.iter Trace.flush trace;
      Option.iter
        (fun oc ->
          try
            flush oc;
            close_out_noerr oc
          with Sys_error _ -> ())
        trace_oc;
      try flush stdout with Sys_error _ -> ());
  let obs =
    match trace with Some tr -> Obs.make ~trace:tr () | None -> Obs.none
  in
  let interrupt = Limits.Interrupt.create () in
  let restore = Limits.Interrupt.install interrupt in
  let policy =
    {
      Supervisor.default_policy with
      Supervisor.workers;
      race;
      retries;
      timeout_s = timeout;
      mem_mb = mem_limit;
      max_nodes;
      grace_s = grace;
      hang_s = hang;
      fault_p = faults;
      cache = not no_cache;
      stats = not no_stats;
      proof_dir;
      seed;
    }
  in
  (* The supervisor counts into this registry either way, and --summary
     reads it; --telemetry only attaches a sink that rewrites FILE
     (JSON) and FILE.prom (Prometheus text) every interval from the
     supervisor loop — scrapeable while the batch runs — and once more,
     final and durable, on every exit path. *)
  let telemetry = Qbf_serve.Telemetry.create () in
  Option.iter
    (Qbf_serve.Telemetry.set_sink telemetry ~interval_s:telemetry_interval)
    telemetry_file;
  at_exit (fun () ->
      Option.iter
        (fun path ->
          try Qbf_serve.Telemetry.write_files telemetry path
          with Sys_error _ -> ())
        telemetry_file);
  let reports, batch_summary =
    match Supervisor.run ~policy ~obs ~interrupt ~telemetry jobs with
    | result -> result
    | exception e ->
        Printf.eprintf "qubed: internal error: %s\n" (Printexc.to_string e);
        exit 4
  in
  restore ();
  List.iter
    (fun r -> print_endline (Json.to_string (Supervisor.json_of_report r)))
    reports;
  if summary then
    print_endline (Json.to_string (Supervisor.json_of_summary batch_summary));
  flush stdout;
  let saw_input_error =
    List.exists
      (fun r -> List.mem_assoc "input" r.Supervisor.r_failures)
      reports
  in
  let saw_unknown =
    List.exists
      (fun r ->
        r.Supervisor.r_outcome = Qbf_solver.Solver_types.Unknown
        && not (List.mem_assoc "input" r.Supervisor.r_failures))
      reports
  in
  exit (if saw_input_error then 2 else if saw_unknown then 3 else 0)

(* ---------- cmdliner ------------------------------------------------- *)

let batch_arg =
  Arg.(value & pos 0 string "-"
    & info [] ~docv:"BATCH"
        ~doc:"JSONL batch file, or $(b,-) to read the batch from stdin.")

let workers_arg =
  Arg.(value & opt int 2
    & info [ "workers" ] ~docv:"N"
        ~doc:"Worker pool size, at least 1.  A worker that cannot be \
              spawned (no fork, or file descriptors or processes \
              exhausted) is tried again on a later round; while the \
              pool is empty, every job waiting for a worker fails that \
              round as a $(b,spawn) failure and is retried like any \
              transient failure.")

let race_arg =
  Arg.(value & opt string "po-watched,to-watched"
    & info [ "race" ] ~docv:"LABELS"
        ~doc:"Comma-separated portfolio configurations raced per \
              attempt; first conclusive answer wins and the losers are \
              cancelled.  Available: $(b,po-watched) (partial-order \
              branching, QuBE(PO)) and $(b,to-watched) (total-order \
              branching, QuBE(TO), with restarts and learned-database \
              reduction).")

let retries_arg =
  Arg.(value & opt int 6
    & info [ "retries" ] ~docv:"N"
        ~doc:"Retry rounds after the first, for transient failures \
              (crash, signal, OOM, hang, garbage, timeout, spawn).  \
              Input errors never retry.")

let timeout_arg =
  Arg.(value & opt (some float) None
    & info [ "timeout" ] ~docv:"S"
        ~doc:"Per-attempt wall-clock budget in seconds (doubled on \
              retry after a budget-shaped failure).")

let mem_limit_arg =
  Arg.(value & opt (some int) None
    & info [ "mem-limit" ] ~docv:"MB"
        ~doc:"Per-attempt major-heap cap in mebibytes, enforced inside \
              the worker by the GC-alarm memory guard.")

let max_nodes_arg =
  Arg.(value & opt (some int) None
    & info [ "max-nodes" ] ~docv:"N"
        ~doc:"Per-attempt search-leaf budget (escalated on retry like \
              the timeout).")

let grace_arg =
  Arg.(value & opt float 1.0
    & info [ "grace" ] ~docv:"S"
        ~doc:"Seconds between SIGTERM and SIGKILL when cancelling a \
              worker.")

let hang_arg =
  Arg.(value & opt float 2.0
    & info [ "hang" ] ~docv:"S"
        ~doc:"Heartbeat silence that declares a worker hung.  Workers \
              beat from inside the engine's budget poll every 0.25s.")

let faults_arg =
  Arg.(value & opt float 0.0
    & info [ "inject-faults" ] ~docv:"P"
        ~doc:"Per-dispatch probability that a worker deliberately \
              crashes, dies by signal, hangs, or emits garbage — \
              exercises the supervisor's real recovery paths.")

let no_cache_arg =
  Arg.(value & flag
    & info [ "no-cache" ]
        ~doc:"Disable result memoization by canonical formula hash.")

let seed_arg =
  Arg.(value & opt int 0
    & info [ "seed" ] ~docv:"N"
        ~doc:"Seed for fault injection and backoff jitter; a fixed seed \
              makes a fault-injected batch reproducible.")

let trace_arg =
  Arg.(value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Stream supervisor events (serve-spawn, serve-dispatch, \
              serve-result, serve-retry, serve-kill) to FILE as JSONL.")

let trace_every_arg =
  Arg.(value & opt int 1
    & info [ "trace-every" ] ~docv:"N"
        ~doc:"Record every N-th trace event only.")

let summary_arg =
  Arg.(value & flag
    & info [ "summary" ]
        ~doc:"Append a batch-level JSON record with every counter of \
              the registry $(b,--telemetry) writes (spawns, reaps by \
              class, dispatches, retries, per-class failures, cache \
              hits and misses, settled jobs).")

let telemetry_arg =
  Arg.(value & opt (some string) None
    & info [ "telemetry" ] ~docv:"FILE"
        ~doc:"Write service-level telemetry (lifecycle, latency and \
              queue-wait histograms, failure mix, cache rate, merged \
              engine metrics) to FILE as JSON and to FILE.prom as \
              Prometheus text, rewritten periodically while the batch \
              runs and finally on exit.  Summarize with $(b,qtop).")

let telemetry_interval_arg =
  Arg.(value & opt float 1.0
    & info [ "telemetry-interval" ] ~docv:"S"
        ~doc:"Seconds between periodic telemetry rewrites ($(b,0) \
              disables the periodic rewrite; the final write still \
              happens).")

let proof_dir_arg =
  Arg.(value & opt (some string) None
    & info [ "proof-dir" ] ~docv:"DIR"
        ~doc:"Ask every worker for a Q-resolution trace under DIR (one \
              file per job attempt) and spot-check each conclusive \
              answer's certificate with the independent checker before \
              accepting it; an answer whose certificate fails is \
              treated like a garbage frame and retried.  Verified \
              paths appear as $(b,proof) in the job reports.")

let no_stats_arg =
  Arg.(value & flag
    & info [ "no-worker-stats" ]
        ~doc:"Do not collect or ship per-worker engine metrics/profile \
              snapshots (lifecycle and latency telemetry still work; \
              merged engine series and per-attempt stats are absent).")

let cmd =
  let doc = "supervised fault-tolerant batch QBF solving" in
  Cmd.v
    (Cmd.info "qubed" ~doc)
    Term.(
      const run $ batch_arg $ workers_arg $ race_arg $ retries_arg
      $ timeout_arg $ mem_limit_arg $ max_nodes_arg $ grace_arg $ hang_arg
      $ faults_arg $ no_cache_arg $ seed_arg $ trace_arg $ trace_every_arg
      $ summary_arg $ telemetry_arg $ telemetry_interval_arg $ no_stats_arg
      $ proof_dir_arg)

let () = exit (Cmd.eval cmd)
