(* Worker side of the serving layer: the loop a forked child runs.

   A worker is long-lived — it keeps its process image (and with it the
   warmed allocator and minor heap) across the whole batch instead of
   paying a fork+init per job, per the incremental-QBF observation that
   solver state is worth keeping resident.  Per job it:

   1. reads one dispatch frame from its job pipe (blocking);
   2. optionally injects a fault (crash / signal-death / hang /
      garbage), drawn from a per-worker seeded RNG so fault runs are
      reproducible — this is how the supervisor's recovery paths get
      exercised in CI and the fuzzer;
   3. loads the instance with Qbf_run.Run.load_source and solves it
      with Run.solve under the job's limits, sending heartbeat frames
      from inside the engine's budget poll so the supervisor can tell
      "still searching" from "wedged";
   4. writes one result frame and loops.

   Workers never touch stdout/stderr (the supervisor owns them) and
   never raise across the loop: any escaped exception becomes a
   nonzero _exit the supervisor classifies as a crash. *)

module ST = Qbf_solver.Solver_types
module Run = Qbf_run.Run
module Limits = Qbf_run.Limits

(* ------------------------------------------------------------------ *)
(* Portfolio configurations, by wire label                             *)

(* The racing members are the paper's two branching orders, QuBE(PO)
   and QuBE(TO) — the complementary-strength variants the
   quantifier-structure study motivates.  [to-watched] also gets
   restarts and DB reduction (TO profits from them; PO's tree scores
   already diversify).  The labels keep the "-watched" suffix from
   when a second propagation engine could be raced: it is the wire
   name qubed's default [--race] and stored policies use. *)
let config_of_label label =
  let base = ST.default_config in
  match label with
  | "po-watched" -> Some ST.(base |> with_heuristic Partial_order)
  | "to-watched" ->
      Some
        ST.(
          base |> with_heuristic Total_order |> with_restarts true
          |> with_db_reduction true)
  | _ -> None

let known_labels = [ "po-watched"; "to-watched" ]

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)

type fault = Crash_exit | Crash_signal | Oom_kill | Hang | Emit_garbage

let crash_exit_code = 86
(* Recognisable in reports; anything nonzero classifies as Crash. *)

(* Draw a fault with probability [p] per dispatch.  The RNG is the
   worker's own (seeded at spawn), so a retry of the same job re-rolls
   the dice — that is what makes retries converge under injection. *)
let draw_fault rng p =
  if p <= 0. then None
  else if Random.State.float rng 1.0 >= p then None
  else
    Some
      (match Random.State.int rng 5 with
      | 0 -> Crash_exit
      | 1 -> Crash_signal
      | 2 -> Oom_kill
      | 3 -> Hang
      | _ -> Emit_garbage)

let perform_fault out = function
  | Crash_exit -> Unix._exit crash_exit_code
  | Crash_signal ->
      (* a segfault's signature without provoking a real one *)
      Unix.kill (Unix.getpid ()) Sys.sigsegv;
      Unix._exit crash_exit_code
  | Oom_kill ->
      Unix.kill (Unix.getpid ()) Sys.sigkill;
      Unix._exit crash_exit_code
  | Hang ->
      (* wedge silently: no heartbeats, no result, no exit — exactly
         what the supervisor's hang deadline exists for *)
      let rec loop () = Unix.sleepf 3600.; loop () in
      loop ()
  | Emit_garbage ->
      (* not a frame: no digit prefix, embedded newlines, then die *)
      let noise = "\xff\xfenot a frame at all\n{{{{\x00garbage\n" in
      (try ignore (Unix.write_substring out noise 0 (String.length noise))
       with Unix.Unix_error _ -> ());
      Unix._exit crash_exit_code

(* ------------------------------------------------------------------ *)
(* The loop                                                            *)

let heartbeat_interval_s = 0.25

(* Periodic stats frames are much rarer than heartbeats: a snapshot
   walks the whole metrics registry, so once a second is plenty for a
   "last known state" of a worker that later gets killed. *)
let stats_interval_s = 1.0

let answer_of_report ~id ~attempt (r : Run.report) =
  {
    Protocol.a_id = id;
    a_attempt = attempt;
    a_outcome = r.Run.outcome;
    a_time = r.Run.time;
    a_stopped = Option.map Run.string_of_stop_reason r.Run.stopped;
    a_decisions = r.Run.stats.ST.decisions;
    a_nodes = ST.nodes r.Run.stats;
    a_proof =
      (match r.Run.witness with
      | ST.Proof_trace { path; _ } -> Some path
      | ST.No_witness -> None);
    a_error = None;
  }

let solve_dispatch ~out ~stats (d : Protocol.dispatch) =
  let job = d.Protocol.d_job in
  let id = job.Protocol.id and attempt = d.Protocol.d_attempt in
  let config =
    match config_of_label d.Protocol.d_config with
    | Some c -> c
    | None -> ST.default_config
  in
  (* Every attempt gets a fresh collector, whose attached counters give
     the heartbeats their node counts.  With worker stats on it also
     carries the engine registry and the phase profile: snapshots of it
     ride the heartbeat path periodically and a final one precedes the
     answer frame, so the supervisor has per-attempt engine statistics
     even for a worker it later kills. *)
  let obs =
    if stats then
      Qbf_obs.Obs.make ~metrics:(Qbf_obs.Metrics.create ())
        ~profile:(Qbf_obs.Profile.create ()) ()
    else Qbf_obs.Obs.make ()
  in
  let live_nodes () =
    match Qbf_obs.Obs.counters obs with
    | [] -> 0
    | c -> List.assoc "conflicts" c + List.assoc "solutions" c
  in
  let send_stats () =
    if stats then
      Protocol.write_frame out
        (Protocol.json_of_stats
           {
             Protocol.st_id = id;
             st_attempt = attempt;
             st_metrics =
               Some
                 (Qbf_obs.Metrics.snapshot
                    ~counters:(Qbf_obs.Obs.counters obs)
                    obs.Qbf_obs.Obs.metrics);
             st_profile =
               Some (Qbf_obs.Profile.snapshot obs.Qbf_obs.Obs.profile);
           })
  in
  (* Heartbeats ride the engine's budget poll: every [stop_interval]
     budget checks the engine calls [should_stop], and we piggyback a
     cheap clock read; a beat goes out every [heartbeat_interval_s]
     carrying the nodes searched since the previous beat (progress
     rate, so the supervisor can tell slow from wedged).  The first
     beat is sent before the solve so even a long parse is covered. *)
  Protocol.write_frame out (Protocol.json_of_heartbeat ~id ~attempt ~nodes:0);
  let last_beat = ref (Unix.gettimeofday ()) in
  let last_stats = ref !last_beat in
  let beat_nodes = ref 0 in
  let beat () =
    let now = Unix.gettimeofday () in
    if now -. !last_beat >= heartbeat_interval_s then begin
      last_beat := now;
      let total = live_nodes () in
      let delta = total - !beat_nodes in
      beat_nodes := total;
      Protocol.write_frame out
        (Protocol.json_of_heartbeat ~id ~attempt ~nodes:delta);
      if stats && now -. !last_stats >= stats_interval_s then begin
        last_stats := now;
        send_stats ()
      end
    end;
    false
  in
  let config =
    ST.(config |> with_should_stop (Some beat) |> with_obs (Some obs))
  in
  let limits =
    Limits.make
      ?timeout_s:job.Protocol.timeout_s
      ?mem_mb:job.Protocol.mem_mb
      ?max_nodes:job.Protocol.max_nodes ~poll_interval:64 ()
  in
  let error_answer msg =
    {
      Protocol.a_id = id;
      a_attempt = attempt;
      a_outcome = ST.Unknown;
      a_time = 0.;
      a_stopped = None;
      a_decisions = 0;
      a_nodes = 0;
      a_proof = None;
      a_error = Some msg;
    }
  in
  let answer =
    match Run.load_source job.Protocol.source with
    | Error e -> error_answer (Qbf_run.Run_error.to_string e)
    | Ok f -> (
        (* [Sys_error] covers an unwritable proof path: the supervisor
           chose it, so report it as a job error rather than dying on
           it. *)
        match Run.solve ~limits ~config ?proof_file:d.Protocol.d_proof f with
        | report -> answer_of_report ~id ~attempt report
        | exception Sys_error msg -> error_answer msg)
  in
  (* final snapshot first, so a supervisor processing the answer frame
     already holds this attempt's complete statistics *)
  send_stats ();
  answer

(* Entry point of the forked child.  Never returns: exits 0 on a clean
   pipe close, [crash_exit_code + 1] on an escaped exception. *)
let main ~input ~output ?(stats = true) ~fault_p ~seed () =
  (* The child inherited the parent's handlers and buffers; reset what
     matters.  SIGTERM must terminate (it is the cancellation protocol);
     SIGPIPE must not kill us mid-diagnostic; SIGINT is the
     supervisor's business, a racing worker should only die when told
     to. *)
  Sys.set_signal Sys.sigterm Sys.Signal_default;
  Sys.set_signal Sys.sigint Sys.Signal_ignore;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let rng = Random.State.make [| seed |] in
  (* one decoder for the whole session: frames buffered behind the one
     being read must survive to the next [read_frame] *)
  let d = Protocol.decoder () in
  let rec loop () =
    match Protocol.read_frame ~d input with
    | Protocol.R_closed -> Unix._exit 0
    | Protocol.R_garbage _ | Protocol.R_truncated -> Unix._exit 0
    | Protocol.R_frame j -> (
        match Protocol.dispatch_of_json j with
        | Error _ -> Unix._exit 0
        | Ok d ->
            (match draw_fault rng fault_p with
            | Some f -> perform_fault output f
            | None -> ());
            let answer = solve_dispatch ~out:output ~stats d in
            (match
               Protocol.write_frame output (Protocol.json_of_answer answer)
             with
            | () -> ()
            | exception Unix.Unix_error _ ->
                (* supervisor went away or cancelled us; nothing to say *)
                Unix._exit 0);
            loop ())
  in
  try loop ()
  with _ -> Unix._exit (crash_exit_code + 1)
