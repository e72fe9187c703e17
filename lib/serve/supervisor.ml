(* The robustness core of the serving layer.

   The supervisor owns a pool of forked workers and drives a batch of
   jobs through them, surviving anything a worker can do: exit cleanly,
   time out, get OOM-killed, segfault, emit garbage instead of frames,
   or hang without a word.  Its contract is that every job always
   produces exactly one structured report — an outcome or an accounted
   failure — and that one bad worker never delays the others.

   Mechanisms, in the order they appear below:

   - every worker death is {e classified} ({!Qbf_run.Failure}): clean
     result / timeout / OOM signature / crash exit code / garbage or
     truncated stream / heartbeat silence past the hang deadline;
   - transient failures are {e retried} with jittered exponential
     backoff, and budget-shaped failures (timeout, node budget) retry
     with an escalated budget, up to a retry cap;
   - each attempt round {e races} the policy's portfolio configurations
     across free workers; the first conclusive answer wins and the
     losers are cancelled (SIGTERM, then SIGKILL after a grace period),
     per the quantifier-structure observation that no single branching
     order dominates;
   - results are {e memoized} by canonical formula hash, so duplicate
     instances in a batch — or re-submissions — answer from cache;
   - when [fork] is unavailable or the pool cannot be (re)populated,
     the supervisor {e degrades} to solving in-process, slower but
     never refusing the batch. *)

module ST = Qbf_solver.Solver_types
module Run = Qbf_run.Run
module Limits = Qbf_run.Limits
module Failure = Qbf_run.Failure
module Json = Qbf_obs.Json
module Trace = Qbf_obs.Trace

(* ------------------------------------------------------------------ *)
(* Policy                                                              *)

type policy = {
  workers : int; (* pool size; 0 forces in-process solving *)
  race : string list; (* config labels raced per attempt round *)
  retries : int; (* extra rounds after the first *)
  backoff_base_s : float;
  backoff_factor : float;
  backoff_max_s : float;
  jitter : float; (* fraction of the delay drawn uniformly at random *)
  grace_s : float; (* SIGTERM -> SIGKILL window *)
  hang_s : float; (* heartbeat silence that declares a hang *)
  timeout_s : float option; (* batch-default per-attempt budget *)
  mem_mb : int option;
  max_nodes : int option;
  escalate : float; (* budget multiplier after a budget-shaped failure *)
  fault_p : float; (* per-dispatch injected-fault probability *)
  cache : bool;
  stats : bool; (* workers collect + ship metrics/profile snapshots *)
  proof_dir : string option;
      (* when set, every dispatch asks its worker for a Q-resolution
         trace under this directory, and a conclusive answer's
         certificate is spot-checked before the job settles: a worker
         whose certificate fails the independent checker is treated
         exactly like one that emitted garbage *)
  seed : int; (* worker RNG + backoff jitter seed *)
}

let default_policy =
  {
    workers = 2;
    race = [ "po-watched"; "to-watched" ];
    retries = 6;
    backoff_base_s = 0.05;
    backoff_factor = 2.0;
    backoff_max_s = 2.0;
    jitter = 0.5;
    grace_s = 1.0;
    hang_s = 2.0;
    timeout_s = None;
    mem_mb = None;
    max_nodes = None;
    escalate = 2.0;
    fault_p = 0.0;
    cache = true;
    stats = true;
    proof_dir = None;
    seed = 0;
  }

(* ------------------------------------------------------------------ *)
(* Per-job reports                                                     *)

(* Per-attempt engine statistics, recovered from worker stats frames
   (or collected directly on the inline path) and kept in the
   telemetry registry.  Each attempt keeps its latest snapshot, so even
   a killed attempt's partial work survives into the job's report. *)
type attempt_stats = {
  as_attempt : int;
  as_pid : int; (* 0 on the inline path *)
  as_metrics : Qbf_obs.Metrics.snapshot option;
  as_profile : Qbf_obs.Profile.snapshot option;
}

type report = {
  r_id : int;
  r_label : string; (* path or "<inline>" *)
  r_outcome : ST.outcome;
  r_time : float; (* solve time of the winning attempt (0 if cached) *)
  r_wall : float; (* first-dispatch-to-answer wall time *)
  r_config : string; (* winning label, or "cache" / "inline" / "" *)
  r_attempts : int; (* dispatches sent for this job *)
  r_retries : int; (* rounds beyond the first *)
  r_failures : (string * int) list; (* failure-class counts, this job *)
  r_stopped : string option;
  r_error : string option;
  r_cached : bool;
  r_decisions : int;
  r_nodes : int;
  r_proof : string option;
      (* certificate path of the winning attempt, present only after it
         passed the supervisor's spot-check *)
  r_attempt_stats : attempt_stats list; (* ascending by attempt *)
}

let json_of_attempt_stats a =
  Json.Obj
    [
      ("attempt", Json.Int a.as_attempt);
      ("pid", Json.Int a.as_pid);
      ( "metrics",
        match a.as_metrics with
        | None -> Json.Null
        | Some m -> Qbf_obs.Metrics.snapshot_to_json m );
      ( "profile",
        match a.as_profile with
        | None -> Json.Null
        | Some p -> Qbf_obs.Profile.snapshot_to_json p );
    ]

let json_of_report r =
  Json.Obj
    [
      ("id", Json.Int r.r_id);
      ("instance", Json.String r.r_label);
      ("outcome", Json.String (Qbf_solver.Outcome.to_json_string r.r_outcome));
      ("time", Json.Float r.r_time);
      ("wall", Json.Float r.r_wall);
      ("config", Json.String r.r_config);
      ("attempts", Json.Int r.r_attempts);
      ("retries", Json.Int r.r_retries);
      ( "failures",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.r_failures) );
      ( "stopped",
        match r.r_stopped with None -> Json.Null | Some s -> Json.String s );
      ( "error",
        match r.r_error with None -> Json.Null | Some s -> Json.String s );
      ("cached", Json.Bool r.r_cached);
      ("decisions", Json.Int r.r_decisions);
      ("nodes", Json.Int r.r_nodes);
      ( "proof",
        match r.r_proof with None -> Json.Null | Some p -> Json.String p );
      ( "attempt_stats",
        Json.List (List.map json_of_attempt_stats r.r_attempt_stats) );
    ]

type summary = {
  s_wall : float;
  s_jobs : int;
  s_decided : int;
  s_unknown : int;
  s_errors : int;
  s_counters : (string * int) list;
}

let json_of_summary s =
  Json.Obj
    [
      ("type", Json.String "summary");
      ("wall", Json.Float s.s_wall);
      ("jobs", Json.Int s.s_jobs);
      ("decided", Json.Int s.s_decided);
      ("unknown", Json.Int s.s_unknown);
      ("errors", Json.Int s.s_errors);
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.s_counters) );
    ]

(* ------------------------------------------------------------------ *)
(* Job bookkeeping                                                     *)

type jstate =
  | Ready (* may dispatch queued labels now *)
  | Backoff of float (* blocked until this absolute time *)
  | Done

type jrec = {
  job : Protocol.job;
  mutable hash : string option; (* canonical hash, when cache is on *)
  mutable probed : bool; (* cache already consulted for this job *)
  mutable state : jstate;
  mutable round : int;
  mutable attempts : int;
  mutable outstanding : int; (* attempts racing right now *)
  mutable queue : string list; (* labels not yet dispatched this round *)
  mutable budget_mult : float;
  mutable round_escalates : bool; (* saw a budget-shaped failure *)
  mutable last_failure : Failure.t option;
  mutable failures : (string * int) list;
  mutable first_dispatch : float option;
  mutable ready_since : float; (* when the job last became dispatchable *)
  mutable result : report option;
}

(* The stop-reason string a worker reports, mapped back to a failure
   class (the worker saw Run.stop_reason; the wire carries its
   rendering). *)
let failure_of_stopped = function
  | "timeout" -> Failure.Timeout
  | "memory" -> Failure.Oom
  | _ -> Failure.Resource

(* ------------------------------------------------------------------ *)
(* The supervisor state                                                *)

type t = {
  policy : policy;
  obs : Qbf_obs.Obs.t;
  tel : Telemetry.t; (* every counter, histogram and attempt snapshot *)
  cache : Cache.t;
  rng : Random.State.t;
  jobs : jrec array;
  mutable pool : Pool.worker list;
  mutable spawn_seq : int; (* worker ordinal, for per-worker seeds *)
  mutable fork_broken : bool; (* spawn failed; stop trying *)
  interrupt : Limits.Interrupt.t option; (* batch-level Ctrl-C / SIGTERM *)
  on_report : report -> unit;
}

(* Account one failure of [j]: on the job's report and in the
   registry, so the two always agree. *)
let record_failure t j cls =
  j.last_failure <- Some cls;
  let key = Failure.to_string cls in
  let rec bump = function
    | [] -> [ (key, 1) ]
    | (k, v) :: rest when k = key -> (k, v + 1) :: rest
    | kv :: rest -> kv :: bump rest
  in
  j.failures <- bump j.failures;
  Telemetry.incr t.tel ("failures_" ^ key)

let interrupted t =
  match t.interrupt with
  | Some i -> Limits.Interrupt.triggered i
  | None -> false

let trace t kind ~dlevel ~plevel ~arg =
  if t.obs.Qbf_obs.Obs.trace_on then
    Trace.emit t.obs.Qbf_obs.Obs.trace kind ~dlevel ~plevel ~arg

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Spawning and despawning                                             *)

let spawn_worker t =
  if t.fork_broken then None
  else begin
    t.spawn_seq <- t.spawn_seq + 1;
    match
      Pool.spawn ~stats:t.policy.stats ~fault_p:t.policy.fault_p
        ~seed:(t.policy.seed + (7919 * t.spawn_seq))
        ()
    with
    | Ok w ->
        Telemetry.incr t.tel "spawns";
        trace t Trace.Serve_spawn ~dlevel:w.Pool.pid ~plevel:0 ~arg:0;
        t.pool <- t.pool @ [ w ];
        Some w
    | Error msg ->
        Telemetry.incr t.tel "spawn_failures";
        t.fork_broken <- true;
        trace t Trace.Serve_spawn ~dlevel:0 ~plevel:0 ~arg:(-1);
        ignore msg;
        None
  end

let fill_pool t =
  while
    (not t.fork_broken)
    && List.length t.pool < t.policy.workers
    && spawn_worker t <> None
  do
    ()
  done

let forget_worker t w =
  Pool.close_fds w;
  t.pool <- List.filter (fun x -> x != w) t.pool

(* ------------------------------------------------------------------ *)
(* Finishing jobs                                                      *)

(* The report is final here: it gets the latest snapshot of every
   attempt that shipped one. *)
let finish t j report =
  if j.state <> Done then begin
    let id = j.job.Protocol.id in
    let report =
      {
        report with
        r_attempt_stats =
          List.filter_map
            (fun attempt ->
              Option.map
                (fun (as_pid, as_metrics, as_profile) ->
                  { as_attempt = attempt; as_pid; as_metrics; as_profile })
                (Telemetry.attempt_stats t.tel ~id ~attempt))
            (List.init j.attempts succ);
      }
    in
    j.state <- Done;
    j.queue <- [];
    j.result <- Some report;
    Telemetry.on_job_done t.tel
      (match report.r_outcome with
      | ST.True | ST.False -> `Decided
      | ST.Unknown -> if report.r_error <> None then `Errored else `Unknown)
      ~latency_s:report.r_wall;
    trace t Trace.Serve_result ~dlevel:0 ~plevel:j.attempts ~arg:id;
    t.on_report report
  end

let wall_of j =
  match j.first_dispatch with None -> 0. | Some t0 -> now () -. t0

let base_report j =
  {
    r_id = j.job.Protocol.id;
    r_label = Run.source_label j.job.Protocol.source;
    r_outcome = ST.Unknown;
    r_time = 0.;
    r_wall = wall_of j;
    r_config = "";
    r_attempts = j.attempts;
    r_retries = j.round;
    r_failures = j.failures;
    r_stopped = None;
    r_error = None;
    r_cached = false;
    r_decisions = 0;
    r_nodes = 0;
    r_proof = None;
    r_attempt_stats = [];
  }

(* Cancel every worker still racing an attempt of [j] (it lost). *)
let cancel_siblings t j =
  List.iter
    (fun w ->
      match w.Pool.state with
      | Pool.Busy (d, _) when d.Protocol.d_job.Protocol.id = j.job.Protocol.id
        ->
          Telemetry.incr t.tel "cancelled_losers";
          trace t Trace.Serve_kill ~dlevel:w.Pool.pid ~plevel:d.Protocol.d_attempt
            ~arg:j.job.Protocol.id;
          Pool.terminate ~now:(now ()) ~grace_s:t.policy.grace_s w
      | _ -> ())
    t.pool

(* A conclusive answer: record, cache, cancel the losing racers, and
   resolve any identical still-pending duplicates straight from the
   cache (no point racing a formula whose answer just landed). *)
let rec settle t j (report : report) =
  finish t j report;
  cancel_siblings t j;
  if t.policy.cache && not report.r_cached then
    match j.hash with
    | None -> ()
    | Some h ->
        Cache.add t.cache h
          { Cache.outcome = report.r_outcome; solve_time = report.r_time };
        Array.iter
          (fun j' ->
            if j'.state <> Done && j'.hash = Some h then begin
              Telemetry.incr t.tel "cache_hits";
              settle t j'
                {
                  (base_report j') with
                  r_outcome = report.r_outcome;
                  r_config = "cache";
                  r_cached = true;
                  r_wall = wall_of j';
                }
            end)
          t.jobs

(* ------------------------------------------------------------------ *)
(* Retry policy                                                        *)

let give_up t j =
  let stopped =
    Option.map Failure.to_string j.last_failure
  in
  let error =
    match j.last_failure with
    | Some (Failure.Input m) -> Some m
    | Some cls ->
        Some
          (Printf.sprintf "gave up after %d attempts (last failure: %s)"
             j.attempts (Failure.to_string cls))
    | None -> Some "gave up with no attempt record"
  in
  finish t j { (base_report j) with r_stopped = stopped; r_error = error }

(* An attempt of [j] failed with [cls].  Either the round still has
   racers out, or we schedule a retry round (with backoff, and budget
   escalation if the failure was budget-shaped), or we give up. *)
let attempt_failed t j cls =
  if j.state <> Done then begin
    record_failure t j cls;
    if Failure.escalates_budget cls then j.round_escalates <- true;
    match cls with
    | Failure.Input _ ->
        (* permanent: retrying cannot fix the input *)
        give_up t j
    | _ ->
        if j.outstanding = 0 && j.queue = [] then
          if j.round >= t.policy.retries then give_up t j
          else begin
            j.round <- j.round + 1;
            Telemetry.incr t.tel "retries";
            if j.round_escalates then begin
              j.budget_mult <- j.budget_mult *. t.policy.escalate;
              Telemetry.incr t.tel "budget_escalations"
            end;
            j.round_escalates <- false;
            let p = t.policy in
            let base =
              p.backoff_base_s *. (p.backoff_factor ** float_of_int (j.round - 1))
            in
            let base = Float.min base p.backoff_max_s in
            let delay =
              base *. (1. +. (p.jitter *. Random.State.float t.rng 1.0))
            in
            j.queue <- p.race;
            j.state <- Backoff (now () +. delay);
            trace t Trace.Serve_retry ~dlevel:0 ~plevel:j.round
              ~arg:j.job.Protocol.id
          end
  end

let job_of t id = Array.find_opt (fun j -> j.job.Protocol.id = id) t.jobs

(* Attempt [d] ended without an answer: its job has one racer fewer,
   and the attempt failed with [cls]. *)
let attempt_lost t (d : Protocol.dispatch) cls =
  match job_of t d.Protocol.d_job.Protocol.id with
  | Some j ->
      if j.outstanding > 0 then j.outstanding <- j.outstanding - 1;
      attempt_failed t j cls
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Ingress: load, validate, hash                                       *)

(* Jobs are loaded once supervisor-side: an unreadable file or a parse
   error is a permanent Input failure that must not burn worker
   retries, and the loaded formula gives the cache key.  Workers
   re-load from the source themselves (cheaper than shipping the
   formula, and it keeps the wire format trivial). *)
let ingest t j =
  let src = j.job.Protocol.source in
  let loaded =
    match src with
    | Run.Path p -> Run.load p
    | Run.Inline text -> Run.load_string ~file:"<inline>" text
  in
  match loaded with
  | Error e ->
      record_failure t j (Failure.Input (Qbf_run.Run_error.to_string e));
      finish t j
        {
          (base_report j) with
          r_error = Some (Qbf_run.Run_error.to_string e);
        }
  | Ok f -> if t.policy.cache then j.hash <- Some (Hash.formula f)

(* One cache probe per job, at first dispatch (not ingress): entries
   only appear when a job settles, and settling already resolves its
   pending duplicates directly, so a single probe is complete. *)
let try_cache t j =
  t.policy.cache && not j.probed
  && begin
    j.probed <- true;
    match j.hash with
    | None -> false
    | Some h -> (
        match Cache.find t.cache h with
        | None ->
            Telemetry.incr t.tel "cache_misses";
            false
        | Some e ->
            Telemetry.incr t.tel "cache_hits";
            finish t j
              {
                (base_report j) with
                r_outcome = e.Cache.outcome;
                r_config = "cache";
                r_cached = true;
              };
            true)
  end

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)

let scaled_timeout j = function
  | None -> None
  | Some s -> Some (s *. j.budget_mult)

let scaled_nodes j = function
  | None -> None
  | Some n ->
      Some (int_of_float (Float.min (float_of_int n *. j.budget_mult) 1e15))

(* One certificate file per (job, attempt): attempts race and retry, so
   the path must never be shared between concurrent writers. *)
let proof_path_for t j =
  match t.policy.proof_dir with
  | None -> None
  | Some dir ->
      Some
        (Filename.concat dir
           (Printf.sprintf "job%d-a%d.qrp" j.job.Protocol.id (j.attempts + 1)))

let dispatch_for t j label =
  let d_proof = proof_path_for t j in
  j.attempts <- j.attempts + 1;
  let job = j.job in
  let p = t.policy in
  {
    Protocol.d_job =
      {
        job with
        Protocol.timeout_s =
          scaled_timeout j
            (match job.Protocol.timeout_s with
            | Some _ as s -> s
            | None -> p.timeout_s);
        mem_mb =
          (match job.Protocol.mem_mb with Some _ as m -> m | None -> p.mem_mb);
        max_nodes =
          scaled_nodes j
            (match job.Protocol.max_nodes with
            | Some _ as n -> n
            | None -> p.max_nodes);
      };
    d_config = label;
    d_attempt = j.attempts;
    d_proof;
  }

(* Hand one queued attempt to [w].  A write failure means the worker
   died between select rounds: put the label back and let the reaper
   deal with the corpse. *)
let dispatch_to t w j label =
  let d = dispatch_for t j label in
  match Protocol.write_frame w.Pool.to_worker (Protocol.json_of_dispatch d) with
  | () ->
      let ts = now () in
      if j.first_dispatch = None then j.first_dispatch <- Some ts;
      j.outstanding <- j.outstanding + 1;
      w.Pool.state <- Pool.Busy (d, ts);
      Telemetry.on_dispatch t.tel ~id:j.job.Protocol.id
        ~attempt:d.Protocol.d_attempt ~pid:w.Pool.pid
        ~queued_s:(ts -. j.ready_since);
      trace t Trace.Serve_dispatch ~dlevel:w.Pool.pid ~plevel:d.Protocol.d_attempt
        ~arg:j.job.Protocol.id;
      true
  | exception (Unix.Unix_error _ | Sys_error _) ->
      j.attempts <- j.attempts - 1;
      Telemetry.incr t.tel "dispatch_write_failures";
      Pool.terminate ~now:(now ()) ~grace_s:t.policy.grace_s w;
      false

(* Release backoffs that have matured, then pair ready labels with idle
   workers, jobs in submission order. *)
let schedule t =
  let ts = now () in
  Array.iter
    (fun j ->
      match j.state with
      | Backoff until when ts >= until ->
          j.state <- Ready;
          j.ready_since <- ts
      | _ -> ())
    t.jobs;
  let idle () =
    List.find_opt (fun w -> w.Pool.state = Pool.Idle) t.pool
  in
  Array.iter
    (fun j ->
      if j.state = Ready && j.queue <> [] then
        if try_cache t j then ()
        else
          let rec drain () =
            match (j.queue, idle ()) with
            | label :: rest, Some w ->
                j.queue <- rest;
                ignore (dispatch_to t w j label : bool);
                drain ()
            | _ -> ()
          in
          drain ())
    t.jobs

(* ------------------------------------------------------------------ *)
(* Worker input handling                                               *)

(* Spot-check a conclusive answer's certificate with the independent
   checker, against a formula the supervisor re-loads itself (worker
   state is never trusted).  [Ok None] means no certificate was demanded
   or the worker legitimately produced none (an incomplete trace reports
   [No_witness], not a fake); [Ok (Some path)] is a verified
   certificate; [Error] means the file exists but fails to prove the
   claimed outcome — the answer is as untrustworthy as a garbage
   frame. *)
let verify_certificate t j ~outcome proof =
  match (t.policy.proof_dir, proof) with
  | None, _ -> Ok None
  | Some _, None ->
      Telemetry.incr t.tel "unwitnessed_answers";
      Ok None
  | Some _, Some path -> (
      let formula =
        match j.job.Protocol.source with
        | Run.Path p -> Run.load p
        | Run.Inline text -> Run.load_string ~file:"<inline>" text
      in
      match formula with
      | Error _ -> Ok None (* ingest already vetted the source *)
      | Ok f -> (
          match Qbf_check.Checker.check_file ~formula:f path with
          | Ok v
            when List.mem (outcome = ST.True) v.Qbf_check.Checker.conclusions
            ->
              Telemetry.incr t.tel "proofs_checked";
              Ok (Some path)
          | Ok _ -> Error "certificate concludes the wrong outcome"
          | Error fl ->
              Error
                (Printf.sprintf "certificate line %d: %s"
                   fl.Qbf_check.Checker.line fl.Qbf_check.Checker.msg)
          | exception Sys_error msg -> Error msg))

(* An answer frame from [w].  Only an answer matching the worker's
   current assignment counts: anything else is a stale frame from a
   cancelled attempt racing its SIGTERM, and is dropped.  Conclusive ->
   settle the job.  Unknown -> that attempt failed (timeout / budget /
   memory, per its stop reason); the worker survives either way and
   returns to the pool. *)
let handle_answer t w (a : Protocol.answer) =
  match w.Pool.state with
  | Pool.Busy (d, _)
    when d.Protocol.d_job.Protocol.id = a.Protocol.a_id
         && d.Protocol.d_attempt = a.Protocol.a_attempt -> (
      let label = d.Protocol.d_config in
      w.Pool.state <- Pool.Idle;
      match job_of t a.Protocol.a_id with
      | None -> Telemetry.incr t.tel "orphan_answers"
      | Some j ->
          if j.state <> Done then begin
            if j.outstanding > 0 then j.outstanding <- j.outstanding - 1;
            match (a.Protocol.a_error, a.Protocol.a_outcome) with
            | Some msg, _ -> attempt_failed t j (Failure.Input msg)
            | None, (ST.True | ST.False) -> (
                match
                  verify_certificate t j ~outcome:a.Protocol.a_outcome
                    a.Protocol.a_proof
                with
                | Error _ ->
                    Telemetry.incr t.tel "proofs_rejected";
                    attempt_failed t j Failure.Garbage
                | Ok r_proof ->
                    settle t j
                      {
                        (base_report j) with
                        r_outcome = a.Protocol.a_outcome;
                        r_time = a.Protocol.a_time;
                        r_config = label;
                        r_stopped = a.Protocol.a_stopped;
                        r_decisions = a.Protocol.a_decisions;
                        r_nodes = a.Protocol.a_nodes;
                        r_proof;
                      })
            | None, ST.Unknown ->
                let cls =
                  match a.Protocol.a_stopped with
                  | Some s -> failure_of_stopped s
                  | None -> Failure.Resource
                in
                attempt_failed t j cls
          end)
  | _ -> Telemetry.incr t.tel "stale_answers"

(* Garbage on a worker's stream: classify, poison the worker. *)
let handle_garbage t w _msg =
  Telemetry.incr t.tel "garbage_frames";
  (match w.Pool.state with
  | Pool.Busy (d, _) -> attempt_lost t d Failure.Garbage
  | _ -> ());
  trace t Trace.Serve_kill ~dlevel:w.Pool.pid ~plevel:0 ~arg:(-1);
  Pool.terminate ~now:(now ()) ~grace_s:t.policy.grace_s w

let read_chunk = Bytes.create 65536

(* Drain one readable fd: feed the decoder, pull frames.  EOF is only
   noted — the death itself is classified by the reaper, which sees the
   exit status. *)
let drain_worker t w =
  match Unix.read w.Pool.from_worker read_chunk 0 (Bytes.length read_chunk) with
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
    ->
      ()
  | exception Unix.Unix_error _ -> w.Pool.eof <- true
  | 0 -> w.Pool.eof <- true
  | n ->
      Protocol.feed w.Pool.decoder read_chunk n;
      let rec pull () =
        match Protocol.next w.Pool.decoder with
        | Protocol.More -> ()
        | Protocol.Garbage msg -> handle_garbage t w msg
        | Protocol.Frame json -> (
            match Protocol.worker_msg_of_json json with
            | Error msg -> handle_garbage t w msg
            | Ok (Protocol.Msg_heartbeat { hb_id; hb_attempt; hb_nodes }) ->
                (match w.Pool.state with
                | Pool.Busy (d, _)
                  when d.Protocol.d_job.Protocol.id = hb_id
                       && d.Protocol.d_attempt = hb_attempt ->
                    w.Pool.state <- Pool.Busy (d, now ());
                    Telemetry.on_heartbeat t.tel ~nodes:hb_nodes
                | _ -> ());
                pull ()
            | Ok (Protocol.Msg_stats st) ->
                (* Accept snapshots from the current assignment AND from
                   a cancelled one: a race loser's last snapshot is
                   precisely the data a killed worker leaves behind. *)
                let matches (d : Protocol.dispatch) =
                  d.Protocol.d_job.Protocol.id = st.Protocol.st_id
                  && d.Protocol.d_attempt = st.Protocol.st_attempt
                in
                let current =
                  match w.Pool.state with
                  | Pool.Busy (d, _) -> matches d
                  | _ -> false
                in
                let cancelled =
                  match w.Pool.cancelled with
                  | Some d -> matches d
                  | None -> false
                in
                if current || cancelled then
                  Telemetry.on_stats t.tel ~id:st.Protocol.st_id
                    ~attempt:st.Protocol.st_attempt ~pid:w.Pool.pid
                    st.Protocol.st_metrics st.Protocol.st_profile
                else Telemetry.incr t.tel "stale_stats";
                pull ()
            | Ok (Protocol.Msg_answer a) ->
                handle_answer t w a;
                pull ())
      in
      pull ()

(* ------------------------------------------------------------------ *)
(* Death, hangs, and the reaper                                        *)

let dying w = match w.Pool.state with Pool.Dying _ -> true | _ -> false

(* A worker died.  If it still owed us an answer, classify the death
   from the exit status (a 0 exit with no answer is a truncated
   stream).  Cancelled workers owe nothing. *)
let worker_died t w status =
  Telemetry.on_reap t.tel ~dying:(dying w) status;
  (match w.Pool.state with
  | Pool.Busy (d, _) ->
      attempt_lost t d
        (Option.value ~default:Failure.Truncated
           (Failure.of_process_status status))
  | Pool.Dying _ | Pool.Idle -> ());
  forget_worker t w

let check_hangs t =
  let ts = now () in
  List.iter
    (fun w ->
      match w.Pool.state with
      | Pool.Busy (d, last_beat) when ts -. last_beat > t.policy.hang_s -> (
          Telemetry.incr t.tel "hangs_detected";
          trace t Trace.Serve_kill ~dlevel:w.Pool.pid
            ~plevel:d.Protocol.d_attempt ~arg:d.Protocol.d_job.Protocol.id;
          attempt_lost t d Failure.Hang;
          Pool.terminate ~now:ts ~grace_s:t.policy.grace_s w)
      | _ -> ())
    t.pool

let reap_and_respawn t ~respawn =
  let ts = now () in
  List.iter
    (fun w ->
      if Pool.overdue ~now:ts w then begin
        Telemetry.incr t.tel "sigkills";
        Pool.kill_now w
      end)
    t.pool;
  List.iter
    (fun w ->
      match Pool.try_reap w with
      | Some status -> worker_died t w status
      | None ->
          (* not reapable yet: keep waiting; the SIGKILL above
             guarantees eventual progress for Dying workers *)
          ())
    t.pool;
  if respawn then fill_pool t

(* ------------------------------------------------------------------ *)
(* In-process fallback                                                 *)

(* No pool (workers = 0, or fork is refusing): solve inline, one job at
   a time, under the same budgets.  No racing, retries or crash
   isolation, but the batch still completes, which is the point.  A
   conclusive answer passes the same certificate check as a worker's;
   an Unknown finishes its own job only, since only a conclusive answer
   may be shared with duplicates. *)
let solve_inline t j =
  if j.state <> Done && not (try_cache t j) then begin
    Telemetry.incr t.tel "inline_solves";
    let ts = now () in
    j.first_dispatch <- Some ts;
    (* named before the attempt counts, as [dispatch_for] names it *)
    let proof_file = proof_path_for t j in
    j.attempts <- j.attempts + 1;
    let config =
      match Worker.config_of_label (List.nth_opt t.policy.race 0 |> Option.value ~default:"po-watched") with
      | Some c -> c
      | None -> ST.default_config
    in
    (* same per-attempt collector a worker would have; pid 0 marks the
       inline path in attempt stats and correlations *)
    let inline_obs =
      if t.policy.stats then
        Some
          (Qbf_obs.Obs.make ~metrics:(Qbf_obs.Metrics.create ())
             ~profile:(Qbf_obs.Profile.create ()) ())
      else None
    in
    let config = ST.with_obs inline_obs config in
    let p = t.policy in
    let job = j.job in
    let limits =
      Limits.make
        ?timeout_s:
          (match job.Protocol.timeout_s with Some _ as s -> s | None -> p.timeout_s)
        ?mem_mb:(match job.Protocol.mem_mb with Some _ as m -> m | None -> p.mem_mb)
        ?max_nodes:
          (match job.Protocol.max_nodes with Some _ as n -> n | None -> p.max_nodes)
        ~poll_interval:64 ()
    in
    match
      match
        Run.solve_source ~limits ?interrupt:t.interrupt ~config ?proof_file
          job.Protocol.source
      with
      | r -> r
      | exception Sys_error msg ->
          Error
            (Qbf_run.Run_error.Io
               { file = Option.value ~default:"" proof_file; msg })
    with
    | Error e ->
        record_failure t j (Failure.Input (Qbf_run.Run_error.to_string e));
        finish t j
          {
            (base_report j) with
            r_error = Some (Qbf_run.Run_error.to_string e);
          }
    | Ok r -> (
        Option.iter
          (fun reason -> record_failure t j (Failure.of_stop_reason reason))
          r.Run.stopped;
        if inline_obs <> None then
          Telemetry.on_stats t.tel ~id:j.job.Protocol.id ~attempt:j.attempts
            ~pid:0 r.Run.metrics r.Run.profile;
        let report =
          {
            (base_report j) with
            r_outcome = r.Run.outcome;
            r_time = r.Run.time;
            r_config = "inline";
            r_stopped = Option.map Run.string_of_stop_reason r.Run.stopped;
            r_decisions = r.Run.stats.ST.decisions;
            r_nodes = ST.nodes r.Run.stats;
          }
        in
        match r.Run.outcome with
        | ST.Unknown -> finish t j report
        | ST.True | ST.False -> (
            let proof =
              match r.Run.witness with
              | ST.Proof_trace { path; _ } -> Some path
              | ST.No_witness -> None
            in
            match verify_certificate t j ~outcome:r.Run.outcome proof with
            | Error _ ->
                Telemetry.incr t.tel "proofs_rejected";
                record_failure t j Failure.Garbage;
                give_up t j
            | Ok r_proof -> settle t j { report with r_proof }))
  end

(* ------------------------------------------------------------------ *)
(* Shutdown                                                            *)

let shutdown t =
  (* Idle workers exit on job-pipe EOF; busy ones get the cancellation
     protocol.  Everything is reaped before we return: no zombies, no
     orphans writing into closed pipes. *)
  let ts = now () in
  List.iter
    (fun w ->
      match w.Pool.state with
      | Pool.Idle -> Pool.close_jobs w
      | Pool.Busy _ -> Pool.terminate ~now:ts ~grace_s:t.policy.grace_s w
      | Pool.Dying _ -> ())
    t.pool;
  let deadline = now () +. t.policy.grace_s +. 1.0 in
  let rec wait () =
    t.pool <-
      List.filter
        (fun w ->
          match Pool.try_reap w with
          | Some status ->
              Telemetry.on_reap t.tel ~dying:(dying w) status;
              Pool.close_fds w;
              false
          | None -> true)
        t.pool;
    if t.pool <> [] then
      if now () > deadline then begin
        List.iter
          (fun w ->
            Pool.kill_now w;
            Telemetry.on_reap t.tel ~dying:true (Pool.reap w);
            Pool.close_fds w)
          t.pool;
        t.pool <- []
      end
      else begin
        Unix.sleepf 0.01;
        wait ()
      end
  in
  wait ()

(* ------------------------------------------------------------------ *)
(* The main loop                                                       *)

let all_done t = Array.for_all (fun j -> j.state = Done) t.jobs

(* Next time anything is due: a backoff release, a hang deadline, a
   SIGKILL deadline.  Bounded so a lost wakeup costs at most a beat. *)
let select_timeout t =
  let ts = now () in
  let due = ref 0.25 in
  let consider at = if at -. ts < !due then due := Float.max 0.001 (at -. ts) in
  Array.iter
    (fun j -> match j.state with Backoff at -> consider at | _ -> ())
    t.jobs;
  List.iter
    (fun w ->
      match w.Pool.state with
      | Pool.Busy (_, last_beat) -> consider (last_beat +. t.policy.hang_s)
      | Pool.Dying at -> consider at
      | Pool.Idle -> ())
    t.pool;
  !due

(* An interrupted batch still reports every job: the undone ones get a
   structured "interrupted" record, so downstream accounting never sees
   a hole. *)
let abandon_unfinished t =
  Array.iter
    (fun j ->
      if j.state <> Done then
        finish t j
          {
            (base_report j) with
            r_stopped = Some "interrupted";
            r_error = Some "batch interrupted";
          })
    t.jobs

let run_pooled t =
  fill_pool t;
  while not (all_done t) && not (interrupted t) do
    if t.pool = [] && t.fork_broken then
      (* degraded mode: no processes to be had *)
      Array.iter (fun j -> solve_inline t j) t.jobs
    else begin
      schedule t;
      let fds =
        List.filter_map
          (fun w -> if w.Pool.eof then None else Some w.Pool.from_worker)
          t.pool
      in
      (match Unix.select fds [] [] (select_timeout t) with
      | readable, _, _ ->
          List.iter
            (fun w ->
              if List.memq w.Pool.from_worker readable then drain_worker t w)
            t.pool
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      check_hangs t;
      reap_and_respawn t ~respawn:(not (all_done t));
      Telemetry.tick t.tel
    end
  done;
  abandon_unfinished t;
  shutdown t

(* [telemetry] is the registry the batch counts into; a fresh one when
   not given.  Pass one to attach a file sink or to read it later: the
   summary's counts are its totals, so one registry serves one batch. *)
let run ?(policy = default_policy) ?(obs = Qbf_obs.Obs.none) ?interrupt
    ?(telemetry = Telemetry.create ()) ?on_report jobs =
  let t0 = now () in
  (* A worker can die between select and our write to it; the EPIPE is
     handled, the signal must not kill us. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let t =
    {
      policy;
      obs;
      tel = telemetry;
      cache = Cache.create ();
      rng = Random.State.make [| policy.seed; 0x5e12e |];
      jobs =
        Array.of_list
          (List.map
             (fun job ->
               {
                 job;
                 hash = None;
                 probed = false;
                 state = Ready;
                 round = 0;
                 attempts = 0;
                 outstanding = 0;
                 queue = policy.race;
                 budget_mult = 1.0;
                 round_escalates = false;
                 last_failure = None;
                 failures = [];
                 first_dispatch = None;
                 ready_since = t0;
                 result = None;
               })
             jobs);
      pool = [];
      spawn_seq = 0;
      fork_broken = policy.workers <= 0;
      interrupt;
      on_report =
        (match on_report with Some f -> f | None -> fun _ -> ());
    }
  in
  Array.iter
    (fun j ->
      Telemetry.incr t.tel "jobs_submitted";
      ingest t j)
    t.jobs;
  if t.fork_broken then begin
    Array.iter (fun j -> if not (interrupted t) then solve_inline t j) t.jobs;
    abandon_unfinished t
  end
  else run_pooled t;
  let out =
    Array.to_list t.jobs
    |> List.filter_map (fun j -> j.result)
    |> List.sort (fun a b -> compare a.r_id b.r_id)
  in
  let count = Telemetry.get t.tel in
  let summary =
    {
      s_wall = now () -. t0;
      s_jobs = List.length out;
      s_decided = count "jobs_decided";
      s_unknown = count "jobs_unknown";
      s_errors = count "jobs_errored";
      s_counters = Telemetry.counters t.tel;
    }
  in
  (out, summary)
