(* Service-level telemetry: the supervisor-side aggregator.

   Workers die — that is the design — so their in-process `lib/obs`
   registries die with them.  This module is where their statistics
   survive: the supervisor feeds every lifecycle event (spawn, reap by
   failure class, dispatch, retry, cache hit/miss, heartbeat) and every
   worker-shipped stats frame into one aggregator, which merges them
   into service-level series:

   - per-job latency and queue-wait log2 histograms;
   - retry and failure-class counters (classes from Qbf_run.Failure);
   - cache hit/miss counters;
   - worker lifecycle counters obeying the reconciliation invariant
       spawned = reaped_clean + reaped_crash + reaped_signal + reaped_oom
     (every spawned pid is accounted for by exactly one reap class);
   - merged engine metrics (backjump/decision-depth histograms, counter
     sums) and merged phase profiles across all worker attempts;
   - progress rate from heartbeat node deltas;
   - correlation ids (job id, attempt, pid) linking each aggregated
     attempt back to per-worker JSONL trace files.

   Exposition is dual-format: a JSON document (schema-versioned, the
   machine-readable artifact qtop and trace_stat consume) and
   Prometheus text (qubed_* metric families) for scrapeability.  A
   sink + interval can be attached so a long-lived service rewrites
   both files periodically from its select loop.

   Worker stats frames are cumulative snapshots of the same attempt, so
   the aggregator keeps only the latest per (job id, attempt) and merges
   them all at dump time — never incrementally, which would double
   count. *)

module Json = Qbf_obs.Json
module Metrics = Qbf_obs.Metrics
module Profile = Qbf_obs.Profile

let schema = "qubed-telemetry"
let schema_version = 1

(* ------------------------------------------------------------------ *)
(* Aggregator state                                                    *)

type t = {
  started_at : float;
  counters : (string, int ref) Hashtbl.t;
  latency_h : Metrics.hist; (* per-job wall time, ms *)
  queue_wait_h : Metrics.hist; (* dispatch delay from ready to worker, ms *)
  attempt_stats : (int * int, Protocol.stats * int) Hashtbl.t;
      (* (job id, attempt) -> latest stats frame + pid: cumulative
         snapshots, so only the newest per key counts *)
  mutable correlations : (int * int * int) list;
      (* (job id, attempt, pid), newest first *)
  mutable hb_nodes : int; (* nodes reported over all heartbeats *)
  mutable sink : string option; (* JSON path; Prometheus at path ^ ".prom" *)
  mutable interval_s : float;
  mutable last_write : float;
}

let create ?(now = Unix.gettimeofday ()) () =
  {
    started_at = now;
    counters = Hashtbl.create 32;
    latency_h = Metrics.hist_create ();
    queue_wait_h = Metrics.hist_create ();
    attempt_stats = Hashtbl.create 64;
    correlations = [];
    hb_nodes = 0;
    sink = None;
    interval_s = 1.0;
    last_write = now;
  }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.counters name r;
      r

let bump ?(by = 1) t name = counter t name := !(counter t name) + by
let get t name = match Hashtbl.find_opt t.counters name with
  | Some r -> !r
  | None -> 0

(* Touch the lifecycle families up front so a telemetry file from a
   quiet run still shows every reconciliation term (a missing counter
   and a zero counter must read the same). *)
let lifecycle_names =
  [ "workers_spawned"; "workers_reaped_clean"; "workers_reaped_crash";
    "workers_reaped_signal"; "workers_reaped_oom" ]

let init_families t =
  List.iter (fun n -> ignore (counter t n)) lifecycle_names;
  List.iter
    (fun n -> ignore (counter t n))
    [ "jobs_submitted"; "jobs_completed"; "jobs_failed"; "attempts_dispatched";
      "retries"; "cache_hits"; "cache_misses"; "heartbeats"; "stats_frames";
      "inline_solves" ];
  List.iter
    (fun label -> ignore (counter t ("failures_" ^ label)))
    Qbf_run.Failure.all_labels

(* ------------------------------------------------------------------ *)
(* Event hooks (called by the supervisor; plain arguments only, so this
   module never depends on Supervisor's types)                          *)

let on_spawn t ~pid:_ = bump t "workers_spawned"

(* [failure = None] is a clean exit; the classes mirror
   Failure.of_process_status so the reconciliation terms line up with
   the supervisor's own failure accounting. *)
let on_reap t ~pid:_ (failure : Qbf_run.Failure.t option) =
  let cls =
    match failure with
    | None -> "clean"
    | Some Qbf_run.Failure.Oom -> "oom"
    | Some (Qbf_run.Failure.Signalled _) -> "signal"
    | Some _ -> "crash"
  in
  bump t ("workers_reaped_" ^ cls)

let on_job_submitted t = bump t "jobs_submitted"

let on_dispatch t ~id ~attempt ~pid ~queued_s =
  bump t "attempts_dispatched";
  Metrics.hist_add t.queue_wait_h
    (int_of_float (Float.max 0. (queued_s *. 1000.)));
  t.correlations <- (id, attempt, pid) :: t.correlations

let on_retry t = bump t "retries"

let on_failure t (f : Qbf_run.Failure.t) =
  bump t ("failures_" ^ Qbf_run.Failure.to_string f)

let on_cache_hit t = bump t "cache_hits"
let on_cache_miss t = bump t "cache_misses"

let on_heartbeat t ~nodes =
  bump t "heartbeats";
  t.hb_nodes <- t.hb_nodes + nodes

let on_stats t ~pid (st : Protocol.stats) =
  bump t "stats_frames";
  Hashtbl.replace t.attempt_stats (st.Protocol.st_id, st.Protocol.st_attempt)
    (st, pid)

let on_inline_solve t = bump t "inline_solves"

(* A job settled: [ok] when it produced a report, latency from
   submission to settlement. *)
let on_job_done t ~ok ~latency_s =
  bump t (if ok then "jobs_completed" else "jobs_failed");
  Metrics.hist_add t.latency_h
    (int_of_float (Float.max 0. (latency_s *. 1000.)))

(* ------------------------------------------------------------------ *)
(* Merged views                                                        *)

let merged_engine t =
  Hashtbl.fold
    (fun _ (st, _pid) acc ->
      match st.Protocol.st_metrics with
      | None -> acc
      | Some m -> (
          match acc with
          | None -> Some m
          | Some acc -> Some (Metrics.merge_snapshot acc m)))
    t.attempt_stats None

let merged_profile t =
  Hashtbl.fold
    (fun _ (st, _pid) acc ->
      match st.Protocol.st_profile with
      | None -> acc
      | Some p -> (
          match acc with
          | None -> Some p
          | Some acc -> Some (Profile.merge_snapshot acc p)))
    t.attempt_stats None

(* ------------------------------------------------------------------ *)
(* JSON exposition                                                     *)

let sorted_counters t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let to_json ?(now = Unix.gettimeofday ()) t =
  let correlations =
    List.rev_map
      (fun (id, attempt, pid) ->
        Json.Obj
          [ ("id", Json.Int id); ("attempt", Json.Int attempt);
            ("pid", Json.Int pid) ])
      t.correlations
  in
  Json.Obj
    [
      ("schema", Json.String schema);
      ("v", Json.Int schema_version);
      ("uptime_s", Json.Float (now -. t.started_at));
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (sorted_counters t))
      );
      ("hb_nodes", Json.Int t.hb_nodes);
      ("latency_ms", Metrics.hist_to_json (Metrics.hist_snapshot t.latency_h));
      ( "queue_wait_ms",
        Metrics.hist_to_json (Metrics.hist_snapshot t.queue_wait_h) );
      ( "engine",
        match merged_engine t with
        | None -> Json.Null
        | Some m -> Metrics.snapshot_to_json m );
      ( "profile",
        match merged_profile t with
        | None -> Json.Null
        | Some p -> Profile.snapshot_to_json p );
      ("correlations", Json.List correlations);
    ]

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                               *)

let to_prometheus ?(now = Unix.gettimeofday ()) t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "# TYPE qubed_uptime_seconds gauge\nqubed_uptime_seconds %.3f\n"
       (now -. t.started_at));
  List.iter
    (fun (k, v) ->
      let name = "qubed_" ^ k ^ "_total" in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n%s %d\n" name name v))
    (sorted_counters t);
  Buffer.add_string buf
    (Printf.sprintf
       "# TYPE qubed_heartbeat_nodes_total counter\nqubed_heartbeat_nodes_total %d\n"
       t.hb_nodes);
  Metrics.prom_hist buf ~name:"qubed_job_latency_ms"
    (Metrics.hist_snapshot t.latency_h);
  Metrics.prom_hist buf ~name:"qubed_queue_wait_ms"
    (Metrics.hist_snapshot t.queue_wait_h);
  (match merged_engine t with
  | None -> ()
  | Some m ->
      Buffer.add_string buf (Metrics.snapshot_to_prometheus ~prefix:"qubed_engine_" m));
  (match merged_profile t with
  | None -> ()
  | Some p ->
      List.iter
        (fun sp ->
          let l = [ ("phase", sp.Profile.phase) ] in
          let add name v typ =
            Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name typ);
            Metrics.prom_sample buf ~name ~labels:l v
          in
          add "qubed_profile_calls_total" (float_of_int sp.Profile.calls) "counter";
          add "qubed_profile_wall_seconds_total" sp.Profile.wall_s "counter";
          add "qubed_profile_cpu_seconds_total" sp.Profile.cpu_s "counter")
        p);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* File sink                                                           *)

let write_file path text =
  (* write-then-rename so a scraper never reads a half-written file *)
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc text);
  Sys.rename tmp path

let write_files ?now t path =
  write_file path (Json.to_string (to_json ?now t) ^ "\n");
  write_file (path ^ ".prom") (to_prometheus ?now t)

let set_sink t ?(interval_s = 1.0) path =
  t.sink <- Some path;
  t.interval_s <- interval_s

(* Called from the supervisor's select loop: rewrite the sink files when
   the interval has elapsed.  Interval 0 disables periodic rewrite (the
   final write still happens via [write_files]). *)
let tick ?(now = Unix.gettimeofday ()) t =
  match t.sink with
  | Some path when t.interval_s > 0. && now -. t.last_write >= t.interval_s ->
      t.last_write <- now;
      write_files ~now t path
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Validation (qtop --check, CI smoke, tests)                          *)

let member_int k j = Option.bind (Json.member k j) Json.to_int_opt

let check_json j =
  let counter name =
    match Option.bind (Json.member "counters" j) (member_int name) with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "missing counter %S" name)
  in
  let ( let* ) = Result.bind in
  let* () =
    match (Json.member "schema" j, member_int "v" j) with
    | Some (Json.String s), Some v when s = schema && v = schema_version ->
        Ok ()
    | Some (Json.String s), Some v ->
        Error (Printf.sprintf "schema %s v%d, expected %s v%d" s v schema
                 schema_version)
    | _ -> Error "missing schema/v"
  in
  let* spawned = counter "workers_spawned" in
  let* clean = counter "workers_reaped_clean" in
  let* crash = counter "workers_reaped_crash" in
  let* signal = counter "workers_reaped_signal" in
  let* oom = counter "workers_reaped_oom" in
  let* () =
    if spawned = clean + crash + signal + oom then Ok ()
    else
      Error
        (Printf.sprintf
           "lifecycle does not reconcile: spawned %d <> clean %d + crash %d + \
            signal %d + oom %d"
           spawned clean crash signal oom)
  in
  let* submitted = counter "jobs_submitted" in
  let* completed = counter "jobs_completed" in
  let* failed = counter "jobs_failed" in
  let* () =
    if submitted = completed + failed then Ok ()
    else
      Error
        (Printf.sprintf "jobs do not reconcile: submitted %d <> done %d + failed %d"
           submitted completed failed)
  in
  (* the latency histogram must account for exactly the settled jobs *)
  let* () =
    match Json.member "latency_ms" j with
    | None -> Error "missing latency_ms histogram"
    | Some h -> (
        match Metrics.hist_of_json h with
        | Error m -> Error ("latency_ms: " ^ m)
        | Ok hs ->
            if hs.Metrics.count = completed + failed then Ok ()
            else
              Error
                (Printf.sprintf
                   "latency histogram count %d <> settled jobs %d"
                   hs.Metrics.count (completed + failed)))
  in
  Ok ()
