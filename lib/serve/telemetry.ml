(* Service-level telemetry: the supervisor's one registry.

   Workers die — that is the design — so their in-process `lib/obs`
   registries die with them.  This module is where their statistics
   survive, and where the supervisor counts its own events: every
   lifecycle event (spawn, reap, dispatch, retry, cache probe,
   heartbeat, settled job, failure class) has one named cell here, and
   the batch summary, the JSON document and the Prometheus text all
   read the same cells.  It keeps:

   - counters, whose worker-lifecycle terms obey
       spawns = reaped_clean + reaped_crash + reaped_signal
                + reaped_oom + reaped_terminated
     (every spawned pid is accounted for by exactly one reap class) and
     whose job terms obey submitted = decided + unknown + errored;
   - per-job latency and queue-wait log2 histograms;
   - the latest engine-metrics and phase-profile snapshot of every
     attempt, merged into service-level series at dump time;
   - progress from heartbeat node deltas;
   - correlation ids (job id, attempt, pid) linking each aggregated
     attempt back to per-worker JSONL trace files.

   Exposition is dual-format: a JSON document (schema-versioned, the
   machine-readable artifact qtop and trace_stat consume) and
   Prometheus text (qubed_* metric families) for scrapeability.  A
   sink + interval can be attached so a long-lived service rewrites
   both files periodically from its select loop. *)

module Json = Qbf_obs.Json
module Metrics = Qbf_obs.Metrics
module Profile = Qbf_obs.Profile
module Failure = Qbf_run.Failure

let schema = "qubed-telemetry"
let schema_version = 2

(* ------------------------------------------------------------------ *)
(* Registry state                                                      *)

type t = {
  started_at : float;
  counters : (string, int ref) Hashtbl.t;
  latency_h : Metrics.hist; (* per-job wall time, ms *)
  queue_wait_h : Metrics.hist; (* dispatch delay from ready to worker, ms *)
  attempts :
    (int * int, int * Metrics.snapshot option * Profile.snapshot option)
    Hashtbl.t;
      (* (job id, attempt) -> pid and latest snapshots: worker stats
         frames are cumulative, so only the newest per key counts *)
  mutable correlations : (int * int * int) list;
      (* (job id, attempt, pid), newest first *)
  mutable hb_nodes : int; (* nodes reported over all heartbeats *)
  mutable sink : string option; (* JSON path; Prometheus at path ^ ".prom" *)
  mutable interval_s : float;
  mutable last_write : float;
}

(* Present from the start, so a quiet run still shows every
   reconciliation term (a missing counter and a zero counter must read
   the same); other counters appear on their first event. *)
let families =
  [ "spawns"; "dispatches"; "retries"; "cache_hits"; "cache_misses";
    "inline_solves"; "heartbeats"; "stats_frames"; "jobs_submitted";
    "jobs_decided"; "jobs_unknown"; "jobs_errored" ]
  @ List.map (( ^ ) "workers_reaped_")
      [ "clean"; "crash"; "signal"; "oom"; "terminated" ]
  @ List.map (( ^ ) "failures_") Failure.all_labels

let create ?(now = Unix.gettimeofday ()) () =
  let counters = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace counters n (ref 0)) families;
  {
    started_at = now;
    counters;
    latency_h = Metrics.hist_create ();
    queue_wait_h = Metrics.hist_create ();
    attempts = Hashtbl.create 64;
    correlations = [];
    hb_nodes = 0;
    sink = None;
    interval_s = 1.0;
    last_write = now;
  }

let incr t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + 1
  | None -> Hashtbl.add t.counters name (ref 1)

let get t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

(* Every counter, sorted by name. *)
let counters t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ------------------------------------------------------------------ *)
(* Events that carry more than a count (plain arguments only, so this
   module never depends on Supervisor's types)                          *)

let ms s = int_of_float (Float.max 0. (s *. 1000.))

let on_dispatch t ~id ~attempt ~pid ~queued_s =
  incr t "dispatches";
  Metrics.hist_add t.queue_wait_h (ms queued_s);
  t.correlations <- (id, attempt, pid) :: t.correlations

(* [dying]: the supervisor had signalled this worker (a race loser, a
   hang or garbage victim, shutdown), so its own SIGTERM or SIGKILL is
   a termination, not a crash or an OOM kill.  The other classes
   mirror Failure.of_process_status. *)
let on_reap t ~dying status =
  let cls =
    match (status, Failure.of_process_status status) with
    | Unix.WSIGNALED s, _ when dying && (s = Sys.sigterm || s = Sys.sigkill) ->
        "terminated"
    | _, None -> "clean"
    | _, Some Failure.Oom -> "oom"
    | _, Some (Failure.Signalled _) -> "signal"
    | _, Some _ -> "crash"
  in
  incr t ("workers_reaped_" ^ cls)

let on_heartbeat t ~nodes =
  incr t "heartbeats";
  t.hb_nodes <- t.hb_nodes + nodes

(* The latest snapshots of one attempt: a worker's stats frame, or the
   in-process solve's own collector (pid 0). *)
let on_stats t ~id ~attempt ~pid metrics profile =
  incr t "stats_frames";
  Hashtbl.replace t.attempts (id, attempt) (pid, metrics, profile)

let attempt_stats t ~id ~attempt = Hashtbl.find_opt t.attempts (id, attempt)

(* A job settled as [`Decided], [`Unknown] or [`Errored], [latency_s]
   after its first dispatch. *)
let on_job_done t settled ~latency_s =
  incr t
    (match settled with
    | `Decided -> "jobs_decided"
    | `Unknown -> "jobs_unknown"
    | `Errored -> "jobs_errored");
  Metrics.hist_add t.latency_h (ms latency_s)

(* ------------------------------------------------------------------ *)
(* Merged views                                                        *)

let merged pick merge t =
  Hashtbl.fold
    (fun _ a acc ->
      match (pick a, acc) with
      | None, acc -> acc
      | Some s, None -> Some s
      | Some s, Some acc -> Some (merge acc s))
    t.attempts None

let merged_engine = merged (fun (_, m, _) -> m) Metrics.merge_snapshot
let merged_profile = merged (fun (_, _, p) -> p) Profile.merge_snapshot

(* ------------------------------------------------------------------ *)
(* JSON exposition                                                     *)

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
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters t)) );
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
  Metrics.prom_family buf ~name:"qubed_uptime_seconds" ~typ:"gauge"
    [ ([], now -. t.started_at) ];
  List.iter
    (fun (k, v) ->
      Metrics.prom_family buf ~name:("qubed_" ^ k ^ "_total") ~typ:"counter"
        [ ([], float_of_int v) ])
    (counters t);
  Metrics.prom_family buf ~name:"qubed_heartbeat_nodes_total" ~typ:"counter"
    [ ([], float_of_int t.hb_nodes) ];
  Metrics.prom_hist buf ~name:"qubed_job_latency_ms"
    (Metrics.hist_snapshot t.latency_h);
  Metrics.prom_hist buf ~name:"qubed_queue_wait_ms"
    (Metrics.hist_snapshot t.queue_wait_h);
  Option.iter
    (fun m ->
      Buffer.add_string buf
        (Metrics.snapshot_to_prometheus ~prefix:"qubed_engine_" m))
    (merged_engine t);
  Option.iter
    (fun p ->
      Buffer.add_string buf
        (Profile.snapshot_to_prometheus ~prefix:"qubed_profile_" p))
    (merged_profile t);
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
  let* spawns = counter "spawns" in
  let* clean = counter "workers_reaped_clean" in
  let* crash = counter "workers_reaped_crash" in
  let* signal = counter "workers_reaped_signal" in
  let* oom = counter "workers_reaped_oom" in
  let* terminated = counter "workers_reaped_terminated" in
  let* () =
    if spawns = clean + crash + signal + oom + terminated then Ok ()
    else
      Error
        (Printf.sprintf
           "lifecycle does not reconcile: spawns %d <> clean %d + crash %d + \
            signal %d + oom %d + terminated %d"
           spawns clean crash signal oom terminated)
  in
  let* submitted = counter "jobs_submitted" in
  let* decided = counter "jobs_decided" in
  let* unknown = counter "jobs_unknown" in
  let* errored = counter "jobs_errored" in
  let settled = decided + unknown + errored in
  let* () =
    if submitted = settled then Ok ()
    else
      Error
        (Printf.sprintf
           "jobs do not reconcile: submitted %d <> decided %d + unknown %d + \
            errored %d"
           submitted decided unknown errored)
  in
  (* the latency histogram must account for exactly the settled jobs *)
  match Json.member "latency_ms" j with
  | None -> Error "missing latency_ms histogram"
  | Some h -> (
      match Metrics.hist_of_json h with
      | Error m -> Error ("latency_ms: " ^ m)
      | Ok hs when hs.Metrics.count = settled -> Ok ()
      | Ok hs ->
          Error
            (Printf.sprintf "latency histogram count %d <> settled jobs %d"
               hs.Metrics.count settled))
