(* qtop: offline/live summarizer for qubed's --telemetry output.

   Usage:
     qtop.exe [--check] [--watch S] FILE

   FILE is the JSON telemetry document qubed rewrites while a batch
   runs (schema "qubed-telemetry").  Default mode renders the service
   view once: throughput, p50/p95 latency and queue wait from the log2
   histograms, failure mix, cache rate, worker lifecycle, and a digest
   of the merged engine metrics.  --watch S re-reads and re-renders
   every S seconds until interrupted — `top` for the solving service.
   --check validates instead of rendering: schema, lifecycle
   reconciliation (spawns = clean + crash + signal + oom + terminated),
   job reconciliation (submitted = decided + unknown + errored), latency
   histogram consistency, and — when FILE.prom exists — the Prometheus
   text exposition (line grammar, one # TYPE line per family, contiguous
   samples); exits nonzero on the first violation, which is what CI
   runs. *)

module Json = Qbf_obs.Json
module Metrics = Qbf_obs.Metrics
module Telemetry = Qbf_serve.Telemetry

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("qtop: " ^ m);
      exit 2)
    fmt

let read_json file =
  match open_in file with
  | exception Sys_error m -> Error m
  | ic ->
      let n = in_channel_length ic in
      let text = really_input_string ic n in
      close_in_noerr ic;
      Json.of_string_res text

let member_int k j = Option.bind (Json.member k j) Json.to_int_opt
let member_float k j = Option.bind (Json.member k j) Json.to_float_opt

let counter j name =
  match Option.bind (Json.member "counters" j) (member_int name) with
  | Some n -> n
  | None -> 0

let hist j name =
  match Json.member name j with
  | None -> None
  | Some h -> Result.to_option (Metrics.hist_of_json h)

(* ------------------------------------------------------------------ *)
(* Rendering *)

let pct a b = if b = 0 then 0. else 100. *. float_of_int a /. float_of_int b

let render j =
  let uptime =
    match member_float "uptime_s" j with Some u -> u | None -> 0.
  in
  let unknown = counter j "jobs_unknown" and errored = counter j "jobs_errored" in
  let settled = counter j "jobs_decided" + unknown + errored in
  Printf.printf
    "uptime %.1fs   jobs %d/%d settled (%d unknown, %d errored)   %.1f jobs/s\n"
    uptime settled (counter j "jobs_submitted") unknown errored
    (if uptime > 0. then float_of_int settled /. uptime else 0.);
  (match hist j "latency_ms" with
  | Some h when h.Metrics.count > 0 ->
      Printf.printf
        "latency   p50 <=%d ms   p95 <=%d ms   max %d ms   (%d jobs)\n"
        (Metrics.hist_percentile h 0.50)
        (Metrics.hist_percentile h 0.95)
        h.Metrics.max_value h.Metrics.count
  | _ -> ());
  (match hist j "queue_wait_ms" with
  | Some h when h.Metrics.count > 0 ->
      Printf.printf "queue     p50 <=%d ms   p95 <=%d ms   (%d dispatches)\n"
        (Metrics.hist_percentile h 0.50)
        (Metrics.hist_percentile h 0.95)
        h.Metrics.count
  | _ -> ());
  Printf.printf
    "workers   spawned %d = clean %d + crash %d + signal %d + oom %d + \
     terminated %d\n"
    (counter j "spawns")
    (counter j "workers_reaped_clean")
    (counter j "workers_reaped_crash")
    (counter j "workers_reaped_signal")
    (counter j "workers_reaped_oom")
    (counter j "workers_reaped_terminated");
  let failures =
    List.filter_map
      (fun label ->
        let n = counter j ("failures_" ^ label) in
        if n > 0 then Some (Printf.sprintf "%s %d" label n) else None)
      Qbf_run.Failure.all_labels
  in
  Printf.printf "failures  %s   retries %d\n"
    (if failures = [] then "none" else String.concat ", " failures)
    (counter j "retries");
  let hits = counter j "cache_hits" and misses = counter j "cache_misses" in
  Printf.printf "cache     %d hits / %d misses (%.0f%% hit rate)\n" hits misses
    (pct hits (hits + misses));
  (match member_int "hb_nodes" j with
  | Some n when n > 0 ->
      Printf.printf "progress  %d nodes over %d heartbeats\n" n
        (counter j "heartbeats")
  | _ -> ());
  (match Json.member "engine" j with
  | Some (Json.Obj _ as e) -> (
      match Metrics.snapshot_of_json e with
      | Error _ -> ()
      | Ok m ->
          let c name =
            match List.assoc_opt name m.Metrics.counters with
            | Some n -> n
            | None -> 0
          in
          Printf.printf
            "engine    %d decisions, %d propagations, %d conflicts, %d \
             solutions, %d fallbacks (all workers)\n"
            (c "decisions") (c "propagations") (c "conflicts") (c "solutions")
            (c "chrono_fallbacks");
          List.iter
            (fun (name, h) ->
              if h.Metrics.count > 0 then
                Printf.printf
                  "          %-16s p50 <=%d  p95 <=%d  max %d  (n=%d)\n" name
                  (Metrics.hist_percentile h 0.50)
                  (Metrics.hist_percentile h 0.95)
                  h.Metrics.max_value h.Metrics.count)
            m.Metrics.histograms)
  | _ -> ())

(* ------------------------------------------------------------------ *)
(* Validation *)

let check file j =
  let problems = ref [] in
  (match Telemetry.check_json j with
  | Ok () -> ()
  | Error m -> problems := (file ^ ": " ^ m) :: !problems);
  let prom = file ^ ".prom" in
  if Sys.file_exists prom then begin
    match open_in prom with
    | exception Sys_error m -> problems := m :: !problems
    | ic ->
        let n = in_channel_length ic in
        let text = really_input_string ic n in
        close_in_noerr ic;
        (match Metrics.prom_check_text text with
        | Ok () -> ()
        | Error m -> problems := (prom ^ ": " ^ m) :: !problems)
  end;
  match !problems with
  | [] ->
      Printf.printf "%s: OK\n" file;
      true
  | ps ->
      List.iter prerr_endline (List.rev ps);
      false

(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse check watch files = function
    | [] -> (check, watch, List.rev files)
    | "--check" :: rest -> parse true watch files rest
    | "--watch" :: s :: rest -> (
        match float_of_string_opt s with
        | Some v when v > 0. -> parse check (Some v) files rest
        | _ -> die "--watch wants a positive interval, got %S" s)
    | "--watch" :: [] -> die "--watch wants an interval"
    | a :: rest -> parse check watch (a :: files) rest
  in
  let check_mode, watch, files = parse false None [] args in
  let file =
    match files with
    | [ f ] -> f
    | _ -> die "usage: qtop [--check] [--watch S] FILE"
  in
  let once () =
    match read_json file with
    | Error m ->
        Printf.eprintf "qtop: %s: %s\n" file m;
        false
    | Ok j -> if check_mode then check file j else (render j; true)
  in
  match watch with
  | None -> exit (if once () then 0 else 1)
  | Some interval ->
      (* live mode: clear, render, sleep; a transient read failure
         (file mid-rename) just skips a frame *)
      let rec loop () =
        print_string "\027[2J\027[H";
        ignore (once () : bool);
        flush stdout;
        Unix.sleepf interval;
        loop ()
      in
      loop ()
