(* The end-to-end benchmark.

     main.exe --workload dia|certify|serve --seed N --seconds S --trace 0|1

   Sets the workload up from the seed (several times, reporting the
   median), runs its timed phase, validates every answer against an
   independent reference, and prints the provenance, the work
   fingerprint, every metric with its unit, and last a one-line JSON
   result.  Timings are scaled to a nominal host speed (see
   lib/speed.ml); the untraced run prints them raw too.  --trace 0
   reports the end-to-end metrics; --trace 1 runs the timed phase
   untraced and then traced, and reports the per-layer metrics, writing
   its spans under .bench_out.  Exits 1 when an answer
   contradicts its reference, 2 on a usage error. *)

open Perf_e2e

type prepared = {
  sizes : (string * int) list;
  oracle_s : float;
  run : tracer:Spans.t option -> speed:Speed.t -> Work.result;
}

(* Each workload's nominal pass length: a run makes
   max(1, round(S / nominal)) passes, so its work depends on S and the
   seed only, never on how fast the host is. *)
let nominal_s = 20.

let prepare workload ~seed ~dir =
  match workload with
  | "dia" ->
      let t = Dia.setup () in
      {
        sizes = Dia.sizes t;
        oracle_s = t.Dia.oracle_s;
        run = (fun ~tracer ~speed -> Dia.run ~speed ~tracer t);
      }
  | "certify" ->
      let t = Certify.setup ~seed ~dir in
      {
        sizes = Certify.sizes t;
        oracle_s = t.Certify.oracle_s;
        run = (fun ~tracer ~speed -> Certify.run ~speed ~tracer t);
      }
  | _ ->
      let t = Serve.setup ~seed ~dir () in
      {
        sizes = Serve.sizes t;
        oracle_s = 0.;
        run = (fun ~tracer ~speed -> Serve.run ~speed ~tracer t);
      }

let setup_runs = 5

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("cpu_s", "s");
    ("peak_rss_mb", "MB");
    ("success_rate", "fraction");
    ("jobs_per_s", "1/s");
  ]

let per_layer =
  [
    ("solver.solve_s", "s");
    ("solver.decisions", "count");
    ("solver.propagations", "count");
    ("solver.learned", "count");
    ("solver.chrono_fallbacks", "count");
    ("solver.budget_stops", "count");
    ("solver.wasted_s", "s");
    ("solver.build_s", "s");
    ("solver.propagate_s", "s");
    ("solver.backtrack_s", "s");
    ("solver.analyze_s", "s");
    ("solver.heuristic_s", "s");
    ("solver.props_per_s", "1/s");
    ("proof.records", "count");
    ("proof.bytes", "bytes");
    ("proof.unwitnessed", "count");
    ("proof.certified_ratio", "fraction");
    ("check.replay_s", "s");
    ("check.steps", "count");
    ("check.steps_per_s", "1/s");
    ("check.rejected", "count");
    ("models.self_s", "s");
    ("models.bound_p50_s", "s");
    ("models.bound_p90_s", "s");
    ("models.bound_samples", "count");
    ("models.bounds", "count");
    ("models.carried_clauses", "count");
    ("models.oracle_s", "s");
    ("serve.queue_s", "s");
    ("serve.worker_solve_s", "s");
    ("serve.overhead_s", "s");
    ("serve.supervisor_cpu_s", "s");
    ("serve.worker_cpu_s", "s");
    ("serve.dispatches", "count");
    ("serve.spawns", "count");
    ("serve.retries", "count");
    ("serve.failures", "count");
    ("serve.cache_hits", "count");
    ("serve.cache_hit_ratio", "fraction");
    ("serve.proofs_checked", "count");
    ("io.load_s", "s");
    ("io.mb_per_s", "MB/s");
    ("job.p50_s", "s");
    ("job.p90_s", "s");
    ("job.samples", "count");
    ("job.unaccounted_s", "s");
    ("trace.overhead", "ratio");
  ]

let ratio a b = if b > 0. then a /. b else 0.

(* A percentile the rule withholds reads 0; its sample count says why. *)
let pct ~q xs = Option.value ~default:0. (Stat.percentile ~q xs).Stat.value

let end_to_end_values ~setup_s (r : Work.result) =
  let completed = r.Work.attempted - r.Work.errors in
  [
    ("setup_s", setup_s);
    ("wall_s", r.Work.wall_s);
    ("cpu_s", r.Work.cpu_s);
    ("peak_rss_mb", Host.peak_rss_mb ());
    ("success_rate", ratio (float_of_int r.Work.successful) (float_of_int r.Work.attempted));
    ("jobs_per_s", ratio (float_of_int completed) r.Work.wall_s);
  ]

let per_layer_values ~oracle_s ~overhead (r : Work.result) spans =
  let get k = Option.value ~default:0. (List.assoc_opt k r.Work.layer) in
  let self = Spans.self_by_name spans in
  List.map
    (fun (name, _) ->
      ( name,
        match name with
        | "solver.props_per_s" ->
            ratio (get "solver.propagations")
              (get "solver.propagate_s" +. get "solver.backtrack_s")
        | "proof.certified_ratio" -> ratio (get "proof.certified") (get "proof.conclusive")
        | "check.steps_per_s" -> ratio (get "check.steps") (get "check.replay_s")
        | "models.self_s" -> Spans.self_of self "models"
        | "models.bound_p50_s" -> pct ~q:0.5 r.Work.bound_times
        | "models.bound_p90_s" -> pct ~q:0.9 r.Work.bound_times
        | "models.bound_samples" -> float_of_int (List.length r.Work.bound_times)
        | "models.oracle_s" -> oracle_s
        | "serve.queue_s" -> ratio (get "serve.queue_s") (get "serve.jobs_dispatched")
        | "io.mb_per_s" -> ratio (get "io.bytes" /. 1e6) (get "io.load_s")
        | "job.p50_s" -> pct ~q:0.5 r.Work.latencies
        | "job.p90_s" -> pct ~q:0.9 r.Work.latencies
        | "job.samples" -> float_of_int (List.length r.Work.latencies)
        | "job.unaccounted_s" -> Spans.unaccounted spans
        | "trace.overhead" -> overhead
        | k -> get k ))
    per_layer

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_metrics units values =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, v) ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v
             (List.assoc name units))
         values)
  ^ "}"

let json_assoc kvs =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) kvs) ^ "}"

let print_metrics units values ~samples =
  List.iter
    (fun (name, v) ->
      let n =
        match List.assoc_opt name samples with
        | Some n -> Printf.sprintf "  (n=%d)" n
        | None -> ""
      in
      Printf.printf "metric %-26s %18.6f %s%s\n" name v (List.assoc name units) n)
    values

(* ------------------------------------------------------------------ *)
(* The run                                                             *)

let timed_phase prepared ~passes ~tracer ~speed =
  let r = ref Work.empty in
  for _ = 1 to passes do
    r := Work.merge !r (prepared.run ~tracer ~speed)
  done;
  !r

let main workload seed seconds trace =
  let tmp =
    Filename.concat ".bench_tmp" (Printf.sprintf "%s-%d" workload (Unix.getpid ()))
  in
  (try Sys.mkdir ".bench_tmp" 0o755 with Sys_error _ -> ());
  Sys.mkdir tmp 0o755;
  at_exit (fun () ->
      Work.remove_tree tmp;
      try Sys.rmdir ".bench_tmp" with Sys_error _ -> ());
  (* a run stopped from outside still removes its inputs *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  let speed = Speed.create () in
  (* only the last set-up is kept: each earlier one is garbage before
     the next starts *)
  let rec set_up n times =
    let p, tm = Work.timed speed (fun () -> prepare workload ~seed ~dir:tmp) in
    if n = 1 then (p, tm :: times) else set_up (n - 1) (tm :: times)
  in
  let prepared, setups = set_up setup_runs [] in
  let setup_s = Stat.median (List.map (fun tm -> tm.Work.wall) setups)
  and raw_setup_s = Stat.median (List.map (fun tm -> tm.Work.raw_wall) setups) in
  let passes = max 1 (int_of_float (Float.round (seconds /. nominal_s))) in
  let r = timed_phase prepared ~passes ~tracer:None ~speed in
  let fp = Fingerprint.make r.Work.counts in
  let traced =
    if trace then begin
      let tr = Spans.create () in
      let rt =
        timed_phase prepared ~passes ~tracer:(Some tr)
          ~speed:(Speed.create ~within:false ())
      in
      Some (rt, Spans.spans tr)
    end
    else None
  in
  let overhead =
    match traced with
    | Some (rt, _) -> (rt.Work.wall_s /. r.Work.wall_s) -. 1.
    | None -> 0.
  in
  let wrong =
    r.Work.wrong
    @
    match traced with
    | Some (rt, _) when Fingerprint.make rt.Work.counts <> fp ->
        [ "the traced pass did different work from the untraced one" ]
    | Some (rt, _) -> rt.Work.wrong
    | None -> []
  in
  let provenance =
    [
      ("workload", Printf.sprintf "%S" workload);
      ("seed", string_of_int seed);
      ("seconds", Printf.sprintf "%g" seconds);
      ("passes", string_of_int passes);
      ("trace", string_of_bool trace);
      ("nproc", string_of_int (Host.nproc ()));
      ("cpu_model", Printf.sprintf "%S" (Host.cpu_model ()));
      ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
      ("commit", Printf.sprintf "%S" (Host.git_commit ()));
      ( "sizes",
        json_assoc (List.map (fun (k, v) -> (k, string_of_int v)) prepared.sizes) );
      ( "trace_overhead",
        if trace then Printf.sprintf "%.6f" overhead else "null" );
      ("reference_nominal_s", Printf.sprintf "%g" Speed.nominal_s);
      ("reference_median_s", Printf.sprintf "%.6f" (Speed.median_ref_s speed));
      ("reference_samples", string_of_int (Speed.count speed));
    ]
  in
  Printf.printf "provenance %s\n" (json_assoc provenance);
  Printf.printf "fingerprint %s\n" (Fingerprint.to_json fp);
  List.iter (Printf.printf "WRONG %s\n") wrong;
  let units, values =
    match traced with
    | None ->
        let v = end_to_end_values ~setup_s r in
        print_metrics end_to_end v ~samples:[];
        (* the timings as the clocks read them, before scaling *)
        let completed = r.Work.attempted - r.Work.errors in
        List.iter
          (fun (name, v, unit) -> Printf.printf "raw %-29s %18.6f %s\n" name v unit)
          [
            ("setup_s", raw_setup_s, "s");
            ("wall_s", r.Work.raw_wall_s, "s");
            ("cpu_s", r.Work.raw_cpu_s, "s");
            ("jobs_per_s", ratio (float_of_int completed) r.Work.raw_wall_s, "1/s");
          ];
        (* per-job latency, reported but not gated (see README.md) *)
        let n = List.length r.Work.latencies in
        List.iter
          (fun (name, q) ->
            Printf.printf "latency %-25s %18.6f s  (n=%d)\n" name (pct ~q r.Work.latencies) n)
          [ ("job_p50_s", 0.5); ("job_p90_s", 0.9) ];
        (end_to_end, v)
    | Some (rt, spans) ->
        let out = ".bench_out" in
        (try Sys.mkdir out 0o755 with Sys_error _ -> ());
        let path =
          Filename.concat out (Printf.sprintf "spans-%s-seed%d.jsonl" workload seed)
        in
        Spans.write_jsonl path spans;
        Printf.printf "spans %s (%d)\n" path (List.length spans);
        let v = per_layer_values ~oracle_s:prepared.oracle_s ~overhead rt spans in
        let jobs = List.length rt.Work.latencies
        and bounds = List.length rt.Work.bound_times in
        print_metrics per_layer v
          ~samples:
            [
              ("job.p50_s", jobs);
              ("job.p90_s", jobs);
              ("models.bound_p50_s", bounds);
              ("models.bound_p90_s", bounds);
            ];
        (per_layer, v)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
    (wrong = []) r.Work.attempted r.Work.errors (json_metrics units values);
  exit (if wrong = [] then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "dia|certify|serve");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  work: max(1, round(S/20)) passes");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run");
    ]
  in
  let usage = "main.exe --workload dia|certify|serve --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload [ "dia"; "certify"; "serve" ]) || (!trace <> 0 && !trace <> 1)
  then begin
    Arg.usage spec usage;
    exit 2
  end;
  main !workload !seed !seconds (!trace = 1)
