(* Service telemetry (Qbf_serve.Telemetry + the obs snapshot algebra):
   snapshot merging must be associative and commutative, the Prometheus
   encoders must emit grammatically valid text exposition, stats frames
   must roundtrip the wire, a fixed event sequence must give a committed
   exposition exactly, and a fault-injected supervised batch must
   produce telemetry whose worker-lifecycle counters account for every
   spawned worker and equal the batch summary's. *)

module ST = Qbf_solver.Solver_types
module Json = Qbf_obs.Json
module Metrics = Qbf_obs.Metrics
module Profile = Qbf_obs.Profile
module Protocol = Qbf_serve.Protocol
module Supervisor = Qbf_serve.Supervisor
module Telemetry = Qbf_serve.Telemetry

(* ------------------------------------------------------------------ *)
(* Snapshot construction *)

(* A deterministic pseudo-random engine snapshot: drive a real metrics
   registry and stats record the way the engine would, so merge tests
   cover the actual counter/gauge/histogram/per-level shapes. *)
let random_snapshot seed =
  let rng = Random.State.make [| seed |] in
  let m = Metrics.create () and st = ST.empty_stats () in
  for _ = 1 to 50 + Random.State.int rng 100 do
    let plevel = Random.State.int rng 6 in
    st.ST.decisions <- st.ST.decisions + 1;
    Metrics.on_decision m ~plevel ~dlevel:(Random.State.int rng 40);
    if Random.State.int rng 3 = 0 then
      st.ST.propagations <- st.ST.propagations + 1;
    if Random.State.int rng 5 = 0 then begin
      st.ST.conflicts <- st.ST.conflicts + 1;
      st.ST.backjumps <- st.ST.backjumps + 1;
      let from_level = 2 + Random.State.int rng 20 in
      Metrics.on_backjump m ~from_level ~to_level:(Random.State.int rng from_level)
    end;
    if Random.State.int rng 7 = 0 then begin
      st.ST.learned_clauses <- st.ST.learned_clauses + 1;
      Metrics.on_learn_clause m ~size:(1 + Random.State.int rng 12)
    end
  done;
  Metrics.snapshot ~counters:(ST.counters st) m

let norm (s : Metrics.snapshot) = Metrics.snapshot_to_json s

let check_eq_snapshot msg a b =
  Alcotest.(check string) msg (Json.to_string (norm a)) (Json.to_string (norm b))

(* ------------------------------------------------------------------ *)
(* Merge algebra *)

let test_merge_commutative () =
  let a = random_snapshot 1 and b = random_snapshot 2 in
  check_eq_snapshot "a+b = b+a" (Metrics.merge_snapshot a b)
    (Metrics.merge_snapshot b a)

let test_merge_associative () =
  let a = random_snapshot 3 and b = random_snapshot 4
  and c = random_snapshot 5 in
  check_eq_snapshot "(a+b)+c = a+(b+c)"
    (Metrics.merge_snapshot (Metrics.merge_snapshot a b) c)
    (Metrics.merge_snapshot a (Metrics.merge_snapshot b c))

let test_merge_counts_add () =
  let a = random_snapshot 6 and b = random_snapshot 7 in
  let m = Metrics.merge_snapshot a b in
  let c s name =
    match List.assoc_opt name s.Metrics.counters with Some n -> n | None -> 0
  in
  List.iter
    (fun name ->
      Alcotest.(check int)
        (name ^ " adds")
        (c a name + c b name)
        (c m name))
    [ "decisions"; "propagations"; "conflicts"; "learned_clauses" ];
  (* histogram totals add too, and the max is the max *)
  let h s =
    match List.assoc_opt "decision_level" s.Metrics.histograms with
    | Some h -> h
    | None -> Alcotest.fail "no decision_level histogram"
  in
  Alcotest.(check int) "hist count adds"
    ((h a).Metrics.count + (h b).Metrics.count)
    (h m).Metrics.count;
  Alcotest.(check int) "hist max is max"
    (max (h a).Metrics.max_value (h b).Metrics.max_value)
    (h m).Metrics.max_value

let test_merge_json_roundtrip () =
  (* what the supervisor actually does: parse a shipped snapshot back,
     then merge it — the parsed copy must merge identically *)
  let a = random_snapshot 8 and b = random_snapshot 9 in
  match Metrics.snapshot_of_json (Metrics.snapshot_to_json b) with
  | Error m -> Alcotest.failf "snapshot did not roundtrip: %s" m
  | Ok b' ->
      check_eq_snapshot "merge after roundtrip" (Metrics.merge_snapshot a b)
        (Metrics.merge_snapshot a b')

let test_profile_merge () =
  let s1 =
    [ { Profile.phase = "solve"; calls = 2; wall_s = 1.0; cpu_s = 0.5 };
      { Profile.phase = "propagate"; calls = 10; wall_s = 0.25; cpu_s = 0.25 } ]
  in
  let s2 =
    [ { Profile.phase = "parse"; calls = 1; wall_s = 0.125; cpu_s = 0.125 };
      { Profile.phase = "solve"; calls = 1; wall_s = 0.5; cpu_s = 0.25 } ]
  in
  let m12 = Profile.merge_snapshot s1 s2 in
  let m21 = Profile.merge_snapshot s2 s1 in
  Alcotest.(check string) "profile merge commutative"
    (Json.to_string (Profile.snapshot_to_json m12))
    (Json.to_string (Profile.snapshot_to_json m21));
  let solve = List.find (fun sp -> sp.Profile.phase = "solve") m12 in
  Alcotest.(check int) "calls add" 3 solve.Profile.calls;
  Alcotest.(check bool) "wall adds" true
    (Float.abs (solve.Profile.wall_s -. 1.5) < 1e-9)

let test_hist_percentile () =
  let h = Metrics.hist_create () in
  (* 9 observations of 1 and one of 100: p50 in the bucket of 1, p95+
     capped by the true max *)
  for _ = 1 to 9 do Metrics.hist_add h 1 done;
  Metrics.hist_add h 100;
  let s = Metrics.hist_snapshot h in
  Alcotest.(check int) "p50 small" 1 (Metrics.hist_percentile s 0.5);
  Alcotest.(check int) "p99 capped at max" 100
    (Metrics.hist_percentile s 0.99)

(* ------------------------------------------------------------------ *)
(* Prometheus exposition *)

let test_prometheus_grammar () =
  let s = random_snapshot 10 in
  let text = Metrics.snapshot_to_prometheus ~prefix:"qube_engine_" s in
  (match Metrics.prom_check_text text with
  | Ok () -> ()
  | Error m -> Alcotest.failf "engine exposition fails grammar: %s" m);
  (* the registry's full exposition too, including label escaping and
     a profile of two phases, whose families get one # TYPE line each *)
  let t = Telemetry.create () in
  Telemetry.incr t "spawns";
  Telemetry.on_dispatch t ~id:0 ~attempt:1 ~pid:42 ~queued_s:0.003;
  Telemetry.on_stats t ~id:0 ~attempt:1 ~pid:42 (Some s)
    (Some
       [ { Profile.phase = "propagate"; calls = 3; wall_s = 0.05; cpu_s = 0.05 };
         { Profile.phase = "solve"; calls = 1; wall_s = 0.1; cpu_s = 0.1 } ]);
  Telemetry.on_job_done t `Decided ~latency_s:0.05;
  Telemetry.on_reap t ~dying:false (Unix.WEXITED 0);
  let text = Telemetry.to_prometheus t in
  (match Metrics.prom_check_text text with
  | Ok () -> ()
  | Error m -> Alcotest.failf "telemetry exposition fails grammar: %s" m);
  let types =
    List.filter
      (String.starts_with ~prefix:"# TYPE ")
      (String.split_on_char '\n' text)
  in
  Alcotest.(check int) "one # TYPE line per family" (List.length types)
    (List.length (List.sort_uniq compare types))

let test_prometheus_grammar_rejects () =
  List.iter
    (fun bad ->
      match Metrics.prom_check_line bad with
      | Ok () -> Alcotest.failf "grammar accepted %S" bad
      | Error _ -> ())
    [ "9metric 1"; "m{=\"v\"} 1"; "m{l=\"unterminated} 1"; "m"; "m 1 2 3";
      "m not-a-number" ];
  (* well-formed lines, but families that break the text format *)
  List.iter
    (fun bad ->
      match Metrics.prom_check_text bad with
      | Ok () -> Alcotest.failf "exposition accepted %S" bad
      | Error _ -> ())
    [ "# TYPE m counter\nm{p=\"a\"} 1\n# TYPE m counter\nm{p=\"b\"} 2\n";
      "# TYPE a counter\na{p=\"x\"} 1\n# TYPE b counter\nb 1\na{p=\"y\"} 2\n";
      "m 1\n# TYPE m counter\n" ]

(* ------------------------------------------------------------------ *)
(* Wire roundtrip *)

let test_stats_frame_roundtrip () =
  let st =
    {
      Protocol.st_id = 11;
      st_attempt = 2;
      st_final = true;
      st_metrics = Some (random_snapshot 12);
      st_profile =
        Some [ { Profile.phase = "solve"; calls = 1; wall_s = 0.5; cpu_s = 0.4 } ];
    }
  in
  match Protocol.worker_msg_of_json (Protocol.json_of_stats st) with
  | Ok (Protocol.Msg_stats st') ->
      Alcotest.(check int) "id" 11 st'.Protocol.st_id;
      Alcotest.(check int) "attempt" 2 st'.Protocol.st_attempt;
      Alcotest.(check bool) "final" true st'.Protocol.st_final;
      (match (st.Protocol.st_metrics, st'.Protocol.st_metrics) with
      | Some a, Some b -> check_eq_snapshot "metrics" a b
      | _ -> Alcotest.fail "metrics lost");
      Alcotest.(check bool) "profile survives" true
        (st'.Protocol.st_profile = st.Protocol.st_profile)
  | Ok _ -> Alcotest.fail "stats frame decoded as a different kind"
  | Error m -> Alcotest.failf "stats frame did not roundtrip: %s" m

let test_stats_frame_version_gate () =
  (* a frame from a future schema must be rejected, not misread *)
  let j =
    Json.Obj
      [ ("type", Json.String "stats");
        ("schema", Json.String Protocol.stats_schema);
        ("v", Json.Int (Protocol.stats_version + 1));
        ("id", Json.Int 0); ("attempt", Json.Int 1) ]
  in
  match Protocol.worker_msg_of_json j with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "version mismatch accepted"

let test_heartbeat_backward_compat () =
  (* a pre-telemetry heartbeat has no nodes field: it must still decode *)
  let old =
    Json.Obj
      [ ("type", Json.String "hb"); ("id", Json.Int 3);
        ("attempt", Json.Int 1) ]
  in
  match Protocol.worker_msg_of_json old with
  | Ok (Protocol.Msg_heartbeat { hb_id = 3; hb_attempt = 1; hb_nodes = 0 }) ->
      ()
  | Ok _ -> Alcotest.fail "old heartbeat decoded wrong"
  | Error m -> Alcotest.failf "old heartbeat rejected: %s" m

(* ------------------------------------------------------------------ *)
(* End to end: fault-injected batches account for every worker *)

let true_qbf = "p cnf 2 2\ne 1 2 0\n1 2 0\n-1 2 0\n"
let false_qbf = "p cnf 1 2\ne 1 0\n1 0\n-1 0\n"

let inline_jobs texts =
  List.mapi (fun i t -> Protocol.job ~id:i (Qbf_run.Run.Inline t)) texts

let run_with_telemetry ~fault_p ~seed texts =
  let tel = Telemetry.create () in
  let policy =
    {
      Supervisor.default_policy with
      Supervisor.workers = 2;
      fault_p;
      retries = 30;
      hang_s = 0.5;
      grace_s = 0.2;
      backoff_base_s = 0.01;
      backoff_max_s = 0.05;
      seed;
    }
  in
  let reports, summary =
    Supervisor.run ~policy ~telemetry:tel (inline_jobs texts)
  in
  (tel, reports, summary)

let json_counters tel =
  match Json.member "counters" (Telemetry.to_json tel) with
  | Some (Json.Obj kvs) ->
      List.map
        (fun (k, v) -> (k, Option.value ~default:(-1) (Json.to_int_opt v)))
        kvs
  | _ -> Alcotest.fail "telemetry has no counters object"

let counter tel name =
  Option.value ~default:0 (List.assoc_opt name (json_counters tel))

let test_clean_batch_reconciles () =
  let tel, reports, _ =
    run_with_telemetry ~fault_p:0.0 ~seed:1 [ true_qbf; false_qbf ]
  in
  Alcotest.(check int) "both reported" 2 (List.length reports);
  (match Telemetry.check_json (Telemetry.to_json tel) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "clean-run telemetry invalid: %s" m);
  (* job 0 is raced on both workers; the loser dies of the supervisor's
     own SIGTERM (or SIGKILL after the grace period), which is neither
     a crash signal nor an OOM kill *)
  Alcotest.(check int) "no signal deaths" 0
    (counter tel "workers_reaped_signal");
  Alcotest.(check int) "no OOM kills" 0 (counter tel "workers_reaped_oom");
  Alcotest.(check bool) "race losers terminated" true
    (counter tel "workers_reaped_terminated" >= 1)

let test_faulty_batch_reconciles () =
  (* the acceptance criterion: under 0.3 injected faults, spawns =
     clean + crash + signal + oom + terminated exactly, and the latency
     histogram accounts for every settled job — validated by the same
     check qtop --check runs *)
  let tel, reports, summary =
    run_with_telemetry ~fault_p:0.3 ~seed:5
      [ true_qbf; false_qbf; true_qbf; false_qbf ]
  in
  Alcotest.(check int) "every job reported" 4 (List.length reports);
  (match Telemetry.check_json (Telemetry.to_json tel) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "faulty-run telemetry invalid: %s" m);
  (* chaos actually happened and was accounted as non-clean reaps *)
  Alcotest.(check bool) "workers were spawned" true (counter tel "spawns" > 0);
  Alcotest.(check bool) "merged engine stats present" true
    (Json.member "engine" (Telemetry.to_json tel) <> Some Json.Null);
  (* one registry: the summary and the document read the same cells *)
  let sorted = List.sort compare in
  Alcotest.(check (list (pair string int)))
    "summary counters = telemetry counters"
    (sorted summary.Supervisor.s_counters)
    (sorted (json_counters tel))

let test_input_failures_reach_telemetry () =
  (* an unparsable job fails at ingest; a valid one whose certificate
     cannot be created (the proof "directory" is a plain file) fails on
     the in-process path: both must be counted in the summary and in
     telemetry alike *)
  let not_a_dir = Filename.temp_file "test-telemetry" ".notdir" in
  let tel = Telemetry.create () in
  let policy =
    {
      Supervisor.default_policy with
      Supervisor.workers = 0;
      proof_dir = Some not_a_dir;
    }
  in
  let _, summary =
    Supervisor.run ~policy ~telemetry:tel
      (inline_jobs [ "p cnf garbage header"; false_qbf ])
  in
  Sys.remove not_a_dir;
  Alcotest.(check (option int)) "summary counts both" (Some 2)
    (List.assoc_opt "failures_input" summary.Supervisor.s_counters);
  Alcotest.(check int) "telemetry agrees with the summary" 2
    (counter tel "failures_input")

let test_check_catches_lost_worker () =
  (* a spawn without a matching reap must fail validation *)
  let tel = Telemetry.create () in
  Telemetry.incr tel "spawns";
  match Telemetry.check_json (Telemetry.to_json tel) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "lost worker passed reconciliation"

let test_per_attempt_stats_in_reports () =
  let _, reports, _ =
    run_with_telemetry ~fault_p:0.0 ~seed:2 [ true_qbf ]
  in
  let r = List.hd reports in
  Alcotest.(check bool) "report carries attempt stats" true
    (r.Supervisor.r_attempt_stats <> []);
  let a = List.hd r.Supervisor.r_attempt_stats in
  Alcotest.(check bool) "attempt stats carry metrics" true
    (a.Supervisor.as_metrics <> None)

(* ------------------------------------------------------------------ *)
(* Golden exposition *)

(* A fixed event sequence at fixed times: two jobs, one raced on two
   workers (the loser killed), one answered from the cache. *)
let golden_registry () =
  let t = Telemetry.create ~now:100. () in
  let engine =
    let m = Metrics.create () and st = ST.empty_stats () in
    Metrics.on_decision m ~plevel:0 ~dlevel:1;
    Metrics.on_decision m ~plevel:1 ~dlevel:2;
    Metrics.on_backjump m ~from_level:2 ~to_level:0;
    Metrics.on_learn_clause m ~size:3;
    st.ST.decisions <- 2;
    st.ST.propagations <- 1;
    st.ST.conflicts <- 1;
    st.ST.backjumps <- 1;
    st.ST.learned_clauses <- 1;
    Metrics.snapshot ~counters:(ST.counters st) m
  in
  let span phase calls wall_s =
    { Profile.phase; calls; wall_s; cpu_s = wall_s /. 2. }
  in
  Telemetry.incr t "jobs_submitted";
  Telemetry.incr t "jobs_submitted";
  Telemetry.incr t "spawns";
  Telemetry.incr t "spawns";
  Telemetry.incr t "cache_misses";
  Telemetry.on_dispatch t ~id:0 ~attempt:1 ~pid:41 ~queued_s:0.002;
  Telemetry.on_dispatch t ~id:0 ~attempt:2 ~pid:42 ~queued_s:0.004;
  Telemetry.on_heartbeat t ~nodes:17;
  Telemetry.on_stats t ~id:0 ~attempt:1 ~pid:41 (Some engine)
    (Some [ span "propagate" 5 0.25; span "solve" 1 0.5 ]);
  Telemetry.on_stats t ~id:0 ~attempt:2 ~pid:42 None
    (Some [ span "solve" 1 0.125 ]);
  Telemetry.on_job_done t `Decided ~latency_s:0.5;
  Telemetry.incr t "cancelled_losers";
  Telemetry.incr t "cache_hits";
  Telemetry.on_job_done t `Decided ~latency_s:0.;
  Telemetry.on_reap t ~dying:true (Unix.WSIGNALED Sys.sigterm);
  Telemetry.on_reap t ~dying:false (Unix.WEXITED 0);
  t

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_golden_exposition () =
  let t = golden_registry () in
  let json = Json.to_string (Telemetry.to_json ~now:102.5 t) ^ "\n" in
  Alcotest.(check string) "JSON" (read_file "golden/telemetry.json") json;
  Alcotest.(check string) "Prometheus"
    (read_file "golden/telemetry.prom")
    (Telemetry.to_prometheus ~now:102.5 t);
  match Telemetry.check_json (Telemetry.to_json ~now:102.5 t) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "golden registry does not reconcile: %s" m

let suite =
  [
    Alcotest.test_case "merge commutative" `Quick test_merge_commutative;
    Alcotest.test_case "merge associative" `Quick test_merge_associative;
    Alcotest.test_case "merge adds counts" `Quick test_merge_counts_add;
    Alcotest.test_case "merge after JSON roundtrip" `Quick
      test_merge_json_roundtrip;
    Alcotest.test_case "profile merge" `Quick test_profile_merge;
    Alcotest.test_case "histogram percentiles" `Quick test_hist_percentile;
    Alcotest.test_case "prometheus grammar accepts" `Quick
      test_prometheus_grammar;
    Alcotest.test_case "prometheus grammar rejects" `Quick
      test_prometheus_grammar_rejects;
    Alcotest.test_case "stats frame roundtrip" `Quick
      test_stats_frame_roundtrip;
    Alcotest.test_case "stats version gate" `Quick
      test_stats_frame_version_gate;
    Alcotest.test_case "heartbeat backward compat" `Quick
      test_heartbeat_backward_compat;
    Alcotest.test_case "clean batch reconciles" `Quick
      test_clean_batch_reconciles;
    Alcotest.test_case "faulty batch reconciles" `Quick
      test_faulty_batch_reconciles;
    Alcotest.test_case "input failures reach telemetry" `Quick
      test_input_failures_reach_telemetry;
    Alcotest.test_case "check catches lost worker" `Quick
      test_check_catches_lost_worker;
    Alcotest.test_case "reports carry per-attempt stats" `Quick
      test_per_attempt_stats_in_reports;
    Alcotest.test_case "golden exposition" `Quick test_golden_exposition;
  ]
