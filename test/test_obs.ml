(* Observability-layer tests (Qbf_obs): metrics invariants against real
   solver runs, ring wraparound and sampling determinism with injected
   clocks, JSONL round-trips, and the exact event-count/stats contract
   the trace emitter promises. *)

module ST = Qbf_solver.Solver_types
module Obs = Qbf_obs.Obs
module Metrics = Qbf_obs.Metrics
module Trace = Qbf_obs.Trace
module Profile = Qbf_obs.Profile
module Json = Qbf_obs.Json

(* A deterministic clock: every read advances by [step]. *)
let fake_clock ?(step = 0.5) () =
  let t = ref 0. in
  fun () ->
    let v = !t in
    t := v +. step;
    v

let counter s name =
  match List.assoc_opt name s.Metrics.counters with
  | Some v -> v
  | None -> Alcotest.failf "missing counter %s" name

(* ------------------------------------------------------------------ *)
(* Ring buffer + sampling                                              *)

let test_ring_wraparound () =
  let tr = Trace.create ~capacity:8 ~clock:(fake_clock ()) () in
  for i = 0 to 19 do
    Trace.emit tr Trace.Decision ~dlevel:i ~plevel:0 ~arg:i
  done;
  Alcotest.(check int) "offered" 20 (Trace.offered tr);
  Alcotest.(check int) "recorded" 20 (Trace.recorded tr);
  Alcotest.(check int) "dropped" 12 (Trace.dropped tr);
  let evs = Trace.to_list tr in
  Alcotest.(check int) "kept" 8 (List.length evs);
  (* flight-recorder mode keeps the *latest* events *)
  Alcotest.(check (list int)) "latest seqs"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (List.map (fun e -> e.Trace.seq) evs)

let test_sampling_determinism () =
  let run () =
    let tr = Trace.create ~capacity:64 ~every:3 ~clock:(fake_clock ()) () in
    List.iter
      (fun k -> Trace.emit tr k ~dlevel:1 ~plevel:2 ~arg:7)
      (List.concat (List.init 4 (fun _ -> Trace.all_kinds)));
    Trace.to_list tr
  in
  let a = run () and b = run () in
  (* same event sequence + same injected clock => identical traces *)
  Alcotest.(check bool) "deterministic" true (a = b);
  (* every 3rd offered event is recorded, whatever the kind count *)
  let offered = 4 * List.length Trace.all_kinds in
  let recorded = (offered + 2) / 3 in
  Alcotest.(check int) "every 3rd recorded" recorded (List.length a);
  Alcotest.(check (list int)) "every 3rd offered seq"
    (List.init recorded (fun i -> 3 * i))
    (List.map (fun e -> e.Trace.seq) a)

let test_sink_flush_lossless () =
  let lines = ref [] in
  let tr =
    Trace.create ~capacity:4 ~clock:(fake_clock ())
      ~sink:(fun l -> lines := l :: !lines)
      ()
  in
  for i = 0 to 9 do
    Trace.emit tr Trace.Propagation ~dlevel:0 ~plevel:1 ~arg:i
  done;
  Trace.flush tr;
  Alcotest.(check int) "no drops with a sink" 0 (Trace.dropped tr);
  let evs =
    List.rev_map
      (fun l ->
        match Trace.parse_line l with
        | Ok e -> e
        | Error m -> Alcotest.failf "sink line does not parse: %s" m)
      !lines
  in
  Alcotest.(check (list int)) "all events, in order"
    (List.init 10 Fun.id)
    (List.map (fun e -> e.Trace.seq) evs)

(* ------------------------------------------------------------------ *)
(* JSONL round-trip + schema validation                                *)

let test_jsonl_roundtrip () =
  List.iteri
    (fun i kind ->
      let e =
        {
          Trace.seq = 100 + i;
          t = 0.125 *. float_of_int i;
          kind;
          dlevel = i;
          plevel = i mod 3;
          arg = -1 + i;
        }
      in
      match Trace.parse_line (Trace.event_to_line e) with
      | Ok e' -> Alcotest.(check bool) "round-trip" true (e = e')
      | Error m -> Alcotest.failf "round-trip failed: %s" m)
    Trace.all_kinds

let test_parse_line_rejects () =
  let bad =
    [
      "not json at all";
      "{\"v\":2,\"seq\":0,\"t\":0.0,\"kind\":\"decision\",\"dlevel\":0,\"plevel\":0,\"arg\":0}";
      "{\"v\":1,\"seq\":0,\"t\":0.0,\"kind\":\"no-such-kind\",\"dlevel\":0,\"plevel\":0,\"arg\":0}";
      "{\"v\":1,\"seq\":0,\"t\":0.0,\"kind\":\"decision\",\"plevel\":0,\"arg\":0}";
      "{\"v\":1,\"seq\":\"zero\",\"t\":0.0,\"kind\":\"decision\",\"dlevel\":0,\"plevel\":0,\"arg\":0}";
    ]
  in
  List.iter
    (fun line ->
      match Trace.parse_line line with
      | Ok _ -> Alcotest.failf "accepted invalid line: %s" line
      | Error _ -> ())
    bad

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("a", Json.Int (-3));
        ("b", Json.Float 1.5);
        ("c", Json.String "x\"y\\z\n");
        ("d", Json.List [ Json.Null; Json.Bool true; Json.Bool false ]);
        ("e", Json.Obj [ ("nested", Json.Int 0) ]);
      ]
  in
  match Json.of_string_res (Json.to_string j) with
  | Ok j' -> Alcotest.(check bool) "json round-trip" true (j = j')
  | Error m -> Alcotest.failf "json round-trip failed: %s" m

(* ------------------------------------------------------------------ *)
(* Phase profiler                                                      *)

let test_profile_clocks () =
  (* wall advances 1.0 per read, cpu 0.25: one enter/leave pair spans
     exactly one read gap of each clock *)
  let p =
    Profile.create ~clock:(fake_clock ~step:1.0 ()) ~cpu:(fake_clock ~step:0.25 ()) ()
  in
  Profile.enter p Profile.Propagate;
  Profile.leave p Profile.Propagate;
  Profile.enter p Profile.Propagate;
  Profile.leave p Profile.Propagate;
  match Profile.snapshot p with
  | [ sp ] ->
      Alcotest.(check string) "phase" "propagate" sp.Profile.phase;
      Alcotest.(check int) "calls" 2 sp.Profile.calls;
      Alcotest.(check (float 1e-9)) "wall" 2.0 sp.Profile.wall_s;
      Alcotest.(check (float 1e-9)) "cpu" 0.5 sp.Profile.cpu_s
  | s -> Alcotest.failf "expected one span, got %d" (List.length s)

(* ------------------------------------------------------------------ *)
(* Solver-run contracts                                                *)

let formulas () =
  List.map
    (fun seed ->
      let rng = Qbf_gen.Rng.create seed in
      Qbf_gen.Randqbf.prenex rng ~nvars:16 ~levels:3 ~nclauses:48 ~len:3 ())
    [ 11; 22; 33; 44 ]

(* The FPV instances of test_db's mid-search generator: they learn
   enough for a reduction interval of 4 to delete constraints. *)
let reducing_formulas () =
  List.init 6 (fun i ->
      let rng = Qbf_gen.Rng.create (9100 + i) in
      Qbf_gen.Fpv.generate rng
        { core = 4; branches = 2 + (i mod 2); env = 3; cls = 2; lpc = 3 })

let observed_solve ?(restarts = false) ?(reduce = Fun.id) f =
  let metrics = Metrics.create () in
  let trace = Trace.create ~capacity:(1 lsl 16) () in
  let obs = Obs.make ~metrics ~trace () in
  let config =
    ST.(
      default_config |> with_learning true |> with_restarts restarts
      |> with_db_reduction restarts |> reduce |> with_obs (Some obs))
  in
  let r = Qbf_solver.Engine.solve ~config f in
  ( r.ST.stats,
    Metrics.snapshot ~counters:(Obs.counters obs) metrics,
    Trace.to_list trace )

let counters = Alcotest.(list (pair string int))

(* The instance whose default run falls back once (CI obs-smoke solves
   it too). *)
let fallback_formula () =
  match Qbf_run.Run.load "../examples/instances/dia_counter2_n3.nqdimacs" with
  | Ok f -> f
  | Error e -> Alcotest.fail (Qbf_run.Run_error.to_string e)

let test_metrics_invariants () =
  List.iter
    (fun f ->
      let stats, s, _ = observed_solve f in
      let c = counter s in
      Alcotest.(check bool) "decisions >= backjumps" true
        (c "decisions" >= c "backjumps");
      Alcotest.(check int) "conflicts + solutions = leaves"
        (ST.nodes stats)
        (c "conflicts" + c "solutions");
      (* the snapshot's counters are the engine's own stats *)
      Alcotest.check counters "counters" (ST.counters stats) s.Metrics.counters;
      Alcotest.(check (float 0.)) "max decision level"
        (float_of_int stats.ST.max_decision_level)
        (List.assoc "max_decision_level" s.Metrics.gauges))
    (formulas ());
  (* with reduction on, each deletion counts once *)
  let deleted =
    List.fold_left
      (fun acc f ->
        let stats, s, _ =
          observed_solve ~restarts:true
            ~reduce:ST.(fun c ->
              c |> with_db_reduce_interval 4 |> with_db_keep_fraction 0.25)
            f
        in
        Alcotest.check counters "counters under reduction"
          (ST.counters stats) s.Metrics.counters;
        acc + stats.ST.deleted_constraints)
      0 (reducing_formulas ())
  in
  Alcotest.(check bool) "reduction deleted constraints" true (deleted > 0)

let check_trace_counts (stats : ST.stats) (s : Metrics.snapshot) events =
  let n k = List.assoc k (Trace.counts events) in
  Alcotest.(check int) "decision events" stats.ST.decisions (n Trace.Decision);
  Alcotest.(check int) "propagation events" stats.ST.propagations
    (n Trace.Propagation);
  Alcotest.(check int) "pure events" stats.ST.pure_assignments (n Trace.Pure);
  Alcotest.(check int) "conflict events" stats.ST.conflicts (n Trace.Conflict);
  Alcotest.(check int) "solution events" stats.ST.solutions (n Trace.Solution);
  Alcotest.(check int) "leaf events" (ST.nodes stats)
    (n Trace.Conflict + n Trace.Solution);
  Alcotest.(check int) "learn-clause events" stats.ST.learned_clauses
    (n Trace.Learn_clause);
  Alcotest.(check int) "learn-cube events" stats.ST.learned_cubes
    (n Trace.Learn_cube);
  Alcotest.(check int) "backjump events" stats.ST.backjumps (n Trace.Backjump);
  Alcotest.(check int) "fallback events" stats.ST.chrono_fallbacks
    (n Trace.Fallback);
  Alcotest.(check int) "restart events" stats.ST.restarts (n Trace.Restart);
  Alcotest.(check int) "delete events" stats.ST.deleted_constraints
    (n Trace.Delete);
  (* the offline per-level histogram agrees with the registry's *)
  Alcotest.(check (list int)) "per-level decisions"
    s.Metrics.per_level_decisions
    (Array.to_list (Trace.decision_levels events))

let test_trace_matches_stats () =
  List.iter
    (fun f ->
      let stats, s, events = observed_solve ~restarts:true f in
      check_trace_counts stats s events)
    (formulas ());
  let stats, s, events = observed_solve (fallback_formula ()) in
  Alcotest.(check bool) "a fallback happened" true
    (stats.ST.chrono_fallbacks >= 1);
  check_trace_counts stats s events

(* One collector across two solves reports the sum of their stats, and
   a collector with no components still reads the counters. *)
let test_shared_collector () =
  match formulas () with
  | f1 :: f2 :: _ ->
      let obs = Obs.make () in
      let config = ST.(default_config |> with_obs (Some obs)) in
      let r1 = Qbf_solver.Engine.solve ~config f1 in
      Alcotest.check counters "one solve" (ST.counters r1.ST.stats)
        (Obs.counters obs);
      let r2 = Qbf_solver.Engine.solve ~config f2 in
      Alcotest.check counters "two solves"
        (List.map2
           (fun (k, a) (_, b) -> (k, a + b))
           (ST.counters r1.ST.stats) (ST.counters r2.ST.stats))
        (Obs.counters obs);
      (* the shared all-off collector is never attached to *)
      ignore
        (Qbf_solver.Engine.solve
           ~config:ST.(default_config |> with_obs (Some Obs.none))
           f1);
      Alcotest.check counters "Obs.none" [] (Obs.counters Obs.none)
  | _ -> assert false

let test_disabled_obs_is_inert () =
  (* solving with no collector must behave identically (and not crash on
     the shared Obs.none placeholders) *)
  List.iter
    (fun f ->
      let r1 = Qbf_solver.Engine.solve ~config:ST.default_config f in
      let stats, _, _ = observed_solve f in
      let r2 =
        Qbf_solver.Engine.solve
          ~config:ST.(default_config |> with_learning true)
          f
      in
      Alcotest.(check bool) "outcome agrees (no-learn vs observed)" true
        (r1.ST.outcome = r2.ST.outcome);
      Alcotest.(check int) "observed run = unobserved run (decisions)"
        r2.ST.stats.ST.decisions stats.ST.decisions)
    (formulas ())

let suite =
  [
    Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "sampling determinism" `Quick test_sampling_determinism;
    Alcotest.test_case "sink flush lossless" `Quick test_sink_flush_lossless;
    Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "parse_line rejects" `Quick test_parse_line_rejects;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "profile clocks" `Quick test_profile_clocks;
    Alcotest.test_case "metrics invariants" `Quick test_metrics_invariants;
    Alcotest.test_case "trace matches stats" `Quick test_trace_matches_stats;
    Alcotest.test_case "shared collector sums" `Quick test_shared_collector;
    Alcotest.test_case "disabled obs inert" `Quick test_disabled_obs_is_inert;
  ]
