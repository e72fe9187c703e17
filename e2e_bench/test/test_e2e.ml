(* The benchmark's own arithmetic: the percentile rule, span self time
   and job reconciliation on hand-built span trees, and work-fingerprint
   equality on tiny runs. *)

open Perf_e2e

let close = Alcotest.float 1e-9

(* ------------------------------------------------------------------ *)
(* Percentiles                                                         *)

let ints n = List.init n (fun i -> float_of_int (i + 1))

let test_p90_rule () =
  let p = Stat.percentile ~q:0.9 (ints 99) in
  Alcotest.(check (option (float 0.))) "p90 withheld at 99" None p.Stat.value;
  Alcotest.(check int) "sample count still reported" 99 p.Stat.samples;
  let p = Stat.percentile ~q:0.9 (ints 100) in
  (* inclusive interpolation, as Python's statistics.quantiles *)
  Alcotest.(check (option close)) "p90 of 1..100" (Some 90.1) p.Stat.value;
  Alcotest.(check int) "count" 100 p.Stat.samples

let test_p50_rule () =
  Alcotest.(check (option (float 0.)))
    "p50 withheld at 19" None
    (Stat.percentile ~q:0.5 (ints 19)).Stat.value;
  Alcotest.(check (option close))
    "p50 of 1..20" (Some 10.5)
    (Stat.percentile ~q:0.5 (ints 20)).Stat.value;
  Alcotest.(check (option (float 0.)))
    "no samples" None (Stat.percentile ~q:0.5 []).Stat.value

let test_median () =
  Alcotest.check close "odd" 2. (Stat.median [ 3.; 1.; 2. ]);
  Alcotest.check close "even" 2.5 (Stat.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check close "unsorted order" 5. (Stat.median [ 9.; 5.; 1. ])

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

let sp id name ~job ~parent t0 t1 = { Spans.id; name; job; parent; t0; t1 }

(* job 0: [0,10] with io [1,2], solver [2,7] (which holds a phase span
   [3,5]) and check [7,9]; job 1: [10,14] with solver [10,13]. *)
let tree =
  [
    sp 0 "job" ~job:0 ~parent:(-1) 0. 10.;
    sp 1 "io" ~job:0 ~parent:0 1. 2.;
    sp 2 "solver" ~job:0 ~parent:0 2. 7.;
    sp 3 "analyze" ~job:0 ~parent:2 3. 5.;
    sp 4 "check" ~job:0 ~parent:0 7. 9.;
    sp 5 "job" ~job:1 ~parent:(-1) 10. 14.;
    sp 6 "solver" ~job:1 ~parent:5 10. 13.;
  ]

let self_of name = Spans.self_of (Spans.self_by_name tree) name

let test_self_time () =
  Alcotest.check close "io" 1. (self_of "io");
  Alcotest.check close "solver minus its child, plus job 1's" (3. +. 3.)
    (self_of "solver");
  Alcotest.check close "analyze" 2. (self_of "analyze");
  Alcotest.check close "check" 2. (self_of "check")

let test_unaccounted () =
  (* job 0: 10 - (1 + 5 + 2) = 2; job 1: 4 - 3 = 1 *)
  Alcotest.check close "job time outside layers" 3. (Spans.unaccounted tree)

let test_overlap_and_clip () =
  let spans =
    [
      sp 0 "job" ~job:0 ~parent:(-1) 0. 10.;
      sp 1 "a" ~job:0 ~parent:0 1. 4.;
      sp 2 "b" ~job:0 ~parent:0 3. 6.;
      sp 3 "c" ~job:0 ~parent:0 8. 12.;
    ]
  in
  (* children cover [1,6] and [8,10] of the root *)
  Alcotest.check close "union, clipped" 3. (Spans.unaccounted spans)

let test_recorder () =
  let ticks = ref 0. in
  let clock () =
    ticks := !ticks +. 1.;
    !ticks
  in
  let tr = Spans.create ~clock () in
  Spans.job tr 7 (fun () ->
      Spans.span tr "io" (fun () -> ());
      Spans.span tr "solver" (fun () ->
          Spans.record tr ~name:"phase" ~t0:4.5 ~t1:5.));
  let spans = Spans.spans tr in
  let find name = List.find (fun s -> s.Spans.name = name) spans in
  let root = find "job" and solver = find "solver" in
  Alcotest.(check int) "four spans" 4 (List.length spans);
  Alcotest.(check bool) "all in job 7" true
    (List.for_all (fun (s : Spans.span) -> s.job = 7) spans);
  Alcotest.(check int) "io under the job" root.Spans.id (find "io").Spans.parent;
  Alcotest.(check int) "phase under the solver" solver.Spans.id
    (find "phase").Spans.parent;
  (* clock: job 1..6, io 2..3, solver 4..5 (phase 4.5..5) *)
  Alcotest.check close "unaccounted" 3. (Spans.unaccounted spans);
  Alcotest.check close "solver self" 0.5
    (Spans.self_of (Spans.self_by_name spans) "solver")

(* ------------------------------------------------------------------ *)
(* Speed scaling                                                       *)

let sample at ref_s = { Speed.at; ref_s; cpu_s = ref_s }

(* A window of 2 s with one reference inside it: its time is left out,
   and a host on which the reference takes twice its nominal time runs
   the work at half the nominal speed. *)
let test_scaling () =
  let slow = 2. *. Speed.nominal_s in
  let a = [| sample 0. slow; sample 1. slow; sample 2.5 slow |] in
  let m = Speed.measure_samples a ~t0:slow ~t1:2.5 in
  Alcotest.(check int) "one reference inside" 1 m.Speed.refs;
  Alcotest.check close "raw leaves the reference out" (2.5 -. (2. *. slow)) m.Speed.raw_s;
  Alcotest.check close "half speed" (m.Speed.raw_s /. 2.) m.Speed.scaled_s;
  Alcotest.check close "reference CPU" slow m.Speed.ref_cpu_s

(* Each stretch is scaled by the median of the four samples around it:
   one outlying reference moves no stretch, and a step in speed moves
   the stretches it borders. *)
let test_scaling_local () =
  let n = Speed.nominal_s in
  let a =
    Array.init 10 (fun i ->
        sample (float_of_int i) (if i = 2 then 10. *. n else if i >= 6 then 2. *. n else n))
  in
  let m = Speed.measure_samples a ~t0:n ~t1:4. in
  Alcotest.check close "outlier ignored" m.Speed.raw_s m.Speed.scaled_s;
  let m = Speed.measure_samples a ~t0:(7. +. (2. *. n)) ~t1:9. in
  Alcotest.check close "slow stretch" (m.Speed.raw_s /. 2.) m.Speed.scaled_s

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)

let test_digest () =
  let a = Fingerprint.make [ ("decisions", 10); ("bounds", 2) ] in
  let b = Fingerprint.make [ ("bounds", 2); ("decisions", 10) ] in
  let c = Fingerprint.make [ ("bounds", 2); ("decisions", 11) ] in
  Alcotest.(check string) "order-free" (Fingerprint.digest a) (Fingerprint.digest b);
  Alcotest.(check bool) "a count moves the digest" false
    (Fingerprint.digest a = Fingerprint.digest c);
  Alcotest.(check int) "every name present" (List.length Fingerprint.names)
    (List.length a)

let fingerprint (r : Work.result) = Fingerprint.make r.Work.counts

(* Two jobs (gray2 under PO and TO), run twice untraced and once traced:
   same work every time, and every bound answered as the oracle says. *)
let test_tiny_dia () =
  let t = Dia.setup ~models:[ "gray2" ] () in
  let a = Dia.run ~tracer:None t in
  let b = Dia.run ~tracer:None t in
  let c = Dia.run ~tracer:(Some (Spans.create ())) t in
  Alcotest.(check int) "bounds" 8 a.Work.attempted;
  Alcotest.(check int) "all answered right" 8 a.Work.successful;
  Alcotest.(check (list string)) "no wrong answer" [] a.Work.wrong;
  Alcotest.(check string) "repeat" (Fingerprint.digest (fingerprint a))
    (Fingerprint.digest (fingerprint b));
  Alcotest.(check string) "traced" (Fingerprint.digest (fingerprint a))
    (Fingerprint.digest (fingerprint c))

let with_dir f =
  let dir = Filename.temp_dir ~temp_dir:"." "e2e_bench_test" "" in
  Fun.protect ~finally:(fun () -> Work.remove_tree dir) (fun () -> f dir)

(* Two originals and one repeat through a forked worker. *)
let test_tiny_serve () =
  with_dir (fun dir ->
      let t = Serve.setup ~originals:2 ~repeats:1 ~seed:5 ~dir () in
      let a = Serve.run ~tracer:None t in
      let b = Serve.run ~tracer:(Some (Spans.create ())) t in
      Alcotest.(check int) "jobs" 3 a.Work.attempted;
      Alcotest.(check (list string)) "no wrong answer" [] a.Work.wrong;
      Alcotest.(check int) "one cache hit" 1
        (List.assoc "cache_hits" (fingerprint a));
      Alcotest.(check string) "same work traced"
        (Fingerprint.digest (fingerprint a))
        (Fingerprint.digest (fingerprint b)))

let () =
  Alcotest.run "e2e_bench"
    [
      ( "percentile",
        [
          Alcotest.test_case "p90 needs 100 samples" `Quick test_p90_rule;
          Alcotest.test_case "p50 needs 20 samples" `Quick test_p50_rule;
          Alcotest.test_case "median" `Quick test_median;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "job unaccounted" `Quick test_unaccounted;
          Alcotest.test_case "overlap and clipping" `Quick test_overlap_and_clip;
          Alcotest.test_case "recorder nesting" `Quick test_recorder;
        ] );
      ( "speed",
        [
          Alcotest.test_case "scaling" `Quick test_scaling;
          Alcotest.test_case "local speed" `Quick test_scaling_local;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "digest" `Quick test_digest;
          Alcotest.test_case "tiny dia run" `Quick test_tiny_dia;
          Alcotest.test_case "tiny serve run" `Quick test_tiny_serve;
        ] );
    ]
