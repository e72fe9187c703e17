(* Benchmark-harness tests: comparison counters, medians, suites. *)

module B = Qbf_bench.Runner
module T1 = Qbf_bench.Table1
module ST = Qbf_solver.Solver_types

let fake_run ?(outcome = ST.True) time = { B.outcome; time }

let timeout_run = fake_run ~outcome:ST.Unknown 1.

let test_table1_counters () =
  let row = T1.empty_row "t" "s" 0.1 in
  let row = T1.add_comparison row ~po:(fake_run 0.1) ~to_:(fake_run 2.) in
  Alcotest.(check int) "slower" 1 row.T1.slower;
  Alcotest.(check int) "order slower" 1 row.T1.order_slower;
  let row = T1.add_comparison row ~po:(fake_run 2.) ~to_:(fake_run 0.1) in
  Alcotest.(check int) "faster" 1 row.T1.faster;
  Alcotest.(check int) "order faster" 1 row.T1.order_faster;
  let row = T1.add_comparison row ~po:(fake_run 0.5) ~to_:(fake_run 0.55) in
  Alcotest.(check int) "equal" 1 row.T1.equal;
  let row = T1.add_comparison row ~po:timeout_run ~to_:(fake_run 0.5) in
  Alcotest.(check int) "po timeout" 1 row.T1.po_timeout;
  let row = T1.add_comparison row ~po:(fake_run 0.5) ~to_:timeout_run in
  Alcotest.(check int) "to timeout" 1 row.T1.to_timeout;
  let row = T1.add_comparison row ~po:timeout_run ~to_:timeout_run in
  Alcotest.(check int) "both timeout" 1 row.T1.both_timeout;
  Alcotest.(check int) "total" 6 row.T1.total

let test_median () =
  Alcotest.(check (float 1e-9)) "odd" 2. (Qbf_bench.Report.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-9)) "even" 1.5
    (Qbf_bench.Report.median [ 1.; 2.; 0.; 3. ])

let test_render_table () =
  let s =
    Qbf_bench.Report.render_table [ "a"; "bb" ] [ [ "xxx"; "y" ]; [ "1"; "2" ] ]
  in
  Alcotest.(check bool) "contains header" true
    (String.length s > 0 && String.index_opt s 'a' <> None)

let test_runner_solves () =
  let f = Util.paper_formula_1 () in
  let inst = B.instance ~strategies:Qbf_prenex.Prenexing.all ~name:"f1" f in
  Alcotest.(check int) "four strategies" 4 (List.length inst.B.tos);
  let r = B.run_instance (B.budget 5.) inst in
  Alcotest.check Util.outcome "po false" ST.False r.B.po_run.B.outcome;
  List.iter
    (fun (_, run) -> Alcotest.check Util.outcome "to false" ST.False run.B.outcome)
    r.B.to_runs

let test_suites_build () =
  let rng = Qbf_gen.Rng.create 1 in
  let ncf =
    Qbf_bench.Suites.ncf_suite rng ~per_setting:1
      ~settings:(Qbf_bench.Suites.ncf_settings ~vars:[ 4 ] ~ratios:[ 2.0 ] ~lpcs:[ 3 ] ())
  in
  Alcotest.(check int) "one ncf instance" 1 (List.length ncf);
  let dia = Qbf_bench.Suites.dia_suite ~cap:1 [ Qbf_models.Families.counter ~bits:2 ] in
  Alcotest.(check int) "dia instances" 2 (List.length dia);
  let fpv = Qbf_bench.Suites.fpv_suite rng ~count:3 in
  Alcotest.(check int) "fpv instances" 3 (List.length fpv)

let test_miniscope_filter () =
  (* prefix (7) instance passes the 20% filter *)
  let f = Util.paper_formula_1_prenex () in
  (match Qbf_bench.Suites.miniscoped_instance ~name:"x" f with
  | Some inst ->
      Alcotest.(check bool) "po not prenex" false
        (Qbf_core.Prefix.is_prenex (Qbf_core.Formula.prefix inst.B.po))
  | None -> Alcotest.fail "expected the instance to pass the filter");
  (* a purely existential formula trivially fails it *)
  let p = Qbf_core.Prefix.of_blocks ~nvars:2 [ (Qbf_core.Quant.Exists, [ 0; 1 ]) ] in
  let g = Qbf_core.Formula.make p [ Util.clause [ 1; 2 ] ] in
  Alcotest.(check bool) "no structure, filtered out" true
    (Qbf_bench.Suites.miniscoped_instance ~name:"y" g = None)

(* Cross-consistency at suite scale: QuBE(PO) on the original and
   QuBE(TO) on any prenexing must agree whenever both conclude. *)
let test_po_to_agree () =
  let rng = Qbf_gen.Rng.create 2718 in
  let instances =
    Qbf_bench.Suites.fpv_suite rng ~count:6
    @ Qbf_bench.Suites.ncf_suite rng ~per_setting:2
        ~settings:
          (Qbf_bench.Suites.ncf_settings ~vars:[ 4 ] ~ratios:[ 2.0 ]
             ~lpcs:[ 3 ] ())
    @ Qbf_bench.Suites.dia_suite ~cap:2 [ Qbf_models.Families.counter ~bits:2 ]
  in
  List.iter
    (fun inst ->
      let r = B.run_instance (B.budget 3.) inst in
      List.iter
        (fun (sn, to_run) ->
          match (r.B.po_run.B.outcome, to_run.B.outcome) with
          | ST.Unknown, _ | _, ST.Unknown -> ()
          | po, to_ ->
              Alcotest.check Util.outcome
                (Printf.sprintf "%s/%s" r.B.inst sn)
                po to_)
        r.B.to_runs)
    instances

let suite =
  [
    Alcotest.test_case "po/to agreement across suites" `Slow test_po_to_agree;
    Alcotest.test_case "table1 counters" `Quick test_table1_counters;
    Alcotest.test_case "median" `Quick test_median;
    Alcotest.test_case "render table" `Quick test_render_table;
    Alcotest.test_case "runner end to end" `Quick test_runner_solves;
    Alcotest.test_case "suites build" `Quick test_suites_build;
    Alcotest.test_case "miniscope filter" `Quick test_miniscope_filter;
  ]
