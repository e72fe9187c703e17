(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section VII) on the scaled-down suites of DESIGN.md.

   Usage:
     bench/main.exe [section ...] [--timeout S] [--per-setting N] [--full]

   Sections: table1-ncf table1-fpv table1-dia table1-eval
             fig3 fig4 fig5 fig6 fig7 dia-inc ablation
             all (default: all)

   The dia-inc section compares the incremental diameter session
   against the per-bound rebuild.  Every section prints its tables
   only; speed claims rest on e2e_bench/, which records noise and host
   provenance.

   Absolute run times differ from the paper's 2006 testbed; the shapes
   (who wins, by what factor, how scaling behaves) are the reproduction
   target.  See EXPERIMENTS.md for the paper-vs-measured record. *)

module ST = Qbf_solver.Solver_types
module B = Qbf_bench.Runner
module T1 = Qbf_bench.Table1
module Rep = Qbf_bench.Report
module Suites = Qbf_bench.Suites

type opts = {
  timeout : float;
  per_setting : int;
  fpv_count : int;
  eval_count : int;
  full : bool;
}

let default_opts =
  {
    timeout = 3.;
    per_setting = 6;
    fpv_count = 40;
    eval_count = 12;
    full = false;
  }

let rng () = Qbf_gen.Rng.create 20060406 (* DATE 2006 *)

let section title =
  Printf.printf "\n==== %s ====\n%!" title

(* ---------- Table I ----------------------------------------------------- *)

let eps_of o = Float.max 0.005 (o.timeout /. 600.)

let table1_rows o ~label instances =
  let results = List.map (B.run_instance (B.budget o.timeout)) instances in
  T1.of_results ~label ~eps:(eps_of o) results

let print_rows rows =
  print_endline
    (Rep.render_table T1.header (List.map T1.to_cells rows))

let table1_ncf o =
  section "Table I, rows 1-4: NCF vs the four prenexing strategies";
  let settings = Suites.ncf_settings () in
  let instances =
    Suites.ncf_suite (rng ()) ~per_setting:o.per_setting ~settings
  in
  Printf.printf "%d instances (%d settings x %d), timeout %.1fs\n%!"
    (List.length instances) (List.length settings) o.per_setting o.timeout;
  print_rows (table1_rows o ~label:"NCF" instances)

let table1_fpv o =
  section "Table I, row 5: FPV";
  let instances = Suites.fpv_suite (rng ()) ~count:o.fpv_count in
  Printf.printf "%d instances, timeout %.1fs\n%!" (List.length instances)
    o.timeout;
  print_rows (table1_rows o ~label:"FPV" instances)

let table1_dia o =
  section "Table I, row 6: DIA (diameter QBFs of the NuSMV-style models)";
  let models =
    if o.full then
      Suites.dia_models ~counter_bits:[ 2; 3; 4 ] ~semaphore_procs:[ 2; 3; 4 ]
        ~ring_gates:[ 3; 4; 5 ] ~dme_cells:[ 2; 3; 4 ] ()
    else Suites.dia_models ()
  in
  let instances = Suites.dia_suite ~cap:(if o.full then 10 else 6) models in
  Printf.printf "%d instances, timeout %.1fs\n%!" (List.length instances)
    o.timeout;
  print_rows (table1_rows o ~label:"DIA" instances)

let table1_eval o =
  section "Table I, rows 7-8: PROB and FIXED (miniscoped, PO/TO > 20%)";
  let prob = Suites.prob_suite (rng ()) ~count:o.eval_count in
  let fixed = Suites.fixed_suite (rng ()) ~count:o.eval_count in
  Printf.printf "PROB: %d instances pass the filter; FIXED: %d\n%!"
    (List.length prob) (List.length fixed);
  let prob_rows = table1_rows o ~label:"PROB" prob in
  let fixed_rows = table1_rows o ~label:"FIXED" fixed in
  print_rows (prob_rows @ fixed_rows)

(* ---------- Figures ------------------------------------------------------ *)

(* Figure 3: median QuBE(PO) vs the virtual best QuBE(TO)* over the four
   strategies, one point per NCF parameter setting. *)
let fig3 o =
  section "Figure 3: QUBE(TO)* vs QUBE(PO) on NCF (medians per setting)";
  let budget = B.budget o.timeout in
  let settings = Suites.ncf_settings () in
  let r = rng () in
  let points =
    List.map
      (fun s ->
        let insts = List.init o.per_setting (Suites.ncf_instance r s) in
        let results = List.map (B.run_instance budget) insts in
        let po_med =
          Rep.median (List.map (fun x -> x.B.po_run.B.time) results)
        in
        let to_star_med =
          Rep.median
            (List.map
               (fun x ->
                 List.fold_left
                   (fun best (_, run) -> Float.min best run.B.time)
                   infinity x.B.to_runs)
               results)
        in
        (s, po_med, to_star_med))
      settings
  in
  print_endline
    (Rep.render_table
       [ "setting"; "PO median (s)"; "TO* median (s)"; "winner" ]
       (List.map
          (fun ((s : Suites.ncf_setting), po, ts) ->
            [
              Printf.sprintf "v%d r%.1f l%d" s.Suites.var s.Suites.ratio
                s.Suites.lpc;
              Printf.sprintf "%.3f" po;
              Printf.sprintf "%.3f" ts;
              (if po < ts then "PO" else if ts < po then "TO*" else "=");
            ])
          points));
  print_endline
    (Rep.ascii_scatter ~timeout_s:o.timeout
       (List.map (fun (_, po, ts) -> (po, ts)) points))

let scatter_of_results ~label o results =
  print_endline
    (Rep.render_table
       [ "instance"; "PO (s)"; "TO (s)" ]
       (List.map
          (fun r ->
            let to_run = snd (List.hd r.B.to_runs) in
            [
              r.B.inst;
              Rep.fmt_time ~timeout:(B.timed_out r.B.po_run) r.B.po_run.B.time;
              Rep.fmt_time ~timeout:(B.timed_out to_run) to_run.B.time;
            ])
          results));
  let points =
    List.map
      (fun r -> (r.B.po_run.B.time, (snd (List.hd r.B.to_runs)).B.time))
      results
  in
  Printf.printf "\n%s: points above the diagonal favour QUBE(PO)\n"
    label;
  print_endline (Rep.ascii_scatter ~timeout_s:o.timeout points)

let fig4 o =
  section "Figure 4: QUBE(TO) vs QUBE(PO) on FPV";
  let budget = B.budget o.timeout in
  let instances = Suites.fpv_suite (rng ()) ~count:o.fpv_count in
  let results = List.map (B.run_instance budget) instances in
  scatter_of_results ~label:"FPV" o results

let fig5 o =
  section "Figure 5: QUBE(TO) vs QUBE(PO) on DIA";
  let budget = B.budget o.timeout in
  let models =
    if o.full then
      Suites.dia_models ~counter_bits:[ 2; 3; 4 ] ~semaphore_procs:[ 2; 3; 4 ] ()
    else Suites.dia_models ()
  in
  let instances = Suites.dia_suite ~cap:(if o.full then 10 else 6) models in
  let results = List.map (B.run_instance budget) instances in
  scatter_of_results ~label:"DIA" o results

(* Figure 6: diameter-calculation scaling: tested length vs cumulative
   time for counter<N> and semaphore<N>, PO vs TO. *)
let fig6 o =
  section "Figure 6: diameter scaling on counter<N> and semaphore<N>";
  let run_series model heuristic style =
    let deadline = Unix.gettimeofday () +. o.timeout *. 4. in
    let rec go n acc =
      if Unix.gettimeofday () > deadline || n > 40 then List.rev acc
      else
        let lay = Qbf_models.Diameter.build model ~n in
        let f =
          match style with
          | Qbf_models.Diameter.Nonprenex -> lay.Qbf_models.Diameter.formula
          | Qbf_models.Diameter.Prenex ->
              Qbf_prenex.Prenexing.apply Qbf_prenex.Prenexing.e_up_a_up
                lay.Qbf_models.Diameter.formula
        in
        let aux v = v >= lay.Qbf_models.Diameter.first_aux in
        let r =
          B.solve ~aux ~heuristic (B.budget (o.timeout *. 2.)) f
        in
        let acc = (n, r) :: acc in
        match r.B.outcome with
        | ST.True -> go (n + 1) acc
        | ST.False | ST.Unknown -> List.rev acc
    in
    go 0 []
  in
  let models =
    List.map
      (fun b -> Qbf_models.Families.counter ~bits:b)
      (if o.full then [ 2; 3; 4 ] else [ 2; 3 ])
    @ List.map
        (fun p -> Qbf_models.Families.semaphore ~procs:p)
        (if o.full then [ 2; 3; 4; 5 ] else [ 2; 3; 4 ])
  in
  List.iter
    (fun m ->
      let po =
        run_series m ST.Partial_order Qbf_models.Diameter.Nonprenex
      in
      let to_ = run_series m ST.Total_order Qbf_models.Diameter.Prenex in
      Printf.printf "\n%s (PO = triangles, TO = squares of the paper):\n"
        (Qbf_models.Model.name m);
      let line name series =
        Printf.printf "  %-3s" name;
        List.iter
          (fun (n, r) ->
            Printf.printf " %d:%s" n
              (Rep.fmt_time ~timeout:(B.timed_out r) r.B.time))
          series;
        let solved =
          List.filter (fun (_, r) -> r.B.outcome = ST.False) series
        in
        (match solved with
        | [ (n, _) ] -> Printf.printf "  => diameter %d" n
        | _ -> Printf.printf "  => not completed");
        print_newline ()
      in
      line "PO" po;
      line "TO" to_)
    models

let fig7 o =
  section "Figure 7: PROB and FIXED after miniscoping (PO/TO > 20%)";
  let budget = B.budget o.timeout in
  let prob = Suites.prob_suite (rng ()) ~count:o.eval_count in
  let fixed = Suites.fixed_suite (rng ()) ~count:o.eval_count in
  let results = List.map (B.run_instance budget) (prob @ fixed) in
  scatter_of_results ~label:"PROB+FIXED" o results

(* ---------- incremental DIA ---------------------------------------------- *)

(* Incremental sessions vs per-bound rebuild on the diameter iteration:
   the evidence behind `qdiameter --incremental` (ISSUE: the session
   must save >= 1.3x decisions or wall time on the counter family).
   Runs the paper's PO style, where the session carry-over pays off. *)
let dia_inc o =
  section "Incremental vs rebuild: the DIA diameter iteration (PO)";
  let models =
    List.map Qbf_models.Families.by_name
      (if o.full then
         [
           "counter2"; "counter3"; "counter4"; "ring3"; "ring4";
           "semaphore2"; "semaphore3"; "dme2"; "dme3"; "shift4";
         ]
       else
         [ "counter2"; "counter3"; "counter4"; "ring4"; "semaphore2"; "dme3" ])
  in
  let timeout_s = Float.max 60. (o.timeout *. 20.) in
  let results =
    List.map
      (fun m ->
        let r =
          Qbf_bench.Dia_inc.run ~timeout_s ~style:Qbf_models.Diameter.Nonprenex
            m
        in
        Printf.printf "%s: done (inc %.2fs, rebuild %.2fs)\n%!"
          (Qbf_models.Model.name m) r.Qbf_bench.Dia_inc.inc
            .Qbf_bench.Dia_inc.time_s
          r.Qbf_bench.Dia_inc.rebuild.Qbf_bench.Dia_inc.time_s;
        r)
      models
  in
  print_endline
    (Rep.render_table Qbf_bench.Dia_inc.header
       (List.map Qbf_bench.Dia_inc.row_cells results));
  (* modes must agree: a disagreement is a bug, not a data point *)
  List.iter
    (fun (r : Qbf_bench.Dia_inc.result) ->
      let d m = m.Qbf_bench.Dia_inc.report.Qbf_models.Diameter.diameter in
      if
        d r.Qbf_bench.Dia_inc.inc <> d r.Qbf_bench.Dia_inc.rebuild
        && d r.Qbf_bench.Dia_inc.inc <> None
        && d r.Qbf_bench.Dia_inc.rebuild <> None
      then
        Printf.printf "WARNING: %s: incremental and rebuild disagree!\n"
          r.Qbf_bench.Dia_inc.model)
    results

(* ---------- ablation ----------------------------------------------------- *)

(* Which engine ingredients carry the DIA behaviour: learning, pures,
   the aux-var cover hint (DESIGN.md section 6). *)
let ablation o =
  section "Ablation: engine ingredients on diameter QBFs";
  let cases =
    [
      (Qbf_models.Families.counter ~bits:3, 5);
      (Qbf_models.Families.counter ~bits:3, 6);
      (Qbf_models.Families.semaphore ~procs:3, 2);
      (Qbf_models.Families.dme ~cells:3, 2);
    ]
  in
  let rows =
    List.map
      (fun (m, n) ->
        let cells =
          Qbf_bench.Ablation.run ~timeout_s:o.timeout ~model:m ~n
        in
        Qbf_bench.Ablation.row_cells
          ~label:(Printf.sprintf "%s phi_%d" (Qbf_models.Model.name m) n)
          cells)
      cases
  in
  print_endline (Rep.render_table Qbf_bench.Ablation.header rows)

(* ---------- driver ------------------------------------------------------- *)

let sections =
  [
    ("table1-ncf", table1_ncf);
    ("table1-fpv", table1_fpv);
    ("table1-dia", table1_dia);
    ("table1-eval", table1_eval);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("dia-inc", dia_inc);
    ("ablation", ablation);
  ]

let () =
  let wanted = ref [] in
  let opts = ref default_opts in
  let rec parse = function
    | [] -> ()
    | "--timeout" :: v :: rest ->
        opts := { !opts with timeout = float_of_string v };
        parse rest
    | "--per-setting" :: v :: rest ->
        opts := { !opts with per_setting = int_of_string v };
        parse rest
    | "--full" :: rest ->
        opts :=
          {
            full = true;
            timeout = Float.max !opts.timeout 30.;
            per_setting = 10;
            fpv_count = 80;
            eval_count = 25;
          };
        parse rest
    | s :: rest when s = "all" || List.mem_assoc s sections ->
        wanted := s :: !wanted;
        parse rest
    | s :: _ ->
        Printf.eprintf "bench: unknown section or option %S\n" s;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let want s = !wanted = [] || List.mem "all" !wanted || List.mem s !wanted in
  List.iter (fun (name, run) -> if want name then run !opts) sections;
  Printf.printf "\nbench: done\n"
