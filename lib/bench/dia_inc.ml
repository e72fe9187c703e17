(* Incremental vs rebuild on the diameter iteration (the DIA
   workload): the experiment behind `qdiameter --incremental`.

   One record per model: both modes run the same phi_0..phi_d bound
   iteration, and they must agree on the diameter. *)

module ST = Qbf_solver.Solver_types
module D = Qbf_models.Diameter
module Limits = Qbf_run.Limits

type mode_run = {
  report : D.report;
  time_s : float; (* wall seconds over the whole iteration *)
}

type result = {
  model : string;
  inc : mode_run;
  rebuild : mode_run;
}

let decisions (r : mode_run) =
  List.fold_left
    (fun acc (b : D.bound_stat) -> acc + b.D.stats.ST.decisions)
    0 r.report.D.per_bound

(* rebuild-over-incremental; > 1 means the session pays off *)
let decision_ratio r =
  float_of_int (decisions r.rebuild) /. float_of_int (max 1 (decisions r.inc))

let run_mode ~timeout_s ~style ~max_n ~mode model =
  let deadline = Limits.Deadline.after timeout_s in
  let config =
    ST.(
      default_config
      |> with_heuristic
           (match style with
           | D.Nonprenex -> Partial_order
           | D.Prenex -> Total_order)
      |> with_should_stop
           (Some (fun () -> Limits.Deadline.expired deadline))
      |> with_stop_interval 64)
  in
  let t0 = Unix.gettimeofday () in
  let report = D.compute_report ~config ~style ~max_n ~mode model in
  { report; time_s = Unix.gettimeofday () -. t0 }

let run ?(timeout_s = 60.) ?(max_n = 64) ~style model =
  {
    model = Qbf_models.Model.name model;
    inc = run_mode ~timeout_s ~style ~max_n ~mode:`Incremental model;
    rebuild = run_mode ~timeout_s ~style ~max_n ~mode:`Rebuild model;
  }

(* ------------------------------------------------------------------ *)
(* Console table *)

let header =
  [ "model"; "d"; "inc (s)"; "rebuild (s)"; "dec inc"; "dec rb"; "ratio" ]

let row_cells r =
  [
    r.model;
    (match r.inc.report.D.diameter with
    | Some d -> string_of_int d
    | None -> Printf.sprintf ">=%d" r.inc.report.D.lower_bound);
    Printf.sprintf "%.3f" r.inc.time_s;
    Printf.sprintf "%.3f" r.rebuild.time_s;
    string_of_int (decisions r.inc);
    string_of_int (decisions r.rebuild);
    Printf.sprintf "%.2fx" (decision_ratio r);
  ]
