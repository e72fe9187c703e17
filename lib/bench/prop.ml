(* Propagation throughput on the DIA workload: the experiment behind
   the propagation scheme (original clauses on eager counters,
   learned constraints on two watched literals; see State).

   One record per model: the PO incremental phi_0..phi_d iteration,
   with an observability collector capturing the propagation count and
   the wall time spent inside the propagate and backtrack phases.

   Two throughput numbers per run:

   - wall props/sec: propagations over the whole iteration's wall time,
     which also moves with the search path and the analysis cost.

   - engine props/sec: propagations over the wall time spent inside
     the propagate and backtrack spans only.  Every propagation is
     assigned once (propagate) and unassigned at most once
     (backtrack), and both walks are exactly the propagation
     bookkeeping: the originals' occurrence lists both ways, two
     watches per learned constraint going down and the parked registry
     coming back up.  This isolates the data-structure cost per
     propagation from analysis/heuristic time, so it is the headline
     metric. *)

module ST = Qbf_solver.Solver_types
module D = Qbf_models.Diameter
module Obs = Qbf_obs.Obs
module Profile = Qbf_obs.Profile
module Limits = Qbf_run.Limits

type result = {
  model : string;
  report : D.report;
  time_s : float; (* wall seconds over the whole iteration *)
  propagations : int;
  propagate_s : float; (* wall seconds inside the propagate phase *)
  backtrack_s : float; (* wall seconds inside the backtrack phase *)
  decisions : int;
  learned : int; (* learned clauses + cubes over the whole iteration *)
}

let wall_props_per_sec r =
  float_of_int r.propagations /. Float.max 1e-6 r.time_s

let engine_props_per_sec r =
  float_of_int r.propagations /. Float.max 1e-6 (r.propagate_s +. r.backtrack_s)

let run ?(timeout_s = 60.) ?(max_n = 64) model =
  let deadline = Limits.Deadline.after timeout_s in
  let obs = Obs.make ~profile:(Profile.create ()) () in
  let config =
    ST.(
      default_config
      |> with_heuristic Partial_order
      |> with_obs (Some obs)
      |> with_should_stop
           (Some (fun () -> Limits.Deadline.expired deadline))
      |> with_stop_interval 64)
  in
  let t0 = Unix.gettimeofday () in
  let report = D.compute_report ~config ~max_n ~mode:`Incremental model in
  let time_s = Unix.gettimeofday () -. t0 in
  let counter name =
    Option.value ~default:0 (List.assoc_opt name (Obs.counters obs))
  in
  let phase_wall name =
    List.fold_left
      (fun acc (sp : Profile.span_snapshot) ->
        if sp.Profile.phase = name then acc +. sp.Profile.wall_s else acc)
      0.
      (Profile.snapshot obs.Obs.profile)
  in
  {
    model = Qbf_models.Model.name model;
    report;
    time_s;
    propagations = counter "propagations";
    propagate_s = phase_wall "propagate";
    backtrack_s = phase_wall "backtrack";
    decisions = counter "decisions";
    learned = counter "learned_clauses" + counter "learned_cubes";
  }

(* ------------------------------------------------------------------ *)
(* DB-reduction on/off series (the learned-DB lifecycle evidence):
   the same DIA iteration on a large-DB instance with quality-based
   reduction enabled vs. disabled.  Reduction must not change the
   diameter, and [deleted] counts the constraints the reduce cycles
   dropped — the bound the keep-fraction schedule puts on DB growth. *)

type db_run = {
  db_report : D.report;
  db_time_s : float;
  db_learned : int; (* constraints learned over the whole iteration *)
  db_deleted : int; (* dropped by reduction cycles (0 when off) *)
  db_decisions : int;
}

type db_result = {
  db_model : string;
  reduce_on : db_run;
  reduce_off : db_run;
}

let db_agree r =
  r.reduce_on.db_report.D.diameter = r.reduce_off.db_report.D.diameter
  || r.reduce_on.db_report.D.diameter = None
  || r.reduce_off.db_report.D.diameter = None

let run_db_engine ~timeout_s ~max_n ~reduce model =
  let deadline = Limits.Deadline.after timeout_s in
  let obs = Obs.make () in
  let config =
    ST.(
      default_config
      |> with_heuristic Partial_order
      |> with_restarts true
      |> with_db_reduction reduce
      |> with_db_reduce_interval 1024
      |> with_obs (Some obs)
      |> with_should_stop
           (Some (fun () -> Limits.Deadline.expired deadline))
      |> with_stop_interval 64)
  in
  let t0 = Unix.gettimeofday () in
  let db_report = D.compute_report ~config ~max_n ~mode:`Incremental model in
  let db_time_s = Unix.gettimeofday () -. t0 in
  let counter name =
    Option.value ~default:0 (List.assoc_opt name (Obs.counters obs))
  in
  {
    db_report;
    db_time_s;
    db_learned = counter "learned_clauses" + counter "learned_cubes";
    db_deleted = counter "deleted_constraints";
    db_decisions = counter "decisions";
  }

let run_db ?(timeout_s = 60.) ?(max_n = 64) model =
  {
    db_model = Qbf_models.Model.name model;
    reduce_on = run_db_engine ~timeout_s ~max_n ~reduce:true model;
    reduce_off = run_db_engine ~timeout_s ~max_n ~reduce:false model;
  }

(* ------------------------------------------------------------------ *)
(* Console table *)

let header =
  [
    "model"; "d"; "time (s)"; "decisions"; "learned"; "props/s";
    "engine props/s";
  ]

let fmt_rate v =
  if v >= 1e6 then Printf.sprintf "%.2fM" (v /. 1e6)
  else Printf.sprintf "%.0fk" (v /. 1e3)

let row_cells r =
  [
    r.model;
    (match r.report.D.diameter with
    | Some d -> string_of_int d
    | None -> Printf.sprintf ">=%d" r.report.D.lower_bound);
    Printf.sprintf "%.3f" r.time_s;
    string_of_int r.decisions;
    string_of_int r.learned;
    fmt_rate (wall_props_per_sec r);
    fmt_rate (engine_props_per_sec r);
  ]

let db_header =
  [
    "model"; "d"; "on (s)"; "off (s)"; "learned on"; "deleted";
    "learned off"; "agree";
  ]

let db_row_cells r =
  [
    r.db_model;
    (match r.reduce_on.db_report.D.diameter with
    | Some d -> string_of_int d
    | None -> Printf.sprintf ">=%d" r.reduce_on.db_report.D.lower_bound);
    Printf.sprintf "%.3f" r.reduce_on.db_time_s;
    Printf.sprintf "%.3f" r.reduce_off.db_time_s;
    string_of_int r.reduce_on.db_learned;
    string_of_int r.reduce_on.db_deleted;
    string_of_int r.reduce_off.db_learned;
    (if db_agree r then "yes" else "NO");
  ]
