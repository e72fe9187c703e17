(* The [dia] workload: the paper's diameter iteration, through
   [Diameter.compute_report] with qdiameter's defaults (incremental
   session, watched propagation, max-n 40) and no wall-clock budget.
   Every model runs under both of the paper's solvers: QuBE(PO) on the
   non-prenex eq. (14) and QuBE(TO) on its ∃↑∀↑ prenexing, eq. (16).
   A job is one bound phi_n; all of the time is search inside warm
   incremental sessions, with no I/O, proofs, checker or child
   processes. *)

module D = Qbf_models.Diameter
module ST = Qbf_solver.Solver_types
module Obs = Qbf_obs.Obs
module Profile = Qbf_obs.Profile

let models =
  [ "gray3"; "counter4"; "shift6"; "semaphore6"; "dme5"; "ring10"; "counter3"; "gray2" ]

let max_n = 40

type job = {
  id : int;
  name : string;
  model : Qbf_models.Model.t;
  style : D.style;
  diameter : int;  (** the BFS oracle's *)
}

type t = { jobs : job array; oracle_s : float }

let style_name = function D.Nonprenex -> "po" | D.Prenex -> "to"

(* Models, their BFS diameters, and the iterations in a fixed order.
   The inputs are the paper's models, so no seed changes them; nor does
   one order them, because the iterations share the process's heap and
   its peak size depends on their order (by up to 13% across seeds). *)
let setup ?(models = models) () =
  let t0 = Work.now () in
  let oracles =
    List.map
      (fun name ->
        let m = Qbf_models.Families.by_name name in
        (name, m, Qbf_models.Reach.diameter m))
      models
  in
  let oracle_s = Work.now () -. t0 in
  let jobs =
    List.concat_map
      (fun (name, model, diameter) ->
        List.map
          (fun style -> { id = 0; name; model; style; diameter })
          [ D.Nonprenex; D.Prenex ])
      oracles
  in
  { jobs = Array.of_list (List.mapi (fun id j -> { j with id }) jobs); oracle_s }

let sizes t =
  [
    ("iterations", Array.length t.jobs);
    ("bounds", Array.fold_left (fun acc j -> acc + j.diameter + 1) 0 t.jobs);
  ]

(* The [should_stop] poll never stops the search: it only lets the
   speed be sampled inside a long iteration. *)
let config ~obs ~speed style =
  ST.(
    default_config
    |> with_heuristic
         (match style with D.Nonprenex -> Partial_order | D.Prenex -> Total_order)
    |> with_propagation Watched |> with_obs obs
    |> with_should_stop
         (Some
            (fun () ->
              Speed.tick_within speed;
              false))
    |> with_stop_interval 64)

let run ?(speed = Speed.create ()) ~tracer t =
  let layer = Work.acc () in
  let latencies = ref [] and wrong = ref [] in
  let attempted = ref 0 and successful = ref 0 in
  let iteration j =
      let obs =
        match tracer with
        | Some _ -> Some (Obs.make ~profile:(Profile.create ()) ())
        | None -> None
      in
      (* solver time so far in this iteration, from the profile *)
      let solver_s () =
        match obs with
        | Some o ->
            let snap = Profile.snapshot o.Obs.profile in
            Work.phase_wall snap "build" +. Work.phase_wall snap "solve"
        | None -> 0.
      in
      let last = ref (Work.now ()) and last_spent = ref (Speed.spent speed) in
      let last_solver = ref 0. in
      let on_bound (b : D.bound_stat) =
        let now = Work.now () and spent = Speed.spent speed in
        latencies := (now -. !last -. (spent -. !last_spent)) :: !latencies;
        last := now;
        last_spent := spent;
        (match tracer with
        | Some tr ->
            let s = solver_s () in
            Spans.record tr ~name:"solver" ~t0:(now -. (s -. !last_solver)) ~t1:now;
            last_solver := s
        | None -> ());
        incr attempted;
        Work.add_stats layer b.D.stats;
        Work.addi layer "models.carried_clauses" b.D.carried_clauses;
        let expected = if b.D.bound < j.diameter then ST.True else ST.False in
        match b.D.outcome with
        | ST.Unknown -> Work.addi layer "solver.budget_stops" 1
        | o when o = expected -> incr successful
        | o ->
            wrong :=
              Printf.sprintf "dia %s/%s phi_%d: %s, BFS says %s" j.name
                (style_name j.style) b.D.bound
                (Qbf_solver.Outcome.to_string o)
                (Qbf_solver.Outcome.to_string expected)
              :: !wrong
      in
      let report =
        Spans.in_job tracer j.id (fun () ->
            Spans.wrap tracer "models" (fun () ->
                D.compute_report ~config:(config ~obs ~speed j.style) ~style:j.style
                  ~max_n ~on_bound j.model))
      in
      (match obs with
      | Some o ->
          Work.add layer "solver.solve_s" (solver_s ());
          Work.add_profile layer (Profile.snapshot o.Obs.profile)
      | None -> ());
      if report.D.stop = D.Complete && report.D.diameter <> Some j.diameter then
        wrong :=
          Printf.sprintf "dia %s/%s: diameter %s, BFS says %d" j.name
            (style_name j.style)
            (match report.D.diameter with
            | Some d -> string_of_int d
            | None -> "?")
            j.diameter
          :: !wrong
  in
  let (), tm =
    Work.timed speed (fun () ->
        Array.iter
          (fun j ->
            Speed.tick speed;
            iteration j)
          t.jobs)
  in
  Work.addi layer "models.bounds" !attempted;
  let latencies = List.rev !latencies in
  {
    Work.wall_s = tm.Work.wall;
    cpu_s = tm.Work.cpu;
    raw_wall_s = tm.Work.raw_wall;
    raw_cpu_s = tm.Work.raw_cpu;
    latencies;
    bound_times = latencies;
    attempted = !attempted;
    successful = !successful;
    errors = 0;
    wrong = List.rev !wrong;
    counts = ("bounds", !attempted) :: Work.counts_of layer Work.engine_counts;
    layer = Work.to_list layer;
  }
