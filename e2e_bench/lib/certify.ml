(* The [certify] workload: the certified one-shot path of
   [qube --proof FILE] followed by [qcheck_proof], run in-process.  A
   job is [Run.load], then [Run.solve ~proof_file] under one fixed node
   budget with QuBE(PO) (proof mode forces pure literals off), then
   [Checker.check_file ~formula] on the certificate.  Solves run cold,
   the opposite use of the solver from [dia]; proof emission and the
   independent checker do a large share of the work.

   The corpus is drawn with the [Qbf_bench.Suites] generators from the
   paper's four suites: NCF, FPV, DIA phi_n (with gray3 phi_0..phi_7)
   and miniscoped PROB/FIXED. *)

module ST = Qbf_solver.Solver_types
module Run = Qbf_run.Run
module Suites = Qbf_bench.Suites
module Runner = Qbf_bench.Runner
module Checker = Qbf_check.Checker
module Obs = Qbf_obs.Obs
module Profile = Qbf_obs.Profile

let max_nodes = 2000

(* DIA models with the largest bound of each; gray3 phi_7 is the
   costliest job of the corpus. *)
let dia_models = [ ("gray3", 7); ("counter3", 6); ("ring4", 4); ("semaphore3", 6); ("dme3", 5) ]

let ncf_per_setting = 16
let fpv_count = 8
let prob_count = 20
let fixed_count = 20

type job = {
  id : int;
  name : string;
  path : string;
  expect : ST.outcome option;  (** the BFS oracle's, on DIA jobs *)
}

type t = { jobs : job array; dir : string; oracle_s : float }

let write_formula path f =
  if Qbf_core.Prefix.is_prenex (Qbf_core.Formula.prefix f) then
    Qbf_io.Qdimacs.write_file path f
  else Qbf_io.Nqdimacs.write_file path f

let setup ~seed ~dir =
  let rng = Qbf_gen.Rng.create seed in
  let plain (i : Runner.instance) = (i, None) in
  let random =
    List.map plain
      (Suites.ncf_suite rng ~per_setting:ncf_per_setting
         ~settings:(Suites.ncf_settings ~vars:[ 4 ] ()))
    @ List.map plain (Suites.fpv_suite rng ~count:fpv_count)
    @ List.map plain (Suites.prob_suite rng ~count:prob_count)
    @ List.map plain (Suites.fixed_suite rng ~count:fixed_count)
  in
  let t0 = Work.now () in
  let dia =
    List.concat_map
      (fun (name, cap) ->
        let model = Qbf_models.Families.by_name name in
        let d = Qbf_models.Reach.diameter model in
        List.mapi
          (fun n i -> (i, Some (if n < d then ST.True else ST.False)))
          (Suites.dia_suite ~cap [ model ]))
      dia_models
  in
  let oracle_s = Work.now () -. t0 in
  let all = Qbf_gen.Rng.shuffle rng (Array.of_list (random @ dia)) in
  let jobs =
    Array.mapi
      (fun id ((i : Runner.instance), expect) ->
        let path = Filename.concat dir (Printf.sprintf "job%03d.q" id) in
        write_formula path i.Runner.po;
        { id; name = i.Runner.name; path; expect })
      all
  in
  { jobs; dir; oracle_s }

let sizes t = [ ("jobs", Array.length t.jobs); ("max_nodes", max_nodes) ]

(* As in [Dia], the [should_stop] poll only samples the speed. *)
let config ~obs ~speed =
  ST.(
    default_config |> with_heuristic Partial_order |> with_propagation Watched
    |> with_obs obs
    |> with_should_stop
         (Some
            (fun () ->
              Speed.tick_within speed;
              false)))

let contradicts j o =
  match j.expect with
  | Some e when e <> o ->
      Some
        (Printf.sprintf "certify %s: %s, BFS says %s" j.name
           (Qbf_solver.Outcome.to_string o)
           (Qbf_solver.Outcome.to_string e))
  | _ -> None

(* One job; the answer is [`Certified] only when the checker accepted a
   certificate of it (and, on DIA jobs, it equals the oracle). *)
let run_job ~speed ~tracer ~layer ~limits t j =
  let timed span metric f =
    let t0 = Work.now () and spent = Speed.spent speed in
    let v = Spans.wrap tracer span f in
    let dt = Work.now () -. t0 -. (Speed.spent speed -. spent) in
    Work.add layer metric dt;
    (v, dt)
  in
  match timed "io" "io.load_s" (fun () -> Run.load j.path) with
  | Error e, _ -> `Error (Qbf_run.Run_error.to_string e)
  | Ok f, _ ->
      Work.addi layer "io.bytes" (Work.file_size j.path);
      let obs =
        match tracer with
        | Some _ -> Some (Obs.make ~profile:(Profile.create ()) ())
        | None -> None
      in
      let proof_file = Filename.concat t.dir (Printf.sprintf "job%03d.qrp" j.id) in
      let r, solve_s =
        timed "solver" "solver.solve_s" (fun () ->
            Run.solve ~limits ~config:(config ~obs ~speed) ~proof_file f)
      in
      Work.add_stats layer r.Run.stats;
      Option.iter (Work.add_profile layer) r.Run.profile;
      let status =
        match (r.Run.outcome, r.Run.witness) with
        | ST.Unknown, _ ->
            Work.addi layer "solver.budget_stops" 1;
            `Undecided
        | o, ST.No_witness -> (
            Work.addi layer "proof.conclusive" 1;
            Work.addi layer "proof.unwitnessed" 1;
            match contradicts j o with Some m -> `Wrong m | None -> `Uncertified)
        | o, ST.Proof_trace { path; steps; _ } -> (
            Work.addi layer "proof.conclusive" 1;
            Work.addi layer "proof.records" steps;
            Work.addi layer "proof.bytes" (Work.file_size path);
            match timed "check" "check.replay_s" (fun () -> Checker.check_file ~formula:f path) with
            | Error _, _ ->
                Work.addi layer "check.rejected" 1;
                `Uncertified
            | Ok v, _ -> (
                Work.addi layer "check.steps" v.Checker.steps;
                if not (List.mem (o = ST.True) v.Checker.conclusions) then
                  `Wrong
                    (Printf.sprintf "certify %s: answered %s, its certificate proves otherwise"
                       j.name (Qbf_solver.Outcome.to_string o))
                else
                  match contradicts j o with
                  | Some m -> `Wrong m
                  | None ->
                      Work.addi layer "proof.certified" 1;
                      `Certified))
      in
      (try Sys.remove proof_file with Sys_error _ -> ());
      if status <> `Certified then Work.add layer "solver.wasted_s" solve_s;
      status

let run ?(speed = Speed.create ()) ~tracer t =
  let layer = Work.acc () in
  let limits = Qbf_run.Limits.make ~max_nodes () in
  let latencies = ref [] and wrong = ref [] in
  let successful = ref 0 and errors = ref 0 in
  let job j =
    Speed.tick speed;
    let t0 = Work.now () and spent = Speed.spent speed in
    let status =
      Spans.in_job tracer j.id (fun () -> run_job ~speed ~tracer ~layer ~limits t j)
    in
    latencies := (Work.now () -. t0 -. (Speed.spent speed -. spent)) :: !latencies;
    match status with
    | `Certified -> incr successful
    | `Undecided | `Uncertified -> ()
    | `Wrong m -> wrong := m :: !wrong
    | `Error m ->
        incr errors;
        Printf.eprintf "certify %s: %s\n%!" j.name m
  in
  let (), tm = Work.timed speed (fun () -> Array.iter job t.jobs) in
  {
    Work.wall_s = tm.Work.wall;
    cpu_s = tm.Work.cpu;
    raw_wall_s = tm.Work.raw_wall;
    raw_cpu_s = tm.Work.raw_cpu;
    latencies = List.rev !latencies;
    bound_times = [];
    attempted = Array.length t.jobs;
    successful = !successful;
    errors = !errors;
    wrong = List.rev !wrong;
    counts =
      Work.counts_of layer
        (Work.engine_counts
        @ [ ("proof_records", "proof.records"); ("check_steps", "check.steps") ]);
    layer = Work.to_list layer;
  }
