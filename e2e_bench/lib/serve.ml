(* The [serve] workload: one batch through [Supervisor.run] as
   [qubed --proof-dir] runs it — forked workers, pipe frames, the
   supervisor's ingest and hashing, its re-check of every certificate,
   and the result cache.  One worker and one configuration
   ([po-watched]), cache on, worker stats off (on in the traced run), a
   node budget, no wall-clock budget, no retries and no fault
   injection, so every run does the same work.

   The batch is distinct prenexed NCF instances (the [bench serve]
   generator, as inline QDIMACS) followed by a fixed minority of exact
   repeats of some of them: the originals fill the cache, the repeats
   read it.  Job latency is the supervisor's first-dispatch-to-settled
   time ([r_wall]); queue wait is reported apart. *)

module ST = Qbf_solver.Solver_types
module Run = Qbf_run.Run
module Supervisor = Qbf_serve.Supervisor
module Protocol = Qbf_serve.Protocol
module Checker = Qbf_check.Checker

let originals = 1600
let repeats = 160
let max_nodes = 1000

type t = {
  texts : string array;  (** originals first, then the repeats *)
  original_of : int array;  (** job id -> id of the job it repeats *)
  dir : string;
}

let generate rng =
  let f = Qbf_gen.Ncf.generate_ratio rng ~dep:4 ~var:6 ~ratio:2.2 ~lpc:4 in
  Qbf_prenex.Prenexing.apply Qbf_prenex.Prenexing.e_up_a_up f

(* Originals are distinct up to the supervisor's canonical hash, so the
   only cache hits are the repeats. *)
let setup ?(originals = originals) ?(repeats = repeats) ~seed ~dir () =
  let rng = Qbf_gen.Rng.create seed in
  let seen = Hashtbl.create 256 in
  let rec gen acc n =
    if n = originals then List.rev acc
    else
      let f = generate rng in
      let h = Qbf_serve.Hash.formula f in
      if Hashtbl.mem seen h then gen acc n
      else begin
        Hashtbl.add seen h ();
        gen (Qbf_io.Qdimacs.to_string f :: acc) (n + 1)
      end
  in
  let texts = Array.of_list (gen [] 0) in
  let picks = Qbf_gen.Rng.sample rng repeats originals in
  {
    texts = Array.append texts (Array.map (fun i -> texts.(i)) picks);
    original_of = Array.append (Array.init originals Fun.id) picks;
    dir;
  }

let sizes t =
  [ ("jobs", Array.length t.texts); ("max_nodes", max_nodes) ]

let policy ~stats ~proof_dir =
  {
    Supervisor.default_policy with
    Supervisor.workers = 1;
    race = [ "po-watched" ];
    retries = 0;
    (* a long silence is never a hang here: the only budget is nodes *)
    hang_s = 3600.;
    timeout_s = None;
    mem_mb = None;
    max_nodes = Some max_nodes;
    fault_p = 0.;
    cache = true;
    stats;
    proof_dir = Some proof_dir;
    seed = 0;
  }

let counter (s : Supervisor.summary) name =
  Option.value ~default:0 (List.assoc_opt name s.Supervisor.s_counters)

(* The engine counters and phases of a traced pass, from the stats
   frames its worker shipped. *)
let add_attempt_stats layer (r : Supervisor.report) =
  let metric (m : Qbf_obs.Metrics.snapshot) name =
    Option.value ~default:0 (List.assoc_opt name m.Qbf_obs.Metrics.counters)
  in
  List.iter
    (fun (a : Supervisor.attempt_stats) ->
      Option.iter
        (fun m ->
          Work.addi layer "solver.propagations" (metric m "propagations");
          Work.addi layer "solver.learned"
            (metric m "learned_clauses" + metric m "learned_cubes"))
        a.Supervisor.as_metrics;
      Option.iter (Work.add_profile layer) a.Supervisor.as_profile)
    r.Supervisor.r_attempt_stats

(* Validate one report against the benchmark's own re-check of its
   certificate.  A cache hit is judged by its original, which the caller
   has validated first. *)
let validate ~tracer ~layer t (r : Supervisor.report) =
  let id = r.Supervisor.r_id in
  let original = t.original_of.(id) in
  let outcome = Qbf_solver.Outcome.to_string in
  match r.Supervisor.r_outcome with
  | _ when r.Supervisor.r_cached ->
      (* a cache hit must repeat its original's answer *)
      if original = id then `Wrong (Printf.sprintf "serve job %d: cache hit on an original" id)
      else `Cached original
  | ST.Unknown -> (
      match r.Supervisor.r_stopped with
      | Some "resource" ->
          Work.addi layer "solver.budget_stops" 1;
          `Undecided
      | _ -> `Error (Option.value ~default:"undecided" r.Supervisor.r_error))
  | o -> (
      match r.Supervisor.r_proof with
      | None ->
          Work.addi layer "proof.conclusive" 1;
          Work.addi layer "proof.unwitnessed" 1;
          `Uncertified
      | Some path -> (
          let text = t.texts.(id) in
          let t0 = Work.now () in
          let loaded = Spans.wrap tracer "io" (fun () -> Run.load_string text) in
          Work.add layer "io.load_s" (Work.now () -. t0);
          match loaded with
          | Error e -> `Error (Qbf_run.Run_error.to_string e)
          | Ok f -> (
              Work.addi layer "proof.conclusive" 1;
              Work.addi layer "io.bytes" (String.length text);
              Work.addi layer "proof.bytes" (Work.file_size path);
              let t0 = Work.now () in
              let verdict = Spans.wrap tracer "check" (fun () -> Checker.check_file ~formula:f path) in
              Work.add layer "check.replay_s" (Work.now () -. t0);
              match verdict with
              | Error _ ->
                  Work.addi layer "check.rejected" 1;
                  `Uncertified
              | Ok v ->
                  Work.addi layer "check.steps" v.Checker.steps;
                  Work.addi layer "proof.records" v.Checker.steps;
                  if List.mem (o = ST.True) v.Checker.conclusions then begin
                    Work.addi layer "proof.certified" 1;
                    `Certified
                  end
                  else
                    `Wrong
                      (Printf.sprintf "serve job %d: answered %s, its certificate proves otherwise"
                         id (outcome o)))))

let run ?(speed = Speed.create ()) ~tracer t =
  let layer = Work.acc () in
  let proof_dir = Filename.concat t.dir "proofs" in
  Work.remove_tree proof_dir;
  Sys.mkdir proof_dir 0o755;
  let jobs =
    Array.to_list (Array.mapi (fun id text -> Protocol.job ~id (Run.Inline text)) t.texts)
  in
  let n = Array.length t.texts in
  let settled = Array.make n 0. and spent = Array.make n 0. in
  (* with one worker, a report comes between its answer and the next
     dispatch: the speed is sampled there, on an otherwise idle CPU *)
  let on_report (r : Supervisor.report) =
    settled.(r.Supervisor.r_id) <- Work.now ();
    spent.(r.Supervisor.r_id) <- Speed.spent speed;
    Speed.tick_within speed
  in
  let t0 = ref 0. and spent0 = ref 0. in
  let (reports, summary, self_s, children_s), tm =
    Work.timed speed (fun () ->
        let self0, children0 = Host.cpu () and cpu0 = Speed.spent_cpu speed in
        t0 := Work.now ();
        spent0 := Speed.spent speed;
        let reports, summary =
          Spans.wrap tracer "serve" (fun () ->
              Supervisor.run
                ~policy:(policy ~stats:(tracer <> None) ~proof_dir)
                ~on_report jobs)
        in
        let self1, children1 = Host.cpu () in
        let references = Speed.spent_cpu speed -. cpu0 in
        (reports, summary, self1 -. self0 -. references, children1 -. children0))
  in
  Work.add layer "serve.supervisor_cpu_s" self_s;
  Work.add layer "serve.worker_cpu_s" children_s;
  List.iter
    (fun (r : Supervisor.report) ->
      Work.addi layer "solver.decisions" r.Supervisor.r_decisions;
      add_attempt_stats layer r;
      if r.Supervisor.r_attempts > 0 then begin
        let id = r.Supervisor.r_id in
        let start = settled.(id) -. r.Supervisor.r_wall in
        (* the references sampled before this job's report came before it *)
        Work.add layer "serve.queue_s" (start -. !t0 -. (spent.(id) -. !spent0));
        Work.addi layer "serve.jobs_dispatched" 1;
        Work.add layer "serve.worker_solve_s" r.Supervisor.r_time;
        Work.add layer "serve.overhead_s" (r.Supervisor.r_wall -. r.Supervisor.r_time);
        Work.add layer "solver.solve_s" r.Supervisor.r_time;
        (* the job as the supervisor saw it: the worker's solve, then
           everything the benchmark cannot see into *)
        Option.iter
          (fun tr ->
            Spans.record_job tr ~job:id ~t0:start ~t1:settled.(id)
              [ ("solver", start, start +. r.Supervisor.r_time) ])
          tracer
      end)
    reports;
  List.iter
    (fun (name, key) -> Work.addi layer ("serve." ^ name) (counter summary key))
    [
      ("dispatches", "dispatches");
      ("spawns", "spawns");
      ("retries", "retries");
      ("cache_hits", "cache_hits");
      ("proofs_checked", "proofs_checked");
    ];
  Work.addi layer "serve.failures"
    (List.fold_left
       (fun acc l -> acc + counter summary ("failures_" ^ l))
       0 Qbf_run.Failure.all_labels);
  let hits = counter summary "cache_hits" and misses = counter summary "cache_misses" in
  Work.add layer "serve.cache_hit_ratio"
    (if hits + misses > 0 then float_of_int hits /. float_of_int (hits + misses) else 0.);
  (* validation, outside the timed batch: originals before repeats *)
  let ok = Array.make n false in
  let wrong = ref [] and errors = ref 0 in
  let by_id = Array.make n None in
  List.iter (fun (r : Supervisor.report) -> by_id.(r.Supervisor.r_id) <- Some r) reports;
  Array.iteri
    (fun id r ->
      match r with
      | None -> incr errors
      | Some r -> (
          match validate ~tracer ~layer t r with
          | `Certified -> ok.(id) <- true
          | `Undecided | `Uncertified ->
              (* a budget stop reports no solve time: it spent its wall *)
              Work.add layer "solver.wasted_s"
                (if r.Supervisor.r_time > 0. then r.Supervisor.r_time
                 else r.Supervisor.r_wall)
          | `Cached original -> (
              match by_id.(original) with
              | Some o when o.Supervisor.r_outcome = r.Supervisor.r_outcome ->
                  ok.(id) <- ok.(original)
              | _ ->
                  wrong :=
                    Printf.sprintf "serve job %d: cache hit differs from job %d" id original
                    :: !wrong)
          | `Wrong m -> wrong := m :: !wrong
          | `Error m ->
              incr errors;
              Printf.eprintf "serve job %d: %s\n%!" id m))
    by_id;
  Work.remove_tree proof_dir;
  let latencies =
    List.map (fun (r : Supervisor.report) -> r.Supervisor.r_wall) reports
  in
  {
    Work.wall_s = tm.Work.wall;
    cpu_s = tm.Work.cpu;
    raw_wall_s = tm.Work.raw_wall;
    raw_cpu_s = tm.Work.raw_cpu;
    latencies;
    bound_times = [];
    attempted = n;
    successful = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 ok;
    errors = !errors;
    wrong = List.rev !wrong;
    counts =
      Work.counts_of layer
        [
          ("decisions", "solver.decisions");
          ("budget_stops", "solver.budget_stops");
          ("proof_records", "proof.records");
          ("check_steps", "check.steps");
          ("dispatches", "serve.dispatches");
          ("spawns", "serve.spawns");
          ("cache_hits", "serve.cache_hits");
          ("failures", "serve.failures");
        ];
    layer = Work.to_list layer;
  }
