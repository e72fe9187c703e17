(* What the three workloads share: the result of one timed pass, the
   per-layer accumulator, and the helpers that read the program's own
   phase timings. *)

module ST = Qbf_solver.Solver_types
module Profile = Qbf_obs.Profile

(* One pass over a workload's jobs.  [errors] counts jobs whose
   operation errored (an exception, an unreadable input, a worker that
   died); a job that ends undecided under its node budget, or decided
   without an accepted certificate, is not an error — it is attempted
   and unsuccessful, and lowers [success_rate].  [wrong] lists answers
   that contradict a reference: any entry fails the run. *)
type result = {
  wall_s : float;  (** the timed part of the pass, wall time at nominal host speed *)
  cpu_s : float;  (** and its CPU, reaped children included, scaled alike *)
  raw_wall_s : float;  (** the same two as the clocks read them *)
  raw_cpu_s : float;
  latencies : float list;  (** per-job seconds *)
  bound_times : float list;  (** per-bound seconds of diameter iterations *)
  attempted : int;
  successful : int;
  errors : int;
  wrong : string list;
  counts : (string * int) list;  (** fingerprint counts *)
  layer : (string * float) list;  (** per-layer metrics, summed *)
}

let empty =
  {
    wall_s = 0.;
    cpu_s = 0.;
    raw_wall_s = 0.;
    raw_cpu_s = 0.;
    latencies = [];
    bound_times = [];
    attempted = 0;
    successful = 0;
    errors = 0;
    wrong = [];
    counts = [];
    layer = [];
  }

let add_assoc a b =
  List.fold_left
    (fun acc (k, v) ->
      match List.assoc_opt k acc with
      | Some v0 -> (k, v0 +. v) :: List.remove_assoc k acc
      | None -> acc @ [ (k, v) ])
    a b

(* Two passes of one run add up. *)
let merge a b =
  {
    wall_s = a.wall_s +. b.wall_s;
    cpu_s = a.cpu_s +. b.cpu_s;
    raw_wall_s = a.raw_wall_s +. b.raw_wall_s;
    raw_cpu_s = a.raw_cpu_s +. b.raw_cpu_s;
    latencies = a.latencies @ b.latencies;
    bound_times = a.bound_times @ b.bound_times;
    attempted = a.attempted + b.attempted;
    successful = a.successful + b.successful;
    errors = a.errors + b.errors;
    wrong = a.wrong @ b.wrong;
    counts = a.counts @ b.counts;
    layer = add_assoc a.layer b.layer;
  }

(* A mutable per-layer accumulator: named sums. *)
type acc = (string, float) Hashtbl.t

let acc () : acc = Hashtbl.create 32

let add (t : acc) name v =
  Hashtbl.replace t name (v +. Option.value ~default:0. (Hashtbl.find_opt t name))

let addi t name v = add t name (float_of_int v)
let get (t : acc) name = Option.value ~default:0. (Hashtbl.find_opt t name)
let to_list (t : acc) = Hashtbl.fold (fun k v l -> (k, v) :: l) t []

(* Solver phases the profile exposes, as solver.<phase>_s. *)
let solver_phases = [ "build"; "propagate"; "backtrack"; "analyze"; "heuristic" ]

let phase_wall (snap : Profile.snapshot) name =
  List.fold_left
    (fun acc (sp : Profile.span_snapshot) ->
      if sp.Profile.phase = name then acc +. sp.Profile.wall_s else acc)
    0. snap

(* Add a profile snapshot's solver phases to [t]. *)
let add_profile t (snap : Profile.snapshot) =
  List.iter
    (fun ph -> add t ("solver." ^ ph ^ "_s") (phase_wall snap ph))
    solver_phases

(* The engine counters every workload reports, from a stats record. *)
let add_stats t (s : ST.stats) =
  addi t "solver.decisions" s.ST.decisions;
  addi t "solver.propagations" s.ST.propagations;
  addi t "solver.learned" (s.ST.learned_clauses + s.ST.learned_cubes);
  addi t "solver.chrono_fallbacks" s.ST.chrono_fallbacks

(* Fingerprint counts read back from the accumulator, which holds
   integers exactly. *)
let counts_of t names =
  List.map (fun (fp, name) -> (fp, int_of_float (get t name))) names

let engine_counts =
  [
    ("decisions", "solver.decisions");
    ("propagations", "solver.propagations");
    ("learned", "solver.learned");
    ("budget_stops", "solver.budget_stops");
  ]

let now = Unix.gettimeofday

type times = { wall : float; cpu : float; raw_wall : float; raw_cpu : float }

(* Run [f] as the timed part of a pass, with a speed sample on each side:
   its wall and CPU seconds (reaped children's included), raw and at the
   nominal host speed, the references taken inside it left out. *)
let timed speed f =
  let cpu () =
    let self, children = Host.cpu () in
    self +. children
  in
  Speed.sample speed;
  let c0 = cpu () and t0 = now () in
  let v = f () in
  let t1 = now () in
  let c1 = cpu () in
  Speed.sample speed;
  let m = Speed.measure speed ~t0 ~t1 in
  let raw_cpu = c1 -. c0 -. m.Speed.ref_cpu_s in
  let k = if m.Speed.raw_s > 0. then m.Speed.scaled_s /. m.Speed.raw_s else 1. in
  (v, { wall = m.Speed.scaled_s; cpu = raw_cpu *. k; raw_wall = m.Speed.raw_s; raw_cpu })

(* Remove a directory tree this benchmark created. *)
let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0
