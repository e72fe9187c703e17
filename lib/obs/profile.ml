(* Phase profiler: wall/CPU timing spans around the solver's phases.

   Spans are preallocated per-phase accumulators indexed by a small
   enum, so [enter]/[leave] are two clock reads and a few stores — cheap
   enough to wrap per-leaf engine calls when profiling is on, and never
   executed when it is off (the engine guards on the collector flag).
   Clocks are injectable for deterministic tests; the defaults are
   [Unix.gettimeofday] (wall) and [Sys.time] (CPU). *)

type phase =
  | Parse (* reading + parsing the input *)
  | Prenex (* prenexing / miniscoping / preprocessing *)
  | Build (* solver-state construction from the formula *)
  | Propagate (* the propagation loop *)
  | Backtrack (* trail undo: unassign bookkeeping (nests in Analyze) *)
  | Analyze (* conflict/solution analysis incl. backjumping *)
  | Heuristic (* branching-variable selection *)
  | Solve (* the whole search call, outer span *)

let phase_to_string = function
  | Parse -> "parse"
  | Prenex -> "prenex"
  | Build -> "build"
  | Propagate -> "propagate"
  | Backtrack -> "backtrack"
  | Analyze -> "analyze"
  | Heuristic -> "heuristic"
  | Solve -> "solve"

let phase_index = function
  | Parse -> 0
  | Prenex -> 1
  | Build -> 2
  | Propagate -> 3
  | Backtrack -> 4
  | Analyze -> 5
  | Heuristic -> 6
  | Solve -> 7

let all_phases =
  [ Parse; Prenex; Build; Propagate; Backtrack; Analyze; Heuristic; Solve ]

let num_phases = 8

type t = {
  clock : unit -> float;
  cpu : unit -> float;
  wall_total : float array;
  cpu_total : float array;
  calls : int array;
  start_wall : float array;
  start_cpu : float array;
}

let create ?(clock = Unix.gettimeofday) ?(cpu = Sys.time) () =
  {
    clock;
    cpu;
    wall_total = Array.make num_phases 0.;
    cpu_total = Array.make num_phases 0.;
    calls = Array.make num_phases 0;
    start_wall = Array.make num_phases 0.;
    start_cpu = Array.make num_phases 0.;
  }

let enter t ph =
  let i = phase_index ph in
  t.start_wall.(i) <- t.clock ();
  t.start_cpu.(i) <- t.cpu ()

let leave t ph =
  let i = phase_index ph in
  t.wall_total.(i) <- t.wall_total.(i) +. (t.clock () -. t.start_wall.(i));
  t.cpu_total.(i) <- t.cpu_total.(i) +. (t.cpu () -. t.start_cpu.(i));
  t.calls.(i) <- t.calls.(i) + 1

(* Convenience span for cold paths (allocates a closure; do not use on
   the search hot path — guard and call [enter]/[leave] inline there). *)
let span t ph f =
  enter t ph;
  Fun.protect ~finally:(fun () -> leave t ph) f

type span_snapshot = { phase : string; calls : int; wall_s : float; cpu_s : float }
type snapshot = span_snapshot list

(* Phases that never ran are omitted: the profile of a plain solve does
   not carry parse/prenex rows, the CLI's does. *)
let snapshot (t : t) =
  List.filter_map
    (fun ph ->
      let i = phase_index ph in
      if t.calls.(i) = 0 then None
      else
        Some
          {
            phase = phase_to_string ph;
            calls = t.calls.(i);
            wall_s = t.wall_total.(i);
            cpu_s = t.cpu_total.(i);
          })
    all_phases

(* The engine's propagate/analyze/heuristic spans nest inside [Solve];
   [other] is the solve time not covered by any inner span. *)
let render_table (s : snapshot) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%-10s %10s %12s %12s %7s\n" "phase" "calls" "wall(s)"
       "cpu(s)" "wall%");
  (* backtrack nests inside analyze, so it is excluded from the
     top-level partition AND from the inner sum (else the [other] row
     would double-count it against solve) *)
  let inner = [ "propagate"; "analyze"; "heuristic" ] in
  let nested = "backtrack" :: inner in
  let solve_wall =
    List.fold_left
      (fun acc sp -> if sp.phase = "solve" then sp.wall_s else acc)
      0. s
  in
  let inner_wall =
    List.fold_left
      (fun acc sp -> if List.mem sp.phase inner then acc +. sp.wall_s else acc)
      0. s
  in
  (* top-level phases partition the run; inner spans nest inside solve *)
  let total =
    List.fold_left
      (fun acc sp ->
        if List.mem sp.phase nested then acc else acc +. sp.wall_s)
      0. s
  in
  List.iter
    (fun sp ->
      let pct = if total > 0. then 100. *. sp.wall_s /. total else 0. in
      Buffer.add_string buf
        (Printf.sprintf "%-10s %10d %12.6f %12.6f %6.1f%%\n" sp.phase sp.calls
           sp.wall_s sp.cpu_s pct))
    s;
  if solve_wall > 0. && inner_wall > 0. then
    Buffer.add_string buf
      (Printf.sprintf "%-10s %10s %12.6f %12s %6.1f%%\n" "other" ""
         (Float.max 0. (solve_wall -. inner_wall))
         ""
         (if total > 0. then
            100. *. Float.max 0. (solve_wall -. inner_wall) /. total
          else 0.));
  Buffer.contents buf

let snapshot_to_json (s : snapshot) =
  Json.List
    (List.map
       (fun sp ->
         Json.Obj
           [
             ("phase", Json.String sp.phase);
             ("calls", Json.Int sp.calls);
             ("wall_s", Json.Float sp.wall_s);
             ("cpu_s", Json.Float sp.cpu_s);
           ])
       s)

(* Reader for what [snapshot_to_json] writes — the supervisor parses
   worker-shipped profiles back before merging. *)
let snapshot_of_json = function
  | Json.List spans ->
      List.fold_left
        (fun acc sp ->
          match acc with
          | Error _ as e -> e
          | Ok acc -> (
              let str k = Option.bind (Json.member k sp) Json.to_string_opt in
              let int k = Option.bind (Json.member k sp) Json.to_int_opt in
              let flo k = Option.bind (Json.member k sp) Json.to_float_opt in
              match (str "phase", int "calls", flo "wall_s", flo "cpu_s") with
              | Some phase, Some calls, Some wall_s, Some cpu_s ->
                  Ok ({ phase; calls; wall_s; cpu_s } :: acc)
              | _ -> Error "profile span missing phase/calls/wall_s/cpu_s"))
        (Ok []) spans
      |> Result.map List.rev
  | _ -> Error "profile snapshot must be a list of spans"

(* Merge two profile snapshots by phase, preserving the canonical phase
   order so merging is associative and commutative. *)
let merge_snapshot (a : snapshot) (b : snapshot) =
  List.filter_map
    (fun ph ->
      let name = phase_to_string ph in
      let find s = List.find_opt (fun sp -> sp.phase = name) s in
      match (find a, find b) with
      | None, None -> None
      | Some sp, None | None, Some sp -> Some sp
      | Some x, Some y ->
          Some
            {
              phase = name;
              calls = x.calls + y.calls;
              wall_s = x.wall_s +. y.wall_s;
              cpu_s = x.cpu_s +. y.cpu_s;
            })
    all_phases

(* Prometheus text: three counter families, each one # TYPE line and
   one phase-labelled sample per phase. *)
let snapshot_to_prometheus ~prefix (s : snapshot) =
  let buf = Buffer.create 512 in
  List.iter
    (fun (family, value) ->
      Metrics.prom_family buf ~name:(prefix ^ family) ~typ:"counter"
        (List.map (fun sp -> ([ ("phase", sp.phase) ], value sp)) s))
    [
      ("calls_total", fun sp -> float_of_int sp.calls);
      ("wall_seconds_total", fun sp -> sp.wall_s);
      ("cpu_seconds_total", fun sp -> sp.cpu_s);
    ];
  Buffer.contents buf
