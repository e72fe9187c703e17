(* Budgeted solver runs for the experiment harness, on top of the
   resilient run layer (Qbf_run): amortized wall-clock deadlines instead
   of a per-check [Unix.gettimeofday], and an optional shared interrupt
   so one Ctrl-C (or one pathological instance tripping a memory guard)
   ends a whole suite gracefully instead of wedging it. *)

open Qbf_core
module ST = Qbf_solver.Solver_types
module Run = Qbf_run.Run
module Limits = Qbf_run.Limits

type budget = {
  timeout_s : float; (* wall-clock limit per run *)
  max_nodes : int option; (* optional node (leaf) limit *)
}

let budget ?(max_nodes = None) timeout_s = { timeout_s; max_nodes }

type run = {
  outcome : ST.outcome;
  time : float; (* seconds *)
}

let timed_out r = r.outcome = ST.Unknown

(* Solve under [budget] with the given heuristic; [aux] optionally marks
   CNF-conversion variables (see Qbf_solver.Solver_types.config);
   [interrupt] aborts this run (and, when shared, the rest of the
   suite) as soon as the engine reaches its next budget check. *)
let solve ?aux ?interrupt ~heuristic b formula =
  let limits =
    Limits.make ~timeout_s:b.timeout_s ?max_nodes:b.max_nodes
      ~poll_interval:64 ()
  in
  let config =
    ST.(default_config |> with_heuristic heuristic |> with_aux_hint aux)
  in
  let r = Run.solve ~limits ?interrupt ~config formula in
  { outcome = r.Run.outcome; time = r.Run.time }

(* A benchmark instance: the non-prenex original for QuBE(PO) plus one
   or more prenex versions for QuBE(TO), tagged by strategy name. *)
type instance = {
  name : string;
  po : Formula.t;
  tos : (string * Formula.t) list;
  aux : (int -> bool) option;
}

let instance ?aux ?(strategies = [ ("EupAup", Qbf_prenex.Prenexing.e_up_a_up) ])
    ~name po =
  {
    name;
    po;
    tos =
      List.map (fun (sn, st) -> (sn, Qbf_prenex.Prenexing.apply st po)) strategies;
    aux;
  }

type result = {
  inst : string;
  po_run : run;
  to_runs : (string * run) list;
}

let run_instance ?interrupt b inst =
  {
    inst = inst.name;
    po_run =
      solve ?aux:inst.aux ?interrupt ~heuristic:ST.Partial_order b inst.po;
    to_runs =
      List.map
        (fun (sn, f) ->
          (sn, solve ?aux:inst.aux ?interrupt ~heuristic:ST.Total_order b f))
        inst.tos;
  }
