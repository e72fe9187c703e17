(* Figure 2 of the paper: the search tree of plain Q-DLL (no learning)
   on formula (1).  A flight-recorder trace (Qbf_obs.Trace) records
   decisions, propagations, pure literals and leaves, each with its
   decision level; replayed afterwards, it prints as an indented tree
   whose shape mirrors the figure: branching on x0 first, the pure
   universal y1 (resp. y2), then the x1/x2 (resp. x3/x4) conflicts.

   Run with: dune exec examples/search_tree.exe *)

open Qbf_core
module ST = Qbf_solver.Solver_types
module Obs = Qbf_obs.Obs
module Trace = Qbf_obs.Trace

let name_of = [| "x0"; "y1"; "x1"; "x2"; "y2"; "x3"; "x4" |]

let lit_name l =
  let v = l lsr 1 in
  Printf.sprintf "%s%s" (if l land 1 = 1 then "-" else "") name_of.(v)

let () =
  let x0 = 0 and y1 = 1 and x1 = 2 and x2 = 3 and y2 = 4 and x3 = 5 and x4 = 6 in
  let tree =
    Prefix.node Quant.Exists [ x0 ]
      [
        Prefix.node Quant.Forall [ y1 ] [ Prefix.node Quant.Exists [ x1; x2 ] [] ];
        Prefix.node Quant.Forall [ y2 ] [ Prefix.node Quant.Exists [ x3; x4 ] [] ];
      ]
  in
  let prefix = Prefix.of_forest ~nvars:7 [ tree ] in
  let matrix =
    List.map Clause.of_dimacs_list
      [
        [ -1; 3; 4 ]; [ -2; -3; 4 ]; [ 3; -4 ]; [ -1; -3; -4 ];
        [ 1; 6; 7 ]; [ -5; -6; 7 ]; [ 6; -7 ]; [ 1; -6; -7 ];
      ]
  in
  let formula = Formula.make prefix matrix in
  Format.printf "Q-DLL (no learning) on formula (1) of the paper:@.@.";
  let trace = Trace.create () in
  let config =
    ST.(
      default_config |> with_learning false
      |> with_obs (Some (Obs.make ~trace ())))
  in
  let r = Qbf_solver.Engine.solve ~config formula in
  (* Events are indented by their decision level.  A decision opens
     level [dlevel]; one at or below the previous event's level follows
     a chronological backtrack to [dlevel - 1], so it is the second
     branch. *)
  let indent level = String.make (2 * level) ' ' in
  let last = ref 0 in
  List.iter
    (fun (e : Trace.event) ->
      let d = e.Trace.dlevel in
      (match e.Trace.kind with
      | Trace.Decision ->
          let branch =
            if d <= !last then begin
              Printf.printf "%s(backtrack to level %d)\n" (indent (d - 1))
                (d - 1);
              "second branch"
            end
            else "branch"
          in
          Printf.printf "%s%s (%s)\n" (indent (d - 1)) (lit_name e.Trace.arg)
            branch
      | Trace.Propagation | Trace.Pure ->
          Printf.printf "%s%s (propagated)\n" (indent d) (lit_name e.Trace.arg)
      | Trace.Conflict -> Printf.printf "%s=> {{}} contradiction\n" (indent d)
      | Trace.Solution -> Printf.printf "%s=> matrix empty\n" (indent d)
      | _ -> ());
      last := d)
    (Trace.to_list trace);
  Format.printf "@.result: %a — the paper's Figure 2 concludes FALSE too@."
    Qbf_solver.Outcome.pp r.ST.outcome
