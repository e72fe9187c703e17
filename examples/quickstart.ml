(* Quickstart: build a non-prenex QBF through the public API, inspect
   its quantifier structure, and solve it with both engine modes.

   The formula is the paper's running example (1):

     ∃x0 ( ∀y1 ∃x1 x2 ((¬x0∨x1∨x2) ∧ (¬y1∨¬x1∨x2) ∧ (x1∨¬x2) ∧ (¬x0∨¬x1∨¬x2))
         ∧ ∀y2 ∃x3 x4 ((x0∨x3∨x4) ∧ (¬y2∨¬x3∨x4) ∧ (x3∨¬x4) ∧ (x0∨¬x3∨¬x4)) )

   Run with: dune exec examples/quickstart.exe *)

open Qbf_core
module ST = Qbf_solver.Solver_types

let () =
  (* Variables are dense 0-based ints; we give them names for printing. *)
  let x0 = 0 and y1 = 1 and x1 = 2 and x2 = 3 and y2 = 4 and x3 = 5 and x4 = 6 in
  (* The quantifier tree: x0 over two independent ∀∃ branches. *)
  let tree =
    Prefix.node Quant.Exists [ x0 ]
      [
        Prefix.node Quant.Forall [ y1 ] [ Prefix.node Quant.Exists [ x1; x2 ] [] ];
        Prefix.node Quant.Forall [ y2 ] [ Prefix.node Quant.Exists [ x3; x4 ] [] ];
      ]
  in
  let prefix = Prefix.of_forest ~nvars:7 [ tree ] in
  (* Clauses via DIMACS-style integers (1-based, negative = negated). *)
  let matrix =
    List.map Clause.of_dimacs_list
      [
        [ -1; 3; 4 ]; [ -2; -3; 4 ]; [ 3; -4 ]; [ -1; -3; -4 ];
        [ 1; 6; 7 ]; [ -5; -6; 7 ]; [ 6; -7 ]; [ 1; -6; -7 ];
      ]
  in
  let formula = Formula.make prefix matrix in

  Format.printf "Formula:@.%a@.@." Formula.pp formula;
  Format.printf "prefix level: %d, prenex: %b@." (Prefix.prefix_level prefix)
    (Prefix.is_prenex prefix);
  Format.printf "y1 ≺ x1: %b, y1 ≺ x3: %b (independent branches)@.@."
    (Prefix.precedes prefix y1 x1)
    (Prefix.precedes prefix y1 x3);

  (* Solve with the partial-order engine (QuBE(PO) of the paper). *)
  let po = Qbf_solver.Engine.solve formula in
  Format.printf "QuBE(PO) says: %a  [%a]@." Qbf_solver.Outcome.pp
    po.ST.outcome ST.pp_stats po.ST.stats;

  (* Convert to prenex form with the ∃↑∀↑ strategy and solve in
     total-order mode (QuBE(TO)). *)
  let prenexed =
    Qbf_prenex.Prenexing.apply Qbf_prenex.Prenexing.e_up_a_up formula
  in
  Format.printf "∃↑∀↑ prenex prefix: %a@." Prefix.pp (Formula.prefix prenexed);
  let config = ST.(default_config |> with_heuristic Total_order) in
  let to_ = Qbf_solver.Engine.solve ~config prenexed in
  Format.printf "QuBE(TO) says: %a  [%a]@." Qbf_solver.Outcome.pp
    to_.ST.outcome ST.pp_stats to_.ST.stats;

  (* The naive expansion oracle agrees. *)
  Format.printf "oracle says: %b@." (Eval.eval formula)
