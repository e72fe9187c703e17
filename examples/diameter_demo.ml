(* Diameter calculation (Section VII-C of the paper): build the
   diameter QBFs phi_n of the counter<3> model, decide them with the
   partial-order engine, and cross-check the resulting diameter against
   the explicit-state BFS oracle.

   Run with: dune exec examples/diameter_demo.exe *)

module ST = Qbf_solver.Solver_types
module D = Qbf_models.Diameter

let () =
  let model = Qbf_models.Families.counter ~bits:3 in
  Format.printf "model %s: %d state bits, %d reachable states@."
    (Qbf_models.Model.name model)
    (Qbf_models.Model.bits model)
    (Qbf_models.Reach.num_reachable model);
  Format.printf
    "phi_n is true iff n < diameter (eq. (14); the paper's eq. (16) is@.";
  Format.printf "its ∃↑∀↑ prenexing — see Qbf_models.Diameter.phi_prenex)@.@.";
  let rec go n =
    if n > 16 then ()
    else begin
      let lay = D.build model ~n in
      let f = lay.D.formula in
      let r =
        Qbf_solver.Engine.solve ~config:(D.config_for lay) f
      in
      Format.printf "  phi_%-2d (%3d vars, %3d clauses): %a@." n
        (Qbf_core.Formula.nvars f)
        (Qbf_core.Formula.num_clauses f)
        Qbf_solver.Outcome.pp r.ST.outcome;
      if r.ST.outcome = ST.True then go (n + 1)
    end
  in
  go 0;
  (match D.compute model with
  | Some d -> Format.printf "@.QBF diameter: %d@." d
  | None -> Format.printf "@.QBF diameter: not determined@.");
  Format.printf "BFS oracle diameter: %d (= 2^3 - 1, every counter value k@."
    (Qbf_models.Reach.diameter model);
  Format.printf "sits at distance k from the all-zero initial state)@."
