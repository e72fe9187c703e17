(* Solver-internal tests: the Vec container, state bookkeeping
   invariants, learning machinery and the aux-hint cover. *)

open Qbf_core
module ST = Qbf_solver.Solver_types
module V = Qbf_solver.Vec

let test_vec () =
  let v = V.create (-1) in
  Alcotest.(check bool) "empty" true (V.is_empty v);
  for i = 0 to 99 do
    V.push v i
  done;
  Alcotest.(check int) "length" 100 (V.length v);
  Alcotest.(check int) "get" 42 (V.get v 42);
  V.set v 42 (-42);
  Alcotest.(check int) "set" (-42) (V.get v 42);
  Alcotest.(check int) "top" 99 (V.top v);
  Alcotest.(check int) "pop" 99 (V.pop v);
  V.shrink v 10;
  Alcotest.(check int) "shrink" 10 (V.length v);
  Alcotest.(check int) "fold" 45 (V.fold ( + ) 0 v);
  Alcotest.(check bool) "exists" true (V.exists (fun x -> x = 9) v);
  Alcotest.(check (list int)) "to_list" [ 0; 1; 2 ] (V.to_list (
    let w = V.create 0 in
    V.push w 0; V.push w 1; V.push w 2; w));
  (match V.get v 100 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected out-of-bounds failure")

let test_stats_consistency () =
  let rng = Qbf_gen.Rng.create 123 in
  for _ = 1 to 30 do
    let f = Qbf_gen.Randqbf.tree rng ~nvars:10 ~nclauses:20 ~len:3 () in
    let r = Qbf_solver.Engine.solve f in
    let s = r.ST.stats in
    Alcotest.(check bool) "nonneg" true
      (s.ST.decisions >= 0 && s.ST.propagations >= 0 && s.ST.conflicts >= 0
     && s.ST.solutions >= 0);
    (* a definite outcome needs at least one leaf *)
    Alcotest.(check bool) "at least one leaf" true (ST.nodes s >= 1);
    (* learned constraints cannot outnumber analyses *)
    Alcotest.(check bool) "learning bounded" true
      (s.ST.learned_clauses <= s.ST.conflicts
      && s.ST.learned_cubes <= s.ST.solutions)
  done

let test_learning_equivalence_on_suite () =
  (* learning and chronological modes agree on a batch of structured
     instances (NCF + FPV + game). *)
  let rng = Qbf_gen.Rng.create 9 in
  for i = 0 to 14 do
    let f =
      match i mod 3 with
      | 0 -> Qbf_gen.Ncf.generate rng { Qbf_gen.Ncf.dep = 3; var = 3; cls = 18; lpc = 3 }
      | 1 ->
          Qbf_gen.Fpv.generate rng
            { Qbf_gen.Fpv.core = 3; branches = 2; env = 2; cls = 1; lpc = 3 }
      | _ -> Qbf_gen.Fixed.game rng ~layers:4 ~width:3 ~edge_prob:0.8
    in
    let solve learning =
      (Qbf_solver.Engine.solve
         ~config:ST.(default_config |> with_learning learning)
         f)
        .ST.outcome
    in
    Alcotest.check Util.outcome
      (Printf.sprintf "instance %d" i)
      (solve true) (solve false)
  done

let test_aux_hint_agrees () =
  (* The virtual-cover optimisation (aux_hint) never changes results. *)
  let rng = Qbf_gen.Rng.create 31 in
  for _ = 1 to 40 do
    let f = Qbf_gen.Randqbf.tree rng ~nvars:11 ~nclauses:22 ~len:3 () in
    let base = (Qbf_solver.Engine.solve f).ST.outcome in
    let hinted =
      (Qbf_solver.Engine.solve
         ~config:ST.(default_config |> with_aux_hint (Some (fun _ -> true)))
         f)
        .ST.outcome
    in
    Alcotest.check Util.outcome "same" base hinted
  done

let test_diameter_aux_hint_agrees () =
  (* On a real gate-heavy instance the hint must agree too. *)
  let m = Qbf_models.Families.counter ~bits:2 in
  for n = 0 to 4 do
    let lay = Qbf_models.Diameter.build m ~n in
    let plain = Qbf_solver.Engine.solve lay.Qbf_models.Diameter.formula in
    let hinted =
      Qbf_solver.Engine.solve
        ~config:(Qbf_models.Diameter.config_for lay)
        lay.Qbf_models.Diameter.formula
    in
    Alcotest.check Util.outcome
      (Printf.sprintf "phi_%d" n)
      plain.ST.outcome hinted.ST.outcome
  done

let test_learned_clauses_sound () =
  (* Every clause learned by Q-resolution + universal reduction must
     leave the QBF's value unchanged when added to the matrix (that is
     the definition of a sound nogood).  Checked against the expansion
     oracle on small instances. *)
  let rng = Qbf_gen.Rng.create 808 in
  let checked = ref 0 in
  for _ = 1 to 25 do
    let f = Qbf_gen.Randqbf.tree rng ~nvars:9 ~nclauses:18 ~len:3 () in
    let value = Qbf_core.Eval.eval f in
    let s = Qbf_solver.State.create f ST.default_config in
    let r = Qbf_solver.Engine.solve_state s in
    Alcotest.check Util.outcome "result"
      (Util.solver_outcome_of_bool value)
      r.ST.outcome;
    let db = s.Qbf_solver.State.db in
    let module Db = Qbf_solver.Constraint_db in
    for cid = 0 to Db.size db - 1 do
      if
        Db.learned db cid
        && Db.kind db cid = ST.Clause_c
        && !checked < 300
      then begin
        incr checked;
        let clause =
          Clause.of_list
            (Array.to_list (Array.map Lit.of_dimacs
               (Array.map (fun l ->
                    let v = (l lsr 1) + 1 in
                    if l land 1 = 1 then -v else v)
                  (Db.copy_lits db cid))))
        in
        let g =
          Formula.make (Formula.prefix f) (clause :: Formula.matrix f)
        in
        Alcotest.(check bool) "learned clause preserves value" value
          (Qbf_core.Eval.eval g)
      end
    done
  done;
  Alcotest.(check bool) "exercised" true (!checked > 0)

let test_restarts_and_reduction () =
  (* Aggressive restarts + database reduction keep the solver correct on
     random and structured instances. *)
  let rng = Qbf_gen.Rng.create 404 in
  let config =
    ST.(
      default_config |> with_restarts true |> with_restart_base 2
      |> with_db_reduction true)
  in
  for _ = 1 to 25 do
    let f = Qbf_gen.Randqbf.tree rng ~nvars:12 ~nclauses:24 ~len:3 () in
    Alcotest.check Util.outcome "same as oracle"
      (Util.solver_outcome_of_bool (Qbf_core.Eval.eval f))
      ((Qbf_solver.Engine.solve ~config f).ST.outcome)
  done;
  (* restarts actually fire on a formula needing search *)
  let f = Util.paper_formula_1_prenex () in
  let r = Qbf_solver.Engine.solve ~config f in
  Alcotest.check Util.outcome "paper formula" ST.False r.ST.outcome

let test_should_stop () =
  let rng = Qbf_gen.Rng.create 78 in
  let f = Qbf_gen.Randqbf.prenex rng ~nvars:40 ~levels:4 ~nclauses:160 ~len:3 () in
  let r =
    Qbf_solver.Engine.solve
      ~config:ST.(default_config |> with_should_stop (Some (fun () -> true)))
      f
  in
  (* stops at the first budget check, possibly after a trivial leaf *)
  Alcotest.(check bool) "unknown or instant" true
    (r.ST.outcome = ST.Unknown || ST.nodes r.ST.stats <= 1)

let test_all_universal_formula () =
  (* No existential variables at all: any nonempty clause is
     contradictory (Lemma 4); empty matrix is true. *)
  let p = Prefix.of_blocks ~nvars:2 [ (Quant.Forall, [ 0; 1 ]) ] in
  List.iter
    (fun (name, config) ->
      Alcotest.check Util.outcome
        ("nonempty " ^ name)
        ST.False
        ((Qbf_solver.Engine.solve ~config (Formula.make p [ Util.clause [ 1; 2 ] ]))
           .ST.outcome);
      Alcotest.check Util.outcome ("empty " ^ name) ST.True
        ((Qbf_solver.Engine.solve ~config (Formula.make p [])).ST.outcome))
    (Util.configs ())

let test_tautological_clauses_ignored () =
  (* ∃x ∀y with only a tautological clause: equivalent to empty matrix. *)
  let p = Prefix.of_blocks ~nvars:2 [ (Quant.Exists, [ 0 ]); (Quant.Forall, [ 1 ]) ] in
  let f = Formula.make p [ Util.clause [ 2; -2; 1 ] ] in
  Alcotest.check Util.outcome "true" ST.True
    ((Qbf_solver.Engine.solve f).ST.outcome)

let test_duplicate_clauses () =
  let p = Prefix.of_blocks ~nvars:2 [ (Quant.Forall, [ 1 ]); (Quant.Exists, [ 0 ]) ] in
  let c = Util.clause [ 1; -2 ] and c' = Util.clause [ -1; 2 ] in
  let f = Formula.make p [ c; c; c'; c'; c ] in
  Alcotest.check Util.outcome "dup ok" ST.True
    ((Qbf_solver.Engine.solve f).ST.outcome)

let suite =
  [
    Alcotest.test_case "vec container" `Quick test_vec;
    Alcotest.test_case "stats consistency" `Quick test_stats_consistency;
    Alcotest.test_case "learning = chrono on structured suite" `Quick
      test_learning_equivalence_on_suite;
    Alcotest.test_case "aux hint agrees (random)" `Quick test_aux_hint_agrees;
    Alcotest.test_case "aux hint agrees (diameter)" `Quick
      test_diameter_aux_hint_agrees;
    Alcotest.test_case "learned clauses are sound nogoods" `Quick
      test_learned_clauses_sound;
    Alcotest.test_case "restarts and db reduction" `Quick test_restarts_and_reduction;
    Alcotest.test_case "should_stop budget" `Quick test_should_stop;
    Alcotest.test_case "all-universal formulas" `Quick
      test_all_universal_formula;
    Alcotest.test_case "tautological clauses ignored" `Quick
      test_tautological_clauses_ignored;
    Alcotest.test_case "duplicate clauses" `Quick test_duplicate_clauses;
  ]
