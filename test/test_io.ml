(* QDIMACS / NQDIMACS reader and writer tests. *)

open Qbf_core

let test_qdimacs_parse () =
  let text =
    "c example\np cnf 4 3\ne 1 2 0\na 3 0\ne 4 0\n1 -3 4 0\n-1 2 0\n-2\n3 0\n"
  in
  let f = Qbf_io.Qdimacs.parse_string text in
  Alcotest.(check int) "nvars" 4 (Formula.nvars f);
  Alcotest.(check int) "nclauses" 3 (Formula.num_clauses f);
  let p = Formula.prefix f in
  Alcotest.(check bool) "prenex" true (Prefix.is_prenex p);
  Alcotest.(check bool) "1 exists" true (Prefix.is_exists p 0);
  Alcotest.(check bool) "3 forall" true (Prefix.is_forall p 2);
  Alcotest.(check bool) "1 < 3" true (Prefix.precedes p 0 2);
  Alcotest.(check bool) "3 < 4" true (Prefix.precedes p 2 3)

let test_qdimacs_errors () =
  let bad s =
    match Qbf_io.Qdimacs.parse_string s with
    | exception Qbf_io.Qdimacs.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error on %S" s
  in
  bad "e 1 0\n1 0\n";
  (* no header *)
  bad "p cnf 2 1\ne 1 0\n1 5 0\n";
  (* literal out of range *)
  bad "p cnf 2 1\ne 1 0\n1 2\n" (* unterminated clause *)

let test_qdimacs_free_vars () =
  (* Unquantified variables are outermost existentials. *)
  let f = Qbf_io.Qdimacs.parse_string "p cnf 2 1\na 2 0\n1 2 0\n" in
  let p = Formula.prefix f in
  Alcotest.(check bool) "free exists" true (Prefix.is_exists p 0);
  Alcotest.(check bool) "free outer" true (Prefix.precedes p 0 1)

let same_formula f f' =
  Formula.nvars f = Formula.nvars f'
  && List.equal Clause.equal
       (List.sort Clause.compare (Formula.matrix f))
       (List.sort Clause.compare (Formula.matrix f'))
  &&
  let p = Formula.prefix f and p' = Formula.prefix f' in
  let n = Formula.nvars f in
  let ok = ref true in
  for a = 0 to n - 1 do
    if not (Quant.equal (Prefix.quant p a) (Prefix.quant p' a)) then ok := false;
    for b = 0 to n - 1 do
      if Prefix.precedes p a b <> Prefix.precedes p' a b then ok := false
    done
  done;
  !ok

let test_nqdimacs_example () =
  let f = Util.paper_formula_1 () in
  let text = Qbf_io.Nqdimacs.to_string f in
  let f' = Qbf_io.Nqdimacs.parse_string text in
  Alcotest.(check int) "nvars" (Formula.nvars f) (Formula.nvars f');
  Alcotest.(check int) "nclauses" (Formula.num_clauses f)
    (Formula.num_clauses f');
  Alcotest.(check bool) "same value" (Eval.eval f) (Eval.eval f');
  (* a diameter QBF: a quantifier tree with auxiliary gate variables,
     too large for the naive evaluator *)
  let g = Qbf_models.Diameter.phi (Qbf_models.Families.counter ~bits:2) ~n:1 in
  let g' = Qbf_io.Nqdimacs.parse_string (Qbf_io.Nqdimacs.to_string g) in
  Alcotest.(check bool) "counter2 phi_1 same formula" true (same_formula g g');
  let solve f = (Qbf_solver.Engine.solve f).Qbf_solver.Solver_types.outcome in
  Alcotest.check Util.outcome "counter2 phi_1 same value" (solve g) (solve g')

let make_tree_formula (seed, nvars, nclauses) =
  let rng = Qbf_gen.Rng.create seed in
  Qbf_gen.Randqbf.tree rng ~nvars ~nclauses ~len:3 ()

let gen_params =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* nvars = int_range 1 20 in
    let* nclauses = int_range 0 30 in
    return (seed, nvars, nclauses))

let prop_nqdimacs_roundtrip input =
  let f = make_tree_formula input in
  same_formula f (Qbf_io.Nqdimacs.parse_string (Qbf_io.Nqdimacs.to_string f))

let prop_qdimacs_roundtrip (seed, nvars, nclauses) =
  let rng = Qbf_gen.Rng.create seed in
  let f =
    Qbf_gen.Randqbf.prenex rng ~nvars ~levels:(1 + (seed mod 4)) ~nclauses
      ~len:3 ~min_exists:0 ()
  in
  same_formula f (Qbf_io.Qdimacs.parse_string (Qbf_io.Qdimacs.to_string f))

let test_nqdimacs_errors () =
  let bad s =
    match Qbf_io.Nqdimacs.parse_string s with
    | exception Qbf_io.Nqdimacs.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error on %S" s
  in
  bad "p ncnf 2 1\nt (e 1 (a 2)\n1 2 0\n";
  (* unbalanced tree: the dangling '(' swallows the rest; detected as an
     unterminated clause or bad token *)
  bad "p ncnf 2 1\nt (x 1 2)\n1 0\n";
  (* unknown quantifier *)
  bad "p ncnf 2 1\nt (e 1 5)\n1 0\n";
  (* variable out of range in tree *)
  bad "p ncnf 2 1\nt (e 1 2)\n1 2\n";
  (* unterminated clause *)
  bad "p cnf 2 1\ne 1 0\n1 0\n" (* wrong header for this parser *)

let test_print_requires_prenex () =
  let f = Util.paper_formula_1 () in
  match Qbf_io.Qdimacs.to_string f with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on non-prenex print"

let test_file_roundtrip () =
  let f = Util.paper_formula_1 () in
  let path = Filename.temp_file "qbf" ".nqdimacs" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Qbf_io.Nqdimacs.write_file path f;
      let f' = Qbf_io.Nqdimacs.parse_file path in
      Alcotest.(check bool) "file roundtrip" true (same_formula f f'))

let suite =
  [
    Alcotest.test_case "qdimacs parse" `Quick test_qdimacs_parse;
    Alcotest.test_case "qdimacs parse errors" `Quick test_qdimacs_errors;
    Alcotest.test_case "qdimacs free variables" `Quick test_qdimacs_free_vars;
    Alcotest.test_case "nqdimacs example roundtrip" `Quick test_nqdimacs_example;
    Alcotest.test_case "nqdimacs parse errors" `Quick test_nqdimacs_errors;
    Alcotest.test_case "qdimacs print requires prenex" `Quick
      test_print_requires_prenex;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
    Util.qcheck_case ~count:200 "nqdimacs roundtrip preserves formula"
      gen_params prop_nqdimacs_roundtrip;
    Util.qcheck_case ~count:200 "qdimacs roundtrip preserves formula"
      gen_params prop_qdimacs_roundtrip;
  ]
