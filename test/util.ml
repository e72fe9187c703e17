(* Shared helpers for the test suites. *)

open Qbf_core

let clause ints = Clause.of_dimacs_list ints

(* Formula (1) of the paper: x0=1, y1=2, x1=3, x2=4, y2=5, x3=6, x4=7
   (1-based DIMACS numbering).

   The extracted paper text loses the negation overbars; the polarities
   below are reconstructed from the Figure-2 trace: after x0 (and the
   pure universal y1) the first group reduces to all four sign
   combinations over (x1,x2), after ¬x0 (and pure y2) the second group
   reduces to all four combinations over (x3,x4); y1 and y2 occur only
   negatively (footnote 5 calls them pure).  The formula is false. *)
let paper_formula_1 () =
  let tree =
    Prefix.node Quant.Exists [ 0 ]
      [
        Prefix.node Quant.Forall [ 1 ] [ Prefix.node Quant.Exists [ 2; 3 ] [] ];
        Prefix.node Quant.Forall [ 4 ] [ Prefix.node Quant.Exists [ 5; 6 ] [] ];
      ]
  in
  let prefix = Prefix.of_forest ~nvars:7 [ tree ] in
  let matrix =
    [
      clause [ -1; 3; 4 ];
      clause [ -2; -3; 4 ];
      clause [ 3; -4 ];
      clause [ -1; -3; -4 ];
      clause [ 1; 6; 7 ];
      clause [ -5; -6; 7 ];
      clause [ 6; -7 ];
      clause [ 1; -6; -7 ];
    ]
  in
  Formula.make prefix matrix

(* The prenex ∃↑∀↑ version of formula (1): prefix (7) of the paper,
   x0 ≺ y1,y2 ≺ x1,x2,x3,x4, same matrix. *)
let paper_formula_1_prenex () =
  let prefix =
    Prefix.of_blocks ~nvars:7
      [
        (Quant.Exists, [ 0 ]);
        (Quant.Forall, [ 1; 4 ]);
        (Quant.Exists, [ 2; 3; 5; 6 ]);
      ]
  in
  Formula.make prefix (Formula.matrix (paper_formula_1 ()))

let solver_outcome_of_bool b =
  if b then Qbf_solver.Solver_types.True else Qbf_solver.Solver_types.False

let outcome_to_string = function
  | Qbf_solver.Solver_types.True -> "true"
  | Qbf_solver.Solver_types.False -> "false"
  | Qbf_solver.Solver_types.Unknown -> "unknown"

let outcome = Alcotest.testable (fun fmt o -> Format.pp_print_string fmt (outcome_to_string o)) ( = )

(* All interesting engine configurations for differential testing. *)
let configs () =
  let open Qbf_solver.Solver_types in
  List.concat_map
    (fun learning ->
      List.concat_map
        (fun pure_literals ->
          List.map
            (fun heuristic ->
              ( Printf.sprintf "learn=%b pure=%b %s" learning pure_literals
                  (match heuristic with
                  | Total_order -> "TO"
                  | Partial_order -> "PO"),
                default_config |> with_learning learning
                |> with_pure_literals pure_literals
                |> with_heuristic heuristic ))
            [ Total_order; Partial_order ])
        [ true; false ])
    [ true; false ]

(* QCheck draws a fresh seed on every run unless QCHECK_SEED is set, so
   each run would check different cases.  Pin it; QCHECK_SEED still
   selects another one. *)
let qcheck_seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some s -> s
  | None -> 2006

let qcheck_case ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| qcheck_seed |])
    (QCheck2.Test.make ~count ~name gen prop)
