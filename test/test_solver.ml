(* Solver tests: hand-built formulas with known values, plus the key
   differential property — on random small QBFs (prenex and non-prenex),
   every engine configuration (learning on/off, pure literals on/off,
   TO/PO heuristic) agrees with the naive expansion oracle. *)

open Qbf_core
module ST = Qbf_solver.Solver_types

let solve ?(config = ST.default_config) f =
  (Qbf_solver.Engine.solve ~config f).ST.outcome

let check_known name f expected =
  List.iter
    (fun (cname, config) ->
      Alcotest.check Util.outcome
        (Printf.sprintf "%s [%s]" name cname)
        (Util.solver_outcome_of_bool expected)
        (solve ~config f))
    (Util.configs ())

let test_trivial () =
  let p = Prefix.of_blocks ~nvars:1 [ (Quant.Exists, [ 0 ]) ] in
  check_known "empty matrix" (Formula.make p []) true;
  check_known "empty clause" (Formula.make p [ Clause.of_list [] ]) false;
  check_known "unit sat" (Formula.make p [ Util.clause [ 1 ] ]) true;
  check_known "contradiction"
    (Formula.make p [ Util.clause [ 1 ]; Util.clause [ -1 ] ])
    false

let test_two_vars () =
  let matrix = [ Util.clause [ 1; -2 ]; Util.clause [ -1; 2 ] ] in
  let fa_ex =
    Formula.make
      (Prefix.of_blocks ~nvars:2 [ (Quant.Forall, [ 1 ]); (Quant.Exists, [ 0 ]) ])
      matrix
  in
  let ex_fa =
    Formula.make
      (Prefix.of_blocks ~nvars:2 [ (Quant.Exists, [ 0 ]); (Quant.Forall, [ 1 ]) ])
      matrix
  in
  check_known "forall-exists equiv" fa_ex true;
  check_known "exists-forall equiv" ex_fa false

let test_paper_formula () =
  check_known "paper formula (1)" (Util.paper_formula_1 ()) false;
  check_known "paper formula (1) prenex" (Util.paper_formula_1_prenex ()) false

let test_pure_universal () =
  (* ∃x ∀y (x ∨ y): y is a pure universal literal, removed; x forced. *)
  let p = Prefix.of_blocks ~nvars:2 [ (Quant.Exists, [ 0 ]); (Quant.Forall, [ 1 ]) ] in
  check_known "pure universal" (Formula.make p [ Util.clause [ 1; 2 ] ]) true

let test_sat_fragment () =
  (* Purely existential QBF = SAT.  A small pigeonhole-style UNSAT core:
     3 pigeons, 2 holes.  Variables p(i,h) = pigeon i in hole h. *)
  let v i h = (2 * i) + h in
  let lit i h sign = Lit.make (v i h) sign in
  let matrix =
    (* every pigeon somewhere *)
    List.init 3 (fun i -> Clause.of_list [ lit i 0 true; lit i 1 true ])
    @ (* no two pigeons share a hole *)
    List.concat_map
      (fun h ->
        [
          Clause.of_list [ lit 0 h false; lit 1 h false ];
          Clause.of_list [ lit 0 h false; lit 2 h false ];
          Clause.of_list [ lit 1 h false; lit 2 h false ];
        ])
      [ 0; 1 ]
  in
  let p = Prefix.of_blocks ~nvars:6 [ (Quant.Exists, List.init 6 Fun.id) ] in
  check_known "php(3,2) unsat" (Formula.make p matrix) false

let make_tree_formula (seed, nvars, nclauses, len) =
  let rng = Qbf_gen.Rng.create seed in
  Qbf_gen.Randqbf.tree rng ~nvars ~nclauses ~len ()

let make_prenex_formula (seed, nvars, nclauses, len) =
  let rng = Qbf_gen.Rng.create seed in
  Qbf_gen.Randqbf.prenex rng ~nvars ~levels:(1 + (seed mod 4)) ~nclauses ~len
    ~min_exists:(seed mod 2) ()

let gen_params =
  QCheck2.Gen.(
    let* seed = int_range 0 10_000_000 in
    let* nvars = int_range 1 12 in
    let* nclauses = int_range 0 24 in
    let* len = int_range 1 4 in
    return (seed, nvars, nclauses, len))

let differential make input =
  let f = make input in
  let expected = Eval.eval f in
  List.for_all
    (fun (_, config) ->
      solve ~config f = Util.solver_outcome_of_bool expected)
    (Util.configs ())

let prop_tree_differential input = differential make_tree_formula input
let prop_prenex_differential input = differential make_prenex_formula input

(* The solver must terminate and return a definite answer on these small
   instances (no Unknown without a budget). *)
let prop_definite input =
  let f = make_tree_formula input in
  match solve f with ST.True | ST.False -> true | ST.Unknown -> false

(* Budgets are honoured: with max_nodes=1 the solver gives up quickly on
   a formula that needs search. *)
let test_budget () =
  let rng = Qbf_gen.Rng.create 42 in
  let f = Qbf_gen.Randqbf.prenex rng ~nvars:30 ~levels:3 ~nclauses:120 ~len:3 () in
  let config =
    ST.(
      default_config |> with_max_nodes (Some 1) |> with_learning false
      |> with_pure_literals false)
  in
  match solve ~config f with
  | ST.Unknown | ST.True | ST.False -> ()

(* Exact search statistics on a fixed set of instances.  The other tests
   compare answers, so a change that moves the search path — a
   decision, a propagation, a learned constraint — without changing an
   answer would pass unnoticed.  The set: the diameter iterations of
   counter3, gray2 and semaphore3 (PO on eq. (14), TO on its ∃↑∀↑
   prenexing, incremental sessions, stats summed over the bounds), one
   FPV instance solved with a proof trace attached, and one solved under
   aggressive DB reduction.  A change meant to alter the search must update these
   figures and say why. *)
let stats_line (st : ST.stats) =
  Printf.sprintf
    "dec=%d prop=%d pure=%d confl=%d sol=%d lc=%d lu=%d bj=%d fb=%d maxlvl=%d \
     rst=%d del=%d"
    st.decisions st.propagations st.pure_assignments st.conflicts st.solutions
    st.learned_clauses st.learned_cubes st.backjumps st.chrono_fallbacks
    st.max_decision_level st.restarts st.deleted_constraints

let dia_stats name style =
  let module D = Qbf_models.Diameter in
  let heuristic =
    match style with
    | D.Nonprenex -> ST.Partial_order
    | D.Prenex -> ST.Total_order
  in
  let config = ST.(default_config |> with_heuristic heuristic) in
  let model = Qbf_models.Families.by_name name in
  let r = D.compute_report ~config ~style ~max_n:40 model in
  (* per-bound deltas; max_decision_level is the session's high-water
     mark, so the maximum over the bounds is the run's *)
  let t = ST.empty_stats () in
  List.iter
    (fun (b : D.bound_stat) ->
      let d = b.D.stats in
      t.decisions <- t.decisions + d.decisions;
      t.propagations <- t.propagations + d.propagations;
      t.pure_assignments <- t.pure_assignments + d.pure_assignments;
      t.conflicts <- t.conflicts + d.conflicts;
      t.solutions <- t.solutions + d.solutions;
      t.learned_clauses <- t.learned_clauses + d.learned_clauses;
      t.learned_cubes <- t.learned_cubes + d.learned_cubes;
      t.backjumps <- t.backjumps + d.backjumps;
      t.chrono_fallbacks <- t.chrono_fallbacks + d.chrono_fallbacks;
      t.max_decision_level <- max t.max_decision_level d.max_decision_level;
      t.restarts <- t.restarts + d.restarts;
      t.deleted_constraints <- t.deleted_constraints + d.deleted_constraints)
    r.D.per_bound;
  stats_line t

let fpv_proof_stats () =
  let rng = Qbf_gen.Rng.create 101 in
  let f =
    Qbf_gen.Fpv.generate rng
      { core = 3; branches = 3; env = 2; cls = 4; lpc = 3 }
  in
  let path = Filename.temp_file "test-search-path" ".qrp" in
  let proof = Qbf_solver.Proof.create ~path in
  let r = Qbf_solver.Engine.solve ~proof f in
  Qbf_solver.Proof.close proof;
  Sys.remove path;
  stats_line r.ST.stats

(* An aggressive reduction schedule (restarts are on too, but none is
   due in so short a run): the one pinned run that compacts the arena
   mid-search, with reasons assigned and discovery queues live
   (sessions compact only between solves). *)
let fpv_reduce_stats () =
  let rng = Qbf_gen.Rng.create 9104 in
  let f =
    Qbf_gen.Fpv.generate rng
      { core = 4; branches = 2; env = 3; cls = 2; lpc = 3 }
  in
  let config =
    ST.(
      default_config |> with_restarts true
      |> with_db_reduction true |> with_db_reduce_interval 4
      |> with_db_keep_fraction 0.25)
  in
  stats_line (Qbf_solver.Engine.solve ~config f).ST.stats

let pinned_search_path =
  [
    ( "counter3 PO",
      "dec=2179 prop=29734 pure=21317 confl=40 sol=534 lc=39 lu=527 bj=566 fb=0 \
       maxlvl=21 rst=0 del=0" );
    ( "counter3 TO",
      "dec=926 prop=11267 pure=11993 confl=9 sol=266 lc=8 lu=259 bj=267 fb=0 \
       maxlvl=20 rst=0 del=0" );
    ( "gray2 PO",
      "dec=246 prop=2012 pure=969 confl=17 sol=46 lc=16 lu=43 bj=59 fb=0 \
       maxlvl=13 rst=0 del=0" );
    ( "gray2 TO",
      "dec=113 prop=1168 pure=925 confl=11 sol=47 lc=10 lu=44 bj=54 fb=0 \
       maxlvl=9 rst=0 del=0" );
    ( "semaphore3 PO",
      "dec=1460 prop=11784 pure=12318 confl=49 sol=204 lc=46 lu=199 bj=245 fb=6 \
       maxlvl=23 rst=0 del=0" );
    ( "semaphore3 TO",
      "dec=2019 prop=13854 pure=13835 confl=230 sol=250 lc=96 lu=239 bj=335 fb=143 \
       maxlvl=27 rst=0 del=0" );
    ( "fpv proof",
      "dec=11 prop=29 pure=0 confl=4 sol=3 lc=3 lu=3 bj=6 fb=0 \
       maxlvl=9 rst=0 del=0" );
    ( "fpv reduce",
      "dec=106 prop=448 pure=2 confl=3 sol=100 lc=3 lu=99 bj=102 fb=0 \
       maxlvl=8 rst=0 del=66" );
  ]

let test_search_path () =
  let module D = Qbf_models.Diameter in
  let actual =
    List.concat_map
      (fun name ->
        [
          (name ^ " PO", dia_stats name D.Nonprenex);
          (name ^ " TO", dia_stats name D.Prenex);
        ])
      [ "counter3"; "gray2"; "semaphore3" ]
    @ [ ("fpv proof", fpv_proof_stats ()); ("fpv reduce", fpv_reduce_stats ()) ]
  in
  List.iter2
    (fun (name, expected) (name', got) ->
      Alcotest.(check string) "case order" name name';
      Alcotest.(check string) name expected got)
    pinned_search_path actual

let suite =
  [
    Alcotest.test_case "trivial formulas" `Quick test_trivial;
    Alcotest.test_case "two-variable equivalences" `Quick test_two_vars;
    Alcotest.test_case "paper formula (1)" `Quick test_paper_formula;
    Alcotest.test_case "pure universal literal" `Quick test_pure_universal;
    Alcotest.test_case "SAT fragment: php(3,2)" `Quick test_sat_fragment;
    Alcotest.test_case "budget respected" `Quick test_budget;
    Alcotest.test_case "search path pinned" `Quick test_search_path;
    Util.qcheck_case ~count:400 "differential: non-prenex vs oracle"
      gen_params prop_tree_differential;
    Util.qcheck_case ~count:400 "differential: prenex vs oracle" gen_params
      prop_prenex_differential;
    Util.qcheck_case ~count:200 "definite answers on small instances"
      gen_params prop_definite;
  ]
