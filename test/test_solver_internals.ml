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
  Alcotest.check_raises "get past length" (Invalid_argument "Vec.get")
    (fun () -> ignore (V.get v (V.length v)))

(* The default build is optimised (dune-workspace), and it must keep the
   checks compiled into the libraries: an assertion, which -noassert
   would drop (a literal [assert false] would not show it: -noassert
   keeps those), and an implicit array bounds check, which -unsafe would
   drop.  [test_vec] checks Vec's own range check. *)
let test_checks_kept () =
  (match Lit.of_var (-1) with
  | exception Assert_failure _ -> ()
  | _ -> Alcotest.fail "Lit.of_var (-1) passed its assertion");
  Alcotest.check_raises "implicit bounds check"
    (Invalid_argument "index out of bounds") (fun () ->
      let module Db = Qbf_solver.Constraint_db in
      ignore (Db.frame (Db.create ()) (-1)))

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

(* --- the branching order against the scans it replaced ------------------ *)

module S = Qbf_solver.State
module Session = Qbf_solver.Session
module Rng = Qbf_gen.Rng

let max_act s v = Float.max s.S.act.(2 * v) s.S.act.((2 * v) + 1)

(* The per-decision scans that Heuristic used before the order heap,
   over the variables satisfying [ok] ([S.available s] in the solver):
   least (prefix level, -activity, id) under TO, greatest (score, -id)
   under PO. *)
let scan_total_order s ok =
  let best = ref (-1) in
  let best_level = ref max_int in
  let best_act = ref neg_infinity in
  for v = 0 to s.S.nvars - 1 do
    if ok v then begin
      let lvl = Prefix.level s.S.prefix v in
      let a = max_act s v in
      if lvl < !best_level || (lvl = !best_level && a > !best_act) then begin
        best := v;
        best_level := lvl;
        best_act := a
      end
    end
  done;
  !best

let scan_partial_order s ok =
  let nb = Prefix.num_blocks s.S.prefix in
  if nb = 0 then -1
  else begin
    let block_best = Array.make nb 0. and child_max = Array.make nb 0. in
    for b = nb - 1 downto 0 do
      let cm =
        Array.fold_left
          (fun acc c -> Float.max acc block_best.(c))
          0.
          (Prefix.block_children s.S.prefix b)
      in
      child_max.(b) <- cm;
      let local =
        Array.fold_left
          (fun acc v -> Float.max acc (max_act s v))
          0.
          (Prefix.block_vars s.S.prefix b)
      in
      block_best.(b) <- local +. cm
    done;
    let best = ref (-1) in
    let best_score = ref neg_infinity in
    for v = 0 to s.S.nvars - 1 do
      if ok v then begin
        let score = max_act s v +. child_max.(s.S.block_of.(v)) in
        if score > !best_score then begin
          best := v;
          best_score := score
        end
      end
    done;
    !best
  end

let scan s ok =
  match s.S.config.ST.search.ST.heuristic with
  | ST.Total_order -> scan_total_order s ok
  | ST.Partial_order -> scan_partial_order s ok

(* Activities drawn with zeros, ties and negative values. *)
let palette = [| -3.; -1.5; -0.5; 0.; 0.; 0.5; 1.; 1.; 2.; 4. |]

let draw_activities rng s =
  for l = 0 to (2 * s.S.nvars) - 1 do
    s.S.act.(l) <- palette.(Rng.int rng (Array.length palette))
  done

(* A few rounds of: backjump to a random level, decide a few random
   unassigned variables without propagating, then pick.  The heap's pick
   must be the scan's; it is then decided, as the engine would.  Returns
   the rounds whose best unassigned variable was unavailable, so the
   pick had to set it aside. *)
let check_picks rng s what =
  let unassigned v = not (S.is_assigned s v) in
  let aside = ref 0 in
  for _ = 1 to 4 do
    S.backtrack s (Rng.int rng (S.current_level s + 1));
    for _ = 1 to Rng.int rng 4 do
      let v = Rng.int rng s.S.nvars in
      if unassigned v then
        S.new_decision s ((2 * v) + Rng.int rng 2) ~flipped:false
    done;
    let want = scan s (S.available s) in
    if scan s unassigned <> want then incr aside;
    let got = Qbf_solver.Heuristic.pick s in
    if got <> want then
      QCheck2.Test.fail_reportf "%s: the order picks %d, the scan %d" what got
        want;
    if got >= 0 then S.new_decision s (2 * got) ~flipped:false
  done;
  !aside

(* Under both heuristics, on a random tree or prenex formula: the picks
   after State.create, after drawn activities are rescaled, and after a
   session's search and growth.  Returns the set-aside rounds under PO. *)
let order_matches_scans seed =
  let rng = Rng.create seed in
  let nvars = 1 + Rng.int rng 14 in
  let nclauses = Rng.int rng (2 * nvars) in
  let f =
    if Rng.bool rng then Qbf_gen.Randqbf.tree rng ~nvars ~nclauses ~len:3 ()
    else
      Qbf_gen.Randqbf.prenex rng ~nvars ~levels:(1 + Rng.int rng 4) ~nclauses
        ~len:3 ~min_exists:0 ()
  in
  List.fold_left
    (fun aside heuristic ->
      let config = ST.(default_config |> with_heuristic heuristic) in
      let s = S.create f config in
      let n = check_picks rng s "after create" in
      draw_activities rng s;
      S.rescale_activities s;
      let n = n + check_picks rng s "after rescale" in
      let config = ST.(config |> with_max_nodes (Some (Rng.int rng 30))) in
      let t = Session.of_formula ~config f in
      let s = Session.state_for_testing t in
      ignore (Session.solve t);
      let n = n + check_picks rng s "after a session solve" in
      draw_activities rng s;
      let b = Session.new_block t Quant.Exists in
      let first = Session.new_vars t b (1 + Rng.int rng 2) in
      let c = Session.new_block t ~parent:b Quant.Forall in
      let _ = Session.new_vars t c (1 + Rng.int rng 2) in
      Session.add_clause t
        [ Lit.make first true; Lit.make (Rng.int rng nvars) (Rng.bool rng) ];
      ignore (Session.solve t);
      let n = n + check_picks rng s "after session growth" in
      Session.dispose t;
      if heuristic = ST.Partial_order then aside + n else aside)
    0
    [ ST.Total_order; ST.Partial_order ]

let prop_order_matches_scans seed =
  ignore (order_matches_scans seed);
  true

(* The generator must reach the set-aside path: an unassigned variable
   in an outer block while a higher-ranked one waits below it. *)
let test_order_reaches_set_aside () =
  let aside = ref 0 in
  for seed = 0 to 99 do
    aside := !aside + order_matches_scans seed
  done;
  Alcotest.(check bool) "PO picks set candidates aside" true (!aside > 0)

(* --- the watch kernel against the closure-based scans it replaced ------ *)

module Db = Qbf_solver.Constraint_db

(* State's learned-constraint scans as they were before they became
   loops over the arena slice: one closure call and one match on the
   kind per literal.  ([unit_blocked] called [Db.exists_lit], which went
   with it; its copy walks the literal list.) *)
let oracle_find_watch_pair s cid =
  let kind = Db.kind s.S.db cid in
  let p1 = ref (-1) and p2 = ref (-1) in
  Db.iter_lits s.S.db cid (fun m ->
      if S.eligible s kind m && S.primary s kind m then
        if !p1 < 0 then p1 := m else if !p2 < 0 then p2 := m);
  if !p1 < 0 then None
  else if !p2 >= 0 then Some (!p1, !p2)
  else begin
    let p = !p1 in
    let sec = ref (-1) in
    Db.iter_lits s.S.db cid (fun m ->
        if
          !sec < 0
          && (not (S.primary s kind m))
          && S.eligible s kind m
          && S.precedes s (S.var m) (S.var p)
        then sec := m);
    if !sec >= 0 then Some (p, !sec) else None
  end

let oracle_scan_status s cid =
  let kind = Db.kind s.S.db cid in
  let opens = ref 0 and fixed = ref 0 in
  Db.iter_lits s.S.db cid (fun m ->
      match S.lit_value s m with
      | -1 -> if S.primary s kind m then incr opens
      | v -> if S.settles kind v then incr fixed);
  (!opens, !fixed)

let oracle_open_primary s kind cid =
  let p = ref (-1) in
  Db.iter_lits s.S.db cid (fun m ->
      if S.lit_value s m < 0 && S.primary s kind m then p := m);
  !p

let oracle_unit_blocked s kind cid p =
  List.exists
    (fun m ->
      S.lit_value s m < 0
      && (not (S.primary s kind m))
      && S.precedes s (S.var m) (S.var p))
    (Db.lits_list s.S.db cid)

(* Literals over up to six distinct variables, a fifth of them entered
   as a merged pair (both literals).  Half the time they are sorted, as
   Analyze stores a learned constraint; otherwise shuffled, so that a
   secondary can follow its primary in the arena even though the
   generators number variables roughly in prefix order. *)
let random_lits rng ~nvars =
  let width = 1 + Rng.int rng (min nvars 6) in
  let lits =
    List.init width (fun _ -> Rng.int rng nvars)
    |> List.sort_uniq Int.compare
    |> List.concat_map (fun v ->
           if Rng.int rng 5 = 0 then [ 2 * v; (2 * v) + 1 ]
           else [ (2 * v) + Rng.int rng 2 ])
    |> Array.of_list
  in
  if Rng.bool rng then
    for i = Array.length lits - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      let x = lits.(i) in
      lits.(i) <- lits.(j);
      lits.(j) <- x
    done;
  lits

let pp_pair = function
  | None -> "none"
  | Some (a, b) -> Printf.sprintf "(%d, %d)" a b

(* Every scan of every active constraint of [s] against its oracle, under
   the assignment [s] holds; [unit_blocked] for each literal of the
   constraint as the unit candidate. *)
let check_kernels s what =
  let db = s.S.db in
  for cid = 0 to Db.size db - 1 do
    if Db.active db cid then begin
      let kind = Db.kind db cid in
      let fail fmt =
        QCheck2.Test.fail_reportf ("%s: constraint %d: " ^^ fmt) what cid
      in
      let got = S.find_watch_pair s cid and want = oracle_find_watch_pair s cid in
      if got <> want then
        fail "find_watch_pair %s, oracle %s" (pp_pair got) (pp_pair want);
      let got = S.scan_status s cid and want = oracle_scan_status s cid in
      if got <> want then
        fail "scan_status (%d, %d), oracle (%d, %d)" (fst got) (snd got)
          (fst want) (snd want);
      let got = S.open_primary s kind cid
      and want = oracle_open_primary s kind cid in
      if got <> want then fail "open_primary %d, oracle %d" got want;
      Db.iter_lits db cid (fun p ->
          let got = S.unit_blocked s kind cid p
          and want = oracle_unit_blocked s kind cid p in
          if got <> want then
            fail "unit_blocked for %d %b, oracle %b" p got want)
    end
  done

(* Random partial assignments, written straight into [value]: the
   kernels read nothing else that changes during search. *)
let check_kernels_under_assignments rng s what =
  for round = 1 to 4 do
    for v = 0 to s.S.nvars - 1 do
      s.S.value.(v) <- Rng.int rng 3 - 1
    done;
    check_kernels s (Printf.sprintf "%s, assignment %d" what round)
  done

(* On a random tree or prenex formula: the matrix plus random learned
   clauses and cubes, then the learned database of a budgeted session
   search, whose learned constraints may carry long-distance merges. *)
let prop_kernels_match_oracle seed =
  let rng = Rng.create seed in
  let nvars = 1 + Rng.int rng 14 in
  let nclauses = 1 + Rng.int rng (2 * nvars) in
  let f =
    if Rng.bool rng then Qbf_gen.Randqbf.tree rng ~nvars ~nclauses ~len:3 ()
    else
      Qbf_gen.Randqbf.prenex rng ~nvars ~levels:(1 + Rng.int rng 4) ~nclauses
        ~len:3 ~min_exists:0 ()
  in
  let s = S.create f ST.default_config in
  for _ = 1 to 5 + Rng.int rng 20 do
    let kind = if Rng.bool rng then ST.Clause_c else ST.Cube_c in
    ignore (S.add_constraint s kind ~learned:true (random_lits rng ~nvars))
  done;
  check_kernels_under_assignments rng s "added constraints";
  let config = ST.(default_config |> with_max_nodes (Some (Rng.int rng 60))) in
  let t = Session.of_formula ~config f in
  ignore (Session.solve t);
  let s = Session.state_for_testing t in
  check_kernels s "after a session solve";
  check_kernels_under_assignments rng s "after a session solve";
  Session.dispose t;
  true

let suite =
  [
    Alcotest.test_case "vec container" `Quick test_vec;
    Alcotest.test_case "optimised build keeps its checks" `Quick
      test_checks_kept;
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
    Util.qcheck_case ~count:300 "order heap picks as the scans do"
      (QCheck2.Gen.int_range 0 10_000_000)
      prop_order_matches_scans;
    Alcotest.test_case "order heap reaches the set-aside path" `Quick
      test_order_reaches_set_aside;
    Util.qcheck_case ~count:300 "watch kernel scans as the closures do"
      (QCheck2.Gen.int_range 0 10_000_000)
      prop_kernels_match_oracle;
  ]
