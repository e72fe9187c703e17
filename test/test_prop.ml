(* Propagation: watched-literal invariants across session mutations
   and fixpoint-completeness assertions.  Diameters against the BFS
   oracle are checked in test_models. *)

open Qbf_core
module ST = Qbf_solver.Solver_types
module Session = Qbf_solver.Session
module S = Qbf_solver.State
module Vec = Qbf_solver.Vec

let ( => ) b v = Alcotest.check Util.outcome b (Util.solver_outcome_of_bool v)

let random_clauses rng prefix ~nvars ~n =
  let evars =
    List.filter (Prefix.is_exists prefix) (List.init nvars (fun v -> v))
  in
  List.init n (fun _ ->
      let width = 2 + Qbf_gen.Rng.int rng 3 in
      let e = List.nth evars (Qbf_gen.Rng.int rng (List.length evars)) in
      Lit.make e (Qbf_gen.Rng.int rng 2 = 0)
      :: List.init (width - 1) (fun _ ->
             Lit.make (Qbf_gen.Rng.int rng nvars) (Qbf_gen.Rng.int rng 2 = 0)))

(* White-box check of the watched-literal invariants on every active
   watch-maintained constraint of [s]:

   - both watches are literals of the constraint, and the constraint
     sits exactly once in each watch's list (the watch kernel removes a
     moving watch's entry at the cursor of the list it is visiting);
   - a non-parked constraint's watches are structurally compatible (two
     primaries, or a secondary preceding a primary — the value-independent
     shape that survives backtracking);
   - a non-parked constraint is inert: both watches eligible, or the
     other watch parks it (true for a clause — satisfied; false for a
     cube — dead).

   Parked constraints are exempt from the last two: they are registered
   in [parked_q] for post-backtrack repair, which the first clause below
   checks. *)
let check_watch_invariants label s =
  let module Db = Qbf_solver.Constraint_db in
  let db = s.S.db in
  let check name cond =
    if not cond then Alcotest.failf "%s: %s" label name
  in
  for cid = 0 to Db.size db - 1 do
    if Db.active db cid && Db.watched db cid then begin
      let kind = Db.kind db cid in
      let w1 = Db.w1 db cid and w2 = Db.w2 db cid in
      let name fmt = Printf.sprintf fmt cid in
      let in_lits m = List.mem m (Db.lits_list db cid) in
      check (name "constraint %d: w1 in lits") (in_lits w1);
      check (name "constraint %d: w2 in lits") (in_lits w2);
      let watched_once m =
        Vec.fold
          (fun n x -> if x = cid then n + 1 else n)
          0 (S.watch_list s kind m)
        = 1
      in
      check (name "constraint %d: w1 registered once") (watched_once w1);
      check (name "constraint %d: w2 registered once") (watched_once w2);
      if Db.parked db cid then
        check
          (name "constraint %d: parked constraint registered in parked_q")
          (Vec.exists (fun x -> x = cid) s.S.parked_q)
      else if w1 <> w2 then begin
        let primary m =
          s.S.is_exist.(S.var m) = (kind = ST.Clause_c)
        in
        let compatible a b =
          (primary a && primary b)
          || (primary a && S.precedes s (S.var b) (S.var a))
          || (primary b && S.precedes s (S.var a) (S.var b))
        in
        check
          (name "constraint %d: non-parked watches compatible")
          (compatible w1 w2);
        let park = match kind with ST.Clause_c -> 1 | ST.Cube_c -> 0 in
        let inert =
          (S.eligible s kind w1 && S.eligible s kind w2)
          || S.lit_value s w1 = park
          || S.lit_value s w2 = park
        in
        check (name "constraint %d: non-parked watches inert") inert
      end
    end
  done

(* Watch invariants hold after every session mutation: initial solve,
   push + growth, pop, matrix growth at frame 0, and prefix extension
   via new_block/new_vars.  Learned constraints survive each step, so
   the watched database is genuinely exercised. *)
let test_watch_invariants_across_session () =
  for seed = 0 to 29 do
    let rng = Qbf_gen.Rng.create (7000 + seed) in
    let nvars = 6 + Qbf_gen.Rng.int rng 8 in
    let f0 =
      Qbf_gen.Randqbf.prenex rng ~nvars
        ~levels:(2 + (seed mod 3))
        ~nclauses:(8 + Qbf_gen.Rng.int rng 14)
        ~len:3 ~min_exists:1 ()
    in
    let t = Session.of_formula ~validate:true f0 in
    let s = Session.state_for_testing t in
    let step label reference =
      (label ^ " " ^ string_of_int seed => Eval.eval reference)
        (Session.solve t).ST.outcome;
      check_watch_invariants (label ^ " " ^ string_of_int seed) s
    in
    let with_extra base extra =
      Formula.make (Formula.prefix base)
        (List.map Clause.of_list extra @ Formula.matrix base)
    in
    step "base" f0;
    let pushed =
      random_clauses rng (Formula.prefix f0) ~nvars
        ~n:(2 + Qbf_gen.Rng.int rng 3)
    in
    Session.push t;
    List.iter (Session.add_clause t) pushed;
    step "pushed" (with_extra f0 pushed);
    Session.pop t;
    check_watch_invariants ("popped(pre-solve) " ^ string_of_int seed) s;
    step "popped" f0;
    let grown =
      random_clauses rng (Formula.prefix f0) ~nvars
        ~n:(1 + Qbf_gen.Rng.int rng 3)
    in
    List.iter (Session.add_clause t) grown;
    let f1 = with_extra f0 grown in
    step "grown" f1;
    (* grow the prefix: a fresh innermost existential block, used by one
       clause tying a new variable to an old one *)
    let b = Session.new_block t Quant.Exists in
    let v = Session.new_vars t b 1 in
    let e = Qbf_gen.Rng.int rng nvars in
    let cl = [ Lit.make v true; Lit.make e (Qbf_gen.Rng.int rng 2 = 0) ] in
    Session.add_clause t cl;
    let p1 = Formula.prefix f1 in
    let blocks =
      List.map
        (fun lvl ->
          ( Prefix.block_quant p1 lvl,
            Array.to_list (Prefix.block_vars p1 lvl) ))
        (List.init (Prefix.num_blocks p1) (fun i -> i))
      @ [ (Quant.Exists, [ v ]) ]
    in
    let p2 = Prefix.of_blocks ~nvars:(nvars + 1) blocks in
    let f2 = Formula.make p2 (Clause.of_list cl :: Formula.matrix f1) in
    step "new-block" f2;
    Session.dispose t
  done

(* [debug_checks] asserts at every fixpoint that no active constraint
   is an undetected conflict / unit / solution.  Any lost watched
   wake-up dies here with an exception. *)
let test_fixpoint_completeness () =
  for seed = 0 to 99 do
    let rng = Qbf_gen.Rng.create (8000 + seed) in
    let nvars = 4 + Qbf_gen.Rng.int rng 10 in
    let f =
      if seed mod 2 = 0 then
        Qbf_gen.Randqbf.tree rng ~nvars
          ~nclauses:(6 + Qbf_gen.Rng.int rng 20)
          ~len:3 ()
      else
        Qbf_gen.Randqbf.prenex rng ~nvars
          ~levels:(1 + (seed mod 4))
          ~nclauses:(6 + Qbf_gen.Rng.int rng 20)
          ~len:3 ~min_exists:1 ()
    in
    let config = ST.(default_config |> with_debug_checks true) in
    ("fixpoint-complete " ^ string_of_int seed => Eval.eval f)
      (Qbf_solver.Engine.solve ~config f).ST.outcome
  done

let suite =
  [
    Alcotest.test_case "watch invariants across session ops" `Quick
      test_watch_invariants_across_session;
    Alcotest.test_case "fixpoint completeness (debug_checks)" `Quick
      test_fixpoint_completeness;
  ]
