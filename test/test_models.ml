(* Model substrate tests: boolean expressions, CNF conversion, model
   families, reachability oracle and the diameter QBFs. *)

open Qbf_core
module Bx = Qbf_models.Bexpr

let env_of_int s v = (s lsr v) land 1 = 1

(* random Bexpr over [nv] variables *)
let rec random_bexpr rng nv depth =
  if depth = 0 || Qbf_gen.Rng.int rng 3 = 0 then
    Bx.lit (Qbf_gen.Rng.int rng nv) (Qbf_gen.Rng.bool rng)
  else
    match Qbf_gen.Rng.int rng 4 with
    | 0 -> Bx.not_ (random_bexpr rng nv (depth - 1))
    | 1 ->
        Bx.and_
          (List.init
             (1 + Qbf_gen.Rng.int rng 3)
             (fun _ -> random_bexpr rng nv (depth - 1)))
    | 2 ->
        Bx.or_
          (List.init
             (1 + Qbf_gen.Rng.int rng 3)
             (fun _ -> random_bexpr rng nv (depth - 1)))
    | _ ->
        Bx.iff (random_bexpr rng nv (depth - 1)) (random_bexpr rng nv (depth - 1))

let prop_nnf_preserves_eval seed =
  let rng = Qbf_gen.Rng.create seed in
  let nv = 5 in
  let e = random_bexpr rng nv 4 in
  let n = Bx.nnf e in
  let rec no_iff_not_inner = function
    | Bx.Iff _ -> false
    | Bx.Not (Bx.Var _) -> true
    | Bx.Not _ -> false
    | Bx.And xs | Bx.Or xs -> List.for_all no_iff_not_inner xs
    | Bx.True | Bx.False | Bx.Var _ -> true
  in
  no_iff_not_inner n
  && List.for_all
       (fun s -> Bx.eval (env_of_int s) e = Bx.eval (env_of_int s) n)
       (List.init (1 lsl nv) Fun.id)

(* Tseitin: asserting [e] yields clauses satisfiable exactly by the
   models of [e] (projected onto the original variables). *)
let prop_tseitin_equisat seed =
  let rng = Qbf_gen.Rng.create (seed + 500) in
  let nv = 4 in
  let e = random_bexpr rng nv 3 in
  let next = ref nv in
  let clauses = ref [] in
  let ctx =
    Qbf_models.Tseitin.create
      ~fresh:(fun () ->
        let v = !next in
        incr next;
        v)
      ~emit:(fun lits -> clauses := lits :: !clauses)
      ~env:Lit.of_var
  in
  Qbf_models.Tseitin.assert_true ctx e;
  let total = !next in
  (* for each assignment of the original vars: e true <-> clauses
     satisfiable for some assignment of the gates *)
  let sat_with s =
    (* brute force over gate variables *)
    let gates = total - nv in
    let rec try_g g =
      g < 1 lsl gates
      && (List.for_all
            (fun c ->
              List.exists
                (fun l ->
                  let v = Lit.var l in
                  let value =
                    if v < nv then env_of_int s v else (g lsr (v - nv)) land 1 = 1
                  in
                  value = Lit.is_pos l)
                c)
            !clauses
         || try_g (g + 1))
    in
    if gates > 12 then true (* skip oversized cases *) else try_g 0
  in
  List.for_all
    (fun s -> Bx.eval (env_of_int s) e = sat_with s)
    (List.init (1 lsl nv) Fun.id)

let test_counter_model () =
  let m = Qbf_models.Families.counter ~bits:3 in
  (* 000 -> 001 -> 010 ... wrap at 111 -> 000 *)
  Alcotest.(check bool) "init" true (Qbf_models.Model.is_initial m 0);
  Alcotest.(check bool) "not init" false (Qbf_models.Model.is_initial m 3);
  for s = 0 to 7 do
    for s' = 0 to 7 do
      Alcotest.(check bool)
        (Printf.sprintf "trans %d->%d" s s')
        (s' = (s + 1) mod 8)
        (Qbf_models.Model.is_transition m s s')
    done
  done;
  Alcotest.(check int) "diameter 2^3-1" 7 (Qbf_models.Reach.diameter m);
  Alcotest.(check int) "all reachable" 8 (Qbf_models.Reach.num_reachable m)

let test_trans_prime () =
  let m = Qbf_models.Families.counter ~bits:2 in
  let t' = Qbf_models.Model.trans' m in
  (* self loop on the initial state, plus the ordinary transitions *)
  let holds s s' =
    Qbf_models.Bexpr.eval
      (fun v -> if v < 2 then env_of_int s v else env_of_int s' (v - 2))
      t'
  in
  Alcotest.(check bool) "self loop at init" true (holds 0 0);
  Alcotest.(check bool) "normal step" true (holds 1 2);
  Alcotest.(check bool) "no other self loop" false (holds 1 1)

let test_semaphore_model () =
  let m = Qbf_models.Families.semaphore ~procs:3 in
  let d = Qbf_models.Reach.diameter m in
  Alcotest.(check bool) "small constant diameter" true (d >= 1 && d <= 3);
  (* mutual exclusion: no reachable state with two critical bits *)
  let dist = Qbf_models.Reach.distances m in
  Array.iteri
    (fun s ds ->
      if ds >= 0 then begin
        let criticals = ref 0 in
        for i = 0 to 2 do
          if Qbf_models.Model.state_bit s ((2 * i) + 1) then incr criticals
        done;
        Alcotest.(check bool) "mutex" true (!criticals <= 1)
      end)
    dist

let test_dme_model () =
  let m = Qbf_models.Families.dme ~cells:3 in
  let d = Qbf_models.Reach.diameter m in
  Alcotest.(check bool) "diameter grows with ring" true (d >= 2);
  (* exactly one token in every reachable state *)
  let dist = Qbf_models.Reach.distances m in
  Array.iteri
    (fun s ds ->
      if ds >= 0 then begin
        let tokens = ref 0 in
        for i = 0 to 2 do
          if Qbf_models.Model.state_bit s (2 * i) then incr tokens
        done;
        Alcotest.(check int) "one token" 1 !tokens
      end)
    dist

(* The core reproduction invariant: phi_n is true iff n < BFS diameter,
   for every family, both prenex and non-prenex, both heuristics. *)
let test_phi_truth_pattern () =
  let models =
    [
      Qbf_models.Families.counter ~bits:2;
      Qbf_models.Families.ring ~gates:3;
      Qbf_models.Families.semaphore ~procs:2;
      Qbf_models.Families.dme ~cells:2;
    ]
  in
  List.iter
    (fun m ->
      let d = Qbf_models.Reach.diameter m in
      for n = 0 to min (d + 1) 6 do
        let lay = Qbf_models.Diameter.build m ~n in
        List.iter
          (fun style ->
            let f = Qbf_models.Diameter.phi_styled m ~style ~n in
            let r =
              Qbf_solver.Engine.solve
                ~config:(Qbf_models.Diameter.config_for lay)
                f
            in
            let expected = n < d in
            Alcotest.check Util.outcome
              (Printf.sprintf "%s phi_%d (%s)" (Qbf_models.Model.name m) n
                 (match style with
                 | Qbf_models.Diameter.Nonprenex -> "po"
                 | Qbf_models.Diameter.Prenex -> "to"))
              (Util.solver_outcome_of_bool expected)
              r.Qbf_solver.Solver_types.outcome)
          [ Qbf_models.Diameter.Nonprenex; Qbf_models.Diameter.Prenex ]
      done)
    models

(* The rebuilt iteration as qdiameter runs it: QuBE(PO) on eq. (14)
   and QuBE(TO) on its prenexing, eq. (16). *)
let test_diameter_compute () =
  let to_config =
    Qbf_solver.Solver_types.(default_config |> with_heuristic Total_order)
  in
  List.iter
    (fun m ->
      let d = Some (Qbf_models.Reach.diameter m) in
      let name = Qbf_models.Model.name m in
      Alcotest.(check (option int)) (name ^ " po") d
        (Qbf_models.Diameter.compute m);
      Alcotest.(check (option int)) (name ^ " to") d
        (Qbf_models.Diameter.compute ~style:Qbf_models.Diameter.Prenex
           ~config:to_config m))
    [
      Qbf_models.Families.counter ~bits:2;
      Qbf_models.Families.counter ~bits:3;
      Qbf_models.Families.ring ~gates:3;
      Qbf_models.Families.ring ~gates:4;
      Qbf_models.Families.semaphore ~procs:2;
      Qbf_models.Families.semaphore ~procs:3;
      Qbf_models.Families.dme ~cells:2;
      Qbf_models.Families.dme ~cells:3;
      Qbf_models.Families.gray ~bits:3;
      Qbf_models.Families.shift ~bits:4;
    ]

(* Incremental sessions and the per-bound rebuild must agree with each
   other and with the BFS oracle on every family, in both styles; the
   session runs with the growth contract validated on every prefix
   extension (parenthesis property, eq. 13). *)
let test_incremental_matches_rebuild () =
  List.iter
    (fun m ->
      let d = Qbf_models.Reach.diameter m in
      List.iter
        (fun (sname, style) ->
          let inc =
            Qbf_models.Diameter.compute_report ~style ~validate:true m
          in
          let rb = Qbf_models.Diameter.compute_report ~style ~mode:`Rebuild m in
          let name =
            Printf.sprintf "%s (%s)" (Qbf_models.Model.name m) sname
          in
          Alcotest.(check (option int))
            (name ^ " incremental") (Some d)
            inc.Qbf_models.Diameter.diameter;
          Alcotest.(check (option int))
            (name ^ " rebuild") (Some d) rb.Qbf_models.Diameter.diameter;
          Alcotest.(check int) (name ^ " lower bound") d
            inc.Qbf_models.Diameter.lower_bound;
          (* per-bound outcomes follow the phi_n truth pattern *)
          List.iter
            (fun (b : Qbf_models.Diameter.bound_stat) ->
              Alcotest.check Util.outcome
                (Printf.sprintf "%s phi_%d" name b.Qbf_models.Diameter.bound)
                (Util.solver_outcome_of_bool (b.Qbf_models.Diameter.bound < d))
                b.Qbf_models.Diameter.outcome)
            inc.Qbf_models.Diameter.per_bound)
        [
          ("po", Qbf_models.Diameter.Nonprenex);
          ("to", Qbf_models.Diameter.Prenex);
        ])
    [
      Qbf_models.Families.counter ~bits:2;
      Qbf_models.Families.counter ~bits:3;
      Qbf_models.Families.ring ~gates:4;
      Qbf_models.Families.semaphore ~procs:2;
      Qbf_models.Families.dme ~cells:3;
      Qbf_models.Families.gray ~bits:3;
      Qbf_models.Families.shift ~bits:3;
      Qbf_models.Families.shift ~bits:4;
      Qbf_models.Families.shift ~bits:5;
    ]

(* Inconclusive iterations report how far they got: a small max_n gives
   a proven lower bound, an exhausted budget says the solver stopped. *)
let test_compute_report_stops () =
  let m = Qbf_models.Families.counter ~bits:3 in
  List.iter
    (fun mode ->
      let r = Qbf_models.Diameter.compute_report ~mode ~max_n:3 m in
      Alcotest.(check (option int)) "no diameter" None
        r.Qbf_models.Diameter.diameter;
      Alcotest.(check bool) "bound exceeded" true
        (r.Qbf_models.Diameter.stop = Qbf_models.Diameter.Bound_exceeded);
      Alcotest.(check int) "lower bound proves phi_0..phi_3" 4
        r.Qbf_models.Diameter.lower_bound;
      let config =
        Qbf_solver.Solver_types.(
          default_config
          |> with_should_stop (Some (fun () -> true))
          |> with_stop_interval 1)
      in
      let r = Qbf_models.Diameter.compute_report ~mode ~config m in
      Alcotest.(check bool) "solver stopped" true
        (r.Qbf_models.Diameter.stop = Qbf_models.Diameter.Solver_stopped))
    [ `Incremental; `Rebuild ]

let test_phi_prefix_shape () =
  (* prefix (18): x^{n+1} ≺ y's ≺ aux; the x-chain unordered with y. *)
  let m = Qbf_models.Families.counter ~bits:2 in
  let lay = Qbf_models.Diameter.build m ~n:1 in
  let p = Qbf_core.Formula.prefix lay.Qbf_models.Diameter.formula in
  let x_top = lay.Qbf_models.Diameter.x_state 2 0 in
  let x_chain = lay.Qbf_models.Diameter.x_state 0 0 in
  let y = lay.Qbf_models.Diameter.y_state 0 0 in
  Alcotest.(check bool) "x_top before y" true (Prefix.precedes p x_top y);
  Alcotest.(check bool) "x-chain unordered with y" false
    (Prefix.precedes p x_chain y || Prefix.precedes p y x_chain);
  Alcotest.(check bool) "not prenex" false (Prefix.is_prenex p);
  let pp = Qbf_core.Formula.prefix (Qbf_models.Diameter.phi_prenex m ~n:1) in
  Alcotest.(check bool) "prenex version" true (Prefix.is_prenex pp);
  Alcotest.(check bool) "prenex: x-chain before y" true
    (Prefix.precedes pp x_chain y)

let test_gray_shift () =
  (* gray<N> mirrors counter<N>'s eccentricity 2^N - 1 with a one-bit
     flip per step; shift<N> has eccentricity exactly N. *)
  Alcotest.(check int) "gray3 diameter" 7
    (Qbf_models.Reach.diameter (Qbf_models.Families.gray ~bits:3));
  let dist = Qbf_models.Reach.distances (Qbf_models.Families.gray ~bits:3) in
  Array.iteri
    (fun s d -> if d > 0 then
      (* every reachable non-initial gray state has exactly one
         predecessor-differing bit on the path; cheap sanity: states
         are all reachable *)
      Alcotest.(check bool) (Printf.sprintf "state %d reachable" s) true (d >= 0))
    dist;
  Alcotest.(check int) "shift5 diameter" 5
    (Qbf_models.Reach.diameter (Qbf_models.Families.shift ~bits:5))

let test_by_name () =
  Alcotest.(check int) "counter4 bits" 4
    (Qbf_models.Model.bits (Qbf_models.Families.by_name "counter4"));
  Alcotest.(check int) "gray3 bits" 3
    (Qbf_models.Model.bits (Qbf_models.Families.by_name "gray3"));
  Alcotest.(check int) "shift4 bits" 4
    (Qbf_models.Model.bits (Qbf_models.Families.by_name "shift4"));
  Alcotest.(check int) "semaphore3 bits" 6
    (Qbf_models.Model.bits (Qbf_models.Families.by_name "semaphore3"));
  match Qbf_models.Families.by_name "nonsense" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* ---------- SMV front-end ---------------------------------------------- *)

let models_equivalent a b =
  Qbf_models.Model.bits a = Qbf_models.Model.bits b
  &&
  let n = Qbf_models.Model.num_states a in
  let ok = ref true in
  for s = 0 to n - 1 do
    if Qbf_models.Model.is_initial a s <> Qbf_models.Model.is_initial b s then
      ok := false;
    for s' = 0 to n - 1 do
      if
        Qbf_models.Model.is_transition a s s'
        <> Qbf_models.Model.is_transition b s s'
      then ok := false
    done
  done;
  !ok

let test_smv_roundtrip () =
  List.iter
    (fun m ->
      let m' = Qbf_models.Smv.parse_string (Qbf_models.Smv.to_string m) in
      Alcotest.(check bool) (Qbf_models.Model.name m) true
        (models_equivalent m m'))
    [
      Qbf_models.Families.counter ~bits:3;
      Qbf_models.Families.ring ~gates:3;
      Qbf_models.Families.semaphore ~procs:2;
      Qbf_models.Families.dme ~cells:2;
    ]

let test_smv_parse () =
  let text =
    "MODULE main\n\
     VAR\n\
    \  b0 : boolean;\n\
    \  b1 : boolean;\n\
     -- a 2-bit counter\n\
     INIT\n\
    \  !b0 & !b1\n\
     TRANS\n\
    \  (next(b0) <-> !b0) & (next(b1) <-> (b1 xor b0))\n"
  in
  let m = Qbf_models.Smv.parse_string text in
  Alcotest.(check bool) "equivalent to counter2" true
    (models_equivalent m (Qbf_models.Families.counter ~bits:2));
  Alcotest.(check int) "diameter" 3 (Qbf_models.Reach.diameter m)

let test_smv_operators () =
  let m =
    Qbf_models.Smv.parse_string
      "VAR a : boolean; b : boolean;\n\
       INIT (a -> b) & (TRUE <-> a | FALSE)\n\
       TRANS next(a) <-> a"
  in
  (* init: a -> b and a: so a=1,b=1 only *)
  Alcotest.(check bool) "11 initial" true (Qbf_models.Model.is_initial m 3);
  Alcotest.(check bool) "01 not initial" false (Qbf_models.Model.is_initial m 1)

let test_smv_errors () =
  let bad s =
    match Qbf_models.Smv.parse_string s with
    | exception Qbf_models.Smv.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error on %S" s
  in
  bad "INIT a";
  (* undeclared *)
  bad "VAR a : boolean;\nINIT next(a)";
  (* next under INIT *)
  bad "VAR a : boolean;\nINIT a &";
  (* dangling operator *)
  bad "VAR a : boolean; a : boolean;\nINIT a" (* double declaration *)

let gen_seed = QCheck2.Gen.int_range 0 1_000_000

let suite =
  [
    Alcotest.test_case "counter model semantics" `Quick test_counter_model;
    Alcotest.test_case "T' self-loop (eq. 15)" `Quick test_trans_prime;
    Alcotest.test_case "semaphore mutex + constant diameter" `Quick
      test_semaphore_model;
    Alcotest.test_case "dme token ring" `Quick test_dme_model;
    Alcotest.test_case "phi_n truth pattern (vs BFS oracle)" `Slow
      test_phi_truth_pattern;
    Alcotest.test_case "diameter compute = BFS" `Slow test_diameter_compute;
    Alcotest.test_case "incremental = rebuild = BFS" `Slow
      test_incremental_matches_rebuild;
    Alcotest.test_case "compute_report stop reasons" `Quick
      test_compute_report_stops;
    Alcotest.test_case "phi prefix shape (18)/(19)" `Quick
      test_phi_prefix_shape;
    Alcotest.test_case "gray and shift families" `Quick test_gray_shift;
    Alcotest.test_case "families by name" `Quick test_by_name;
    Alcotest.test_case "smv roundtrip" `Quick test_smv_roundtrip;
    Alcotest.test_case "smv parse counter" `Quick test_smv_parse;
    Alcotest.test_case "smv operators" `Quick test_smv_operators;
    Alcotest.test_case "smv parse errors" `Quick test_smv_errors;
    Util.qcheck_case ~count:200 "nnf eliminates Iff and preserves eval"
      gen_seed prop_nnf_preserves_eval;
    Util.qcheck_case ~count:60 "tseitin assert is equisatisfiable" gen_seed
      prop_tseitin_equisat;
  ]
