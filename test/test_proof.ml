(* Certificates end to end: engine-emitted qproof traces must pass the
   independent checker (DB reduction on and off, incremental push/pop,
   fuzz seeds concluding through level-0 pivots); mutated engine traces
   (dropped antecedent, wrong pivot, forged empty clause, dangling
   constraint id, truncated file) and a table of hand-written ones (one
   per rejection rule of resolution, reduction and axiom coverage) must
   be rejected at the failing line, and variables that fit no table
   must come back as record errors. *)

open Qbf_core
module ST = Qbf_solver.Solver_types
module Session = Qbf_solver.Session
module Proof = Qbf_solver.Proof
module Checker = Qbf_check.Checker

let with_reduction config =
  ST.(
    config |> with_restarts true |> with_restart_base 2
    |> with_db_reduction true |> with_db_reduce_interval 4
    |> with_db_keep_fraction 0.25)

(* Solve under [config] with a trace attached; the outcome must match
   [expected], the result must carry a [Proof_trace] witness, and the
   checker (formula mode) must accept the trace with that conclusion.
   Returns the trace text for the mutation tests. *)
let solve_and_check name ?(config = ST.default_config) f expected =
  let path = Filename.temp_file "test-proof" ".qrp" in
  let proof = Proof.create ~path in
  let r = Session.one_shot ~config ~proof f in
  Proof.close proof;
  Alcotest.(check bool)
    (name ^ ": outcome") true
    (r.ST.outcome = if expected then ST.True else ST.False);
  (match r.ST.witness with
  | ST.Proof_trace _ -> ()
  | ST.No_witness -> Alcotest.fail (name ^ ": conclusive but no witness"));
  (match Checker.check_file ~formula:f path with
  | Ok v ->
      Alcotest.(check bool)
        (name ^ ": checker conclusion") true
        (List.mem expected v.Checker.conclusions)
  | Error fl ->
      Alcotest.fail
        (Printf.sprintf "%s: checker rejected line %d: %s" name fl.Checker.line
           fl.Checker.msg));
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  text

let test_fpv_accept () =
  for seed = 0 to 2 do
    let rng = Qbf_gen.Rng.create (100 + seed) in
    let f =
      Qbf_gen.Fpv.generate rng
        { core = 3; branches = 3; env = 2; cls = 4; lpc = 3 }
    in
    ignore (solve_and_check (Printf.sprintf "fpv %d" seed) f (Eval.eval f))
  done

(* gray / counter families at the BFS-oracle diameter d: phi_{d-1} is
   true, phi_d false — reduction off and on (aggressive enough that
   several reduce-and-compact cycles fire, so antecedent pids must
   survive compaction). *)
let test_families_accept () =
  List.iter
    (fun (mname, m) ->
      let d = Qbf_models.Reach.diameter m in
      List.iter
        (fun (rname, config) ->
          let run n expected =
            ignore
              (solve_and_check
                 (Printf.sprintf "%s phi_%d %s" mname n rname)
                 ~config
                 (Qbf_models.Diameter.phi m ~n)
                 expected)
          in
          run (d - 1) true;
          run d false)
        [
          ("plain", ST.default_config);
          ("reduce", with_reduction ST.default_config);
        ])
    [
      ("gray2", Qbf_models.Families.gray ~bits:2);
      ("counter2", Qbf_models.Families.counter ~bits:2);
    ]

(* One writer across an incremental session: solve / push+grow / solve /
   pop / solve.  Each conclusive call appends its own conclusion; the
   checker (trust mode — no single input file describes the growing
   formula) must accept the whole trace with the conclusions in call
   order. *)
let test_incremental_accept () =
  for seed = 0 to 4 do
    let rng = Qbf_gen.Rng.create (7000 + seed) in
    let nvars = 4 + Qbf_gen.Rng.int rng 6 in
    let f0 =
      Qbf_gen.Randqbf.prenex rng ~nvars
        ~levels:(1 + (seed mod 3))
        ~nclauses:(6 + Qbf_gen.Rng.int rng 10)
        ~len:3 ~min_exists:1 ()
    in
    let prefix = Formula.prefix f0 in
    let evars =
      List.filter (Prefix.is_exists prefix) (List.init nvars (fun v -> v))
    in
    if evars <> [] then begin
      let extra =
        List.init 3 (fun _ ->
            let e = List.nth evars (Qbf_gen.Rng.int rng (List.length evars)) in
            [
              Lit.make e (Qbf_gen.Rng.int rng 2 = 0);
              Lit.make (Qbf_gen.Rng.int rng nvars) (Qbf_gen.Rng.int rng 2 = 0);
            ])
      in
      let f1 =
        Formula.make prefix (List.map Clause.of_list extra @ Formula.matrix f0)
      in
      let path = Filename.temp_file "test-proof-inc" ".qrp" in
      let proof = Proof.create ~path in
      let t = Session.of_formula ~validate:true ~proof f0 in
      let expected = ref [] in
      let step label reference =
        let got = (Session.solve t).ST.outcome in
        let want = Eval.eval reference in
        Alcotest.(check bool)
          (Printf.sprintf "inc %d %s" seed label)
          true
          (got = if want then ST.True else ST.False);
        expected := want :: !expected
      in
      step "base" f0;
      Session.push t;
      List.iter (Session.add_clause t) extra;
      step "pushed" f1;
      Session.pop t;
      step "popped" f0;
      Session.dispose t;
      Proof.close proof;
      (match Checker.check_file path with
      | Ok v ->
          Alcotest.(check (list bool))
            (Printf.sprintf "inc %d conclusions" seed)
            (List.rev !expected) v.Checker.conclusions
      | Error fl ->
          Alcotest.fail
            (Printf.sprintf "inc %d rejected line %d: %s" seed fl.Checker.line
               fl.Checker.msg));
      Sys.remove path
    end
  done

(* Fuzz seeds whose false answer concludes through a level-0 pivot while
   the conflict sits deeper: the pivot's antecedent carries trailing
   universals that hold values from the deeper levels (seed 349: v0 is
   forced at level 0 by (v0 ∨ ¬v1 ∨ ¬v6), and v1 is decided false at
   level 1).  A conclusion drain that checks their values like a
   search-time analysis leaves these answers uncertified.  Each must
   certify under every configuration of fuzz phase 8. *)
let level0_conclusions =
  [
    ( 349,
      "p cnf 8 15\n\
       e 1 0\n\
       a 2 3 0\n\
       e 4 5 6 0\n\
       a 7 0\n\
       e 8 0\n\
       1 -2 3 0 1 2 -3 0 -3 -4 8 0 2 4 -6 0 2 -6 8 0 -5 -6 -7 0\n\
       -2 4 -5 0 -1 2 -5 0 1 -2 -7 0 -2 -5 -7 0 4 5 7 0 2 3 4 0\n\
       -5 6 -8 0 2 6 8 0 3 -4 5 0\n" );
    ( 537,
      "p cnf 5 8\n\
       e 1 0\n\
       a 2 3 4 0\n\
       e 5 0\n\
       -1 2 -3 4 0 1 -3 -4 5 0 -1 -3 4 5 0 1 2 4 -5 0\n\
       -2 3 4 5 0 -1 2 3 5 0 1 -2 -4 -5 0 -2 -3 4 5 0\n" );
    ( 997,
      "p cnf 13 22\n\
       e 1 2 0\n\
       a 3 4 5 6 7 0\n\
       e 8 9 10 11 12 13 0\n\
       7 8 -9 0 -5 7 -8 0 -3 9 -11 0 1 -2 -9 0 3 -8 -9 0\n\
       1 -4 -7 0 -1 -10 -13 0 -2 -11 12 0 -2 11 13 0 -1 -6 10 0\n\
       5 -8 -12 0 -1 -5 -11 0 2 -4 -5 0 4 7 11 0 9 -10 12 0\n\
       -2 3 10 0 -1 2 4 0 2 -4 -11 0 3 9 -12 0 -6 7 11 0\n\
       6 7 8 0 2 -5 -11 0\n" );
    ( 1953,
      "p cnf 5 11\n\
       e 1 2 0\n\
       a 3 0\n\
       e 4 0\n\
       a 5 0\n\
       -2 -3 -4 5 0 2 3 -4 5 0 1 3 4 5 0 -1 -2 3 -5 0\n\
       -1 2 -3 -4 0 -2 -3 -4 5 0 -1 -2 3 -5 0 1 3 -4 -5 0\n\
       -1 -3 4 5 0 -1 -2 -3 -4 0 1 -2 4 5 0\n" );
    ( 2089,
      "p cnf 13 23\n\
       e 1 2 0\n\
       a 3 0\n\
       e 4 5 0\n\
       a 6 7 8 9 10 11 0\n\
       e 12 13 0\n\
       5 -10 -11 -12 0 -3 4 7 12 0 5 -7 -8 -13 0 -5 8 9 -12 0\n\
       -4 -6 7 -10 0 2 -4 -8 12 0 -1 -4 5 -13 0 -1 5 -6 9 0\n\
       -1 -5 -11 -12 0 -4 6 9 11 0 -4 -7 -9 10 0 -4 7 8 10 0\n\
       1 -2 11 12 0 -1 -6 -7 -10 0 1 5 -6 -13 0 1 4 11 -12 0\n\
       5 6 -8 -13 0 2 -5 -12 -13 0 -1 -2 6 13 0 1 3 -5 6 0\n\
       7 -8 11 13 0 4 -9 10 12 0 -8 -9 -10 -12 0\n" );
    ( 2437,
      "p cnf 7 27\n\
       e 1 0\n\
       a 2 3 4 5 0\n\
       e 6 7 0\n\
       -1 -4 -5 -6 0 -2 -4 -6 -7 0 1 -3 -4 5 0 -1 4 5 -6 0\n\
       -1 -2 -3 -7 0 -4 -5 -6 7 0 1 2 3 -7 0 -4 5 6 -7 0\n\
       -3 -4 5 6 0 -1 -4 5 -7 0 -1 3 5 6 0 -1 -2 3 -6 0\n\
       1 3 -4 6 0 1 3 6 -7 0 -2 3 -4 7 0 1 -3 -6 7 0 -1 2 3 6 0\n\
       -3 -5 -6 7 0 1 2 3 -5 0 -1 -3 4 7 0 1 -3 -4 7 0\n\
       -4 5 6 7 0 -2 3 5 6 0 2 -4 -5 -7 0 -3 4 6 -7 0\n\
       2 4 -5 -7 0 2 -4 5 -6 0\n" );
  ]

let phase8_configs =
  Util.configs ()
  @ List.concat_map
      (fun (hn, heuristic) ->
        [
          ( "aux-hint " ^ hn,
            ST.(
              default_config |> with_heuristic heuristic
              |> with_aux_hint (Some (fun _ -> true))) );
          ( "restarts " ^ hn,
            ST.(
              default_config |> with_heuristic heuristic
              |> with_restarts true |> with_restart_base 2
              |> with_db_reduction true) );
        ])
      [ ("TO", ST.Total_order); ("PO", ST.Partial_order) ]

let test_level0_conclusions () =
  List.iter
    (fun (seed, text) ->
      let f = Util.load text in
      let expected = Eval.eval f in
      List.iter
        (fun (cname, config) ->
          ignore
            (solve_and_check
               (Printf.sprintf "seed %d [%s]" seed cname)
               ~config f expected))
        phase8_configs)
    level0_conclusions

(* --- hand-mutated traces ------------------------------------------- *)

(* A base certificate with resolution chains and (under reduction)
   compaction cycles to mutate. *)
let base_formula = Qbf_models.Diameter.phi (Qbf_models.Families.gray ~bits:2) ~n:3

let base_trace =
  lazy
    (solve_and_check "mutation base" ~config:(with_reduction ST.default_config)
       base_formula false)

let lines () = String.split_on_char '\n' (Lazy.force base_trace)

let write_trace text =
  let path = Filename.temp_file "test-proof-mut" ".qrp" in
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc;
  path

let check_text ?formula text =
  let path = write_trace text in
  let r = Checker.check_file ?formula path in
  Sys.remove path;
  r

(* [text] must be rejected at [line], with the diagnostic [msg] if
   given; [formula] is [None] for trust mode. *)
let must_reject ?(formula = Some base_formula) ?msg ~line name text =
  match check_text ?formula text with
  | Ok _ -> Alcotest.fail (name ^ ": trace accepted")
  | Error fl ->
      Alcotest.(check int) (name ^ ": failing line") line fl.Checker.line;
      Option.iter
        (fun m -> Alcotest.(check string) (name ^ ": diagnostic") m fl.Checker.msg)
        msg

(* Split an [r] record into (prefix tokens, chain pairs, recorded lits):
   r (c|t) PID FIRST (PVAR ANT).. 0 LIT.. 0 *)
let split_r line =
  match String.split_on_char ' ' line with
  | "r" :: kind :: pid :: first :: rest ->
      let rec pairs acc = function
        | "0" :: lits -> (List.rev acc, lits)
        | pv :: ant :: rest -> pairs ((pv, ant) :: acc) rest
        | _ -> Alcotest.fail ("unparseable r record: " ^ line)
      in
      let chain, lits = pairs [] rest in
      ((kind, pid, first), chain, lits)
  | _ -> Alcotest.fail ("not an r record: " ^ line)

let rebuild_r ((kind, pid, first), chain, lits) =
  String.concat " "
    (("r" :: kind :: pid :: first :: List.concat_map (fun (a, b) -> [ a; b ]) chain)
    @ ("0" :: lits))

(* Rewrite the first [r] record satisfying [p]; returns the lines and
   the rewritten record's line number. *)
let map_first_r p f ls =
  let hit = ref 0 in
  let out =
    List.mapi
      (fun i l ->
        if !hit = 0 && String.length l > 1 && l.[0] = 'r' && p (split_r l)
        then begin
          hit := i + 1;
          f (split_r l)
        end
        else l)
      ls
  in
  if !hit = 0 then Alcotest.fail "no matching r record to mutate";
  (String.concat "\n" out, !hit)

let test_reject_dropped_antecedent () =
  let text, line =
    map_first_r
      (fun (_, chain, _) -> List.length chain >= 2)
      (fun (hd, chain, lits) -> rebuild_r (hd, List.tl chain, lits))
      (lines ())
  in
  must_reject "dropped antecedent" ~line text

let test_reject_wrong_pivot () =
  let nv = Formula.nvars base_formula in
  let text, line =
    map_first_r
      (fun (_, chain, _) -> chain <> [])
      (fun (hd, chain, lits) ->
        let (pv, ant), rest = (List.hd chain, List.tl chain) in
        let pv' = string_of_int ((int_of_string pv mod nv) + 1) in
        let pv' = if pv' = pv then string_of_int (((int_of_string pv + 1) mod nv) + 1) else pv' in
        rebuild_r (hd, (pv', ant) :: rest, lits))
      (lines ())
  in
  must_reject "wrong pivot" ~line text

let test_reject_forged_empty_clause () =
  let text = Lazy.force base_trace in
  let first_input =
    match
      List.find_opt
        (fun l -> String.length l > 1 && l.[0] = 'i')
        (String.split_on_char '\n' text)
    with
    | Some l -> List.nth (String.split_on_char ' ' l) 1
    | None -> Alcotest.fail "no input clause in base trace"
  in
  (* claim the first input clause resolves (with no antecedents) to the
     empty clause, then conclude False from the forgery *)
  let forged =
    Printf.sprintf "%sr c 99990 %s 0 0\nf 0 99990\n" text first_input
  in
  must_reject "forged empty clause"
    ~line:(List.length (String.split_on_char '\n' text))
    ~msg:"resolvent of constraint 99990 does not match the derivation" forged

let test_reject_dangling_id () =
  let text, line =
    map_first_r
      (fun (_, chain, _) -> chain <> [])
      (fun (hd, chain, lits) ->
        let (pv, _), rest = (List.hd chain, List.tl chain) in
        rebuild_r (hd, (pv, "99991") :: rest, lits))
      (lines ())
  in
  must_reject "dangling constraint id" ~line ~msg:"unknown constraint id 99991"
    text

let test_reject_truncated () =
  let text = Lazy.force base_trace in
  (* cut mid-record: drop the trailing newline and a few bytes of the
     final conclusion line *)
  let cut = String.sub text 0 (String.length text - 4) in
  must_reject "truncated file"
    ~line:(List.length (String.split_on_char '\n' cut))
    cut

(* --- hand-written traces -------------------------------------------- *)

(* ∃x1 ∀y2 ∃x3, so x1 ≺ y2 ≺ x3: the [v] records carry the prefix's DFS
   intervals [1,3], [2,3] and [3,3].  The ten lines of [hand_base]
   declare the variables and register the six clauses as inputs 1-6. *)
let hand_formula =
  Util.load
    "p cnf 3 6\ne 1 0\na 2 0\ne 3 0\n\
     1 2 3 0\n-1 -2 3 0\n-3 0\n-1 -3 0\n2 3 0\n-2 -3 0\n"

let hand_base =
  [
    "p qproof 1"; "v 1 e 1 3"; "v 2 a 2 3"; "v 3 e 3 3";
    "i 1 1 2 3 0"; "i 2 -1 -2 3 0"; "i 3 -3 0"; "i 4 -1 -3 0";
    "i 5 2 3 0"; "i 6 -2 -3 0";
  ]

let hand records = String.concat "\n" (hand_base @ records) ^ "\n"

(* Trust mode (no formula): the declarations are the trace's own, so a
   [v] record may be re-emitted with a new interval, and an input clause
   may be tautological. *)
let trust records = String.concat "\n" ("p qproof 1" :: records) ^ "\n"

(* Resolving inputs 1 and 2 on x1 clashes on y2, which x1 ≺-precedes: a
   long-distance merge, recorded with both polarities. *)
let merge_step = "r c 7 1 1 2 0 -2 2 3 0"

(* (name, formula or trust mode, trace, failing line, diagnostic) *)
let hand_rejections =
  [
    ( "clash on a kept-kind variable", Some hand_formula,
      hand [ "r c 7 1 1 4 0 2 0" ], 11, "tautological resolvent on variable 3" );
    ( "clash the pivot does not precede", Some hand_formula,
      hand [ "r c 7 5 3 6 0 0" ], 11, "tautological resolvent on variable 2" );
    (* merged variables are of the reducible kind, so the pivot's
       quantifier rule rejects them first *)
    ( "merged literal as pivot", Some hand_formula,
      hand [ merge_step; "r c 8 7 2 5 0 3 0" ], 12,
      "pivot 2 has the wrong quantifier for clause resolution" );
    ( "antecedent carries the pivot as a pair", None,
      trust [ "v 1 e 1 3"; "v 3 e 3 3"; "i 1 1 3 0"; "i 2 -1 1 3 0";
              "r c 3 1 1 2 0 3 0" ], 6,
      "antecedent 2 carries pivot 1 as a merged pair" );
    (* y2 precedes no existential once x3 is resolved away *)
    ( "resolvent keeps a reducible literal", Some hand_formula,
      hand [ "r c 7 1 3 3 0 1 2 0" ], 11,
      "resolvent of constraint 7 does not match the derivation" );
    (* y2 ≺ x3 keeps y2 *)
    ( "resolvent drops a blocked literal", Some hand_formula,
      hand [ "r c 7 1 0 1 3 0" ], 11,
      "resolvent of constraint 7 does not match the derivation" );
    (* the same step is valid until y2's interval moves past x3's *)
    ( "reduction follows a re-declared interval", None,
      trust [ "v 1 e 1 3"; "v 2 a 2 3"; "v 3 e 3 3"; "i 1 1 2 3 0";
              "r c 2 1 0 1 2 3 0"; "v 2 a 4 5"; "r c 3 1 0 1 2 3 0" ], 8,
      "resolvent of constraint 3 does not match the derivation" );
    ( "inconsistent axiom term", Some hand_formula,
      hand [ "a 7 1 -1 3 0" ], 11, "axiom term is inconsistent on variable 1" );
    ( "axiom term misses an input", Some hand_formula,
      hand [ "a 7 1 -2 -3 0" ], 11, "axiom term does not cover input clause 5" );
  ]

let test_reject_hand_written () =
  List.iter
    (fun (name, formula, text, line, msg) ->
      must_reject ~formula ~msg ~line name text)
    hand_rejections

(* The merged pair of step 7 is inherited whole by step 8 and reduces
   away there, leaving the empty clause. *)
let test_accept_inherited_merge () =
  match check_text ~formula:hand_formula
          (hand [ merge_step; "r c 8 3 3 7 0 0"; "f 0 8" ]) with
  | Ok v ->
      Alcotest.(check (list bool)) "conclusions" [ false ] v.Checker.conclusions
  | Error fl ->
      Alcotest.failf "rejected line %d: %s" fl.Checker.line fl.Checker.msg

(* Variables that fit no table: each is an [Error] at its own line, not
   an exception. *)
let test_hostile_variables () =
  let big = "4611686018427387903" and small = "-4611686018427387904" in
  List.iter
    (fun (name, formula, text, line, msg) ->
      must_reject ~formula ~msg ~line name text)
    [
      ( "max_int literal", Some hand_formula, hand [ "i 7 " ^ big ^ " 0" ], 11,
        "variable " ^ big ^ " not declared" );
      ( "min_int literal", Some hand_formula, hand [ "i 7 " ^ small ^ " 0" ], 11,
        "variable " ^ small ^ " not declared" );
      ( "min_int axiom literal", Some hand_formula,
        hand [ "a 7 3 " ^ small ^ " 0" ], 11,
        "variable " ^ small ^ " not declared" );
      ( "pivot past the table", Some hand_formula,
        hand [ "r c 7 1 4 3 0 0" ], 11, "variable 4 not declared" );
      ( "max_int pivot", Some hand_formula,
        hand [ "r c 7 1 " ^ big ^ " 3 0 0" ], 11,
        "variable " ^ big ^ " not declared" );
      ( "declaration past nvars", Some hand_formula, hand [ "v 4 e 4 4" ], 11,
        "declared variable 4 exceeds the formula's 3" );
      ( "max_int declaration, trust mode", None,
        trust [ "v 1 e 1 1"; "v " ^ big ^ " e 1 1" ], 3,
        Printf.sprintf "declared variable %s exceeds the limit of %d" big
          Qbf_io.Load.max_declared_vars );
    ]

let suite =
  [
    Alcotest.test_case "fpv certificates" `Quick test_fpv_accept;
    Alcotest.test_case "family certificates, reduction off and on" `Slow
      test_families_accept;
    Alcotest.test_case "incremental session certificate" `Quick
      test_incremental_accept;
    Alcotest.test_case "level-0 conclusions certify" `Quick
      test_level0_conclusions;
    Alcotest.test_case "reject dropped antecedent" `Quick
      test_reject_dropped_antecedent;
    Alcotest.test_case "reject wrong pivot" `Quick test_reject_wrong_pivot;
    Alcotest.test_case "reject forged empty clause" `Quick
      test_reject_forged_empty_clause;
    Alcotest.test_case "reject dangling constraint id" `Quick
      test_reject_dangling_id;
    Alcotest.test_case "reject truncated trace" `Quick test_reject_truncated;
    Alcotest.test_case "reject hand-written traces" `Quick
      test_reject_hand_written;
    Alcotest.test_case "accept an inherited merge" `Quick
      test_accept_inherited_merge;
    Alcotest.test_case "hostile variables are record errors" `Quick
      test_hostile_variables;
  ]
