(* Robustness-path tests for the run harness (Qbf_run): structured
   input errors, amortized deadlines with an injectable clock,
   cooperative interrupts, the memory guard plumbing, and the
   budget-escalation portfolio. *)

open Qbf_core
module ST = Qbf_solver.Solver_types
module Run = Qbf_run.Run
module Limits = Qbf_run.Limits
module RE = Qbf_run.Run_error

(* ------------------------------------------------------------------ *)
(* Malformed-input corpus                                              *)

let check_error name text pred =
  match Run.load_string ~file:"corpus" text with
  | Ok _ -> Alcotest.failf "%s: expected an error" name
  | Error e ->
      if not (pred e) then
        Alcotest.failf "%s: unexpected error %s" name (RE.to_string e)

let test_malformed_corpus () =
  (* truncated header *)
  check_error "truncated header" "p cnf\n" (function
    | RE.Parse { line = 1; col = 1; _ } -> true
    | _ -> false);
  (* empty file *)
  check_error "empty file" "" (function
    | RE.Parse { line = 1; col = 1; msg; _ } ->
        msg = "missing 'p cnf' header"
    | _ -> false);
  (* out-of-range literal, with its exact position *)
  check_error "out-of-range literal" "p cnf 2 1\ne 1 0\n1 5 0\n" (function
    | RE.Parse { line = 3; col = 3; msg; _ } -> msg = "literal 5 out of range"
    | _ -> false);
  (* unterminated clause *)
  check_error "unterminated clause" "p cnf 2 1\ne 1 0\n1 2\n" (function
    | RE.Parse { msg; _ } -> msg = "unterminated clause"
    | _ -> false);
  (* unclosed s-expression in an NQDIMACS quantifier tree *)
  check_error "unclosed s-expression" "p ncnf 2 1\nt (e 1 (a 2\n1 2 0\n"
    (function
    | RE.Parse { line = 2; msg; _ } ->
        msg = "unbalanced '(' in quantifier tree"
    | _ -> false);
  (* doubly bound variable: parses, fails formula validation *)
  check_error "doubly bound" "p cnf 2 1\ne 1 1 0\n1 0\n" (function
    | RE.Invalid { msg; _ } -> msg = "variable 0 bound twice"
    | _ -> false);
  (* exit code contract *)
  (match Run.load_string "p cnf\n" with
  | Error e -> Alcotest.(check int) "exit code" 2 (RE.exit_code e)
  | Ok _ -> Alcotest.fail "expected error")

let test_load_file_errors () =
  (match Run.load "/nonexistent/no-such.qdimacs" with
  | Error (RE.Io { file; _ }) ->
      Alcotest.(check string) "io file" "/nonexistent/no-such.qdimacs" file
  | Error e -> Alcotest.failf "expected Io error, got %s" (RE.to_string e)
  | Ok _ -> Alcotest.fail "expected error");
  let path = Filename.temp_file "qbf_run_test" ".qdimacs" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "p cnf 2 1\ne 1 0\n1 5 0\n";
      close_out oc;
      match Run.load path with
      | Error (RE.Parse { line = 3; col = 3; _ }) -> ()
      | Error e -> Alcotest.failf "unexpected error %s" (RE.to_string e)
      | Ok _ -> Alcotest.fail "expected error")

let test_format_sniffing () =
  Alcotest.(check bool)
    "ncnf header" true
    (Run.sniff_format "c x\n\np ncnf 3 1\nt (e 1)\n1 0\n" = Run.Nqdimacs);
  Alcotest.(check bool)
    "cnf header" true
    (Run.sniff_format "p cnf 3 1\ne 1 0\n1 0\n" = Run.Qdimacs)

(* ------------------------------------------------------------------ *)
(* Deadlines with an injectable clock                                  *)

(* A genuinely hard instance: a dep-8 NCF model at the critical ratio
   searches thousands of nodes under the default configuration, so the
   deadline/interrupt machinery always fires mid-search. *)
let hard_formula () =
  let rng = Qbf_gen.Rng.create 1 in
  Qbf_gen.Ncf.generate_ratio rng ~dep:8 ~var:10 ~ratio:2.2 ~lpc:4

let counting_clock step =
  let calls = ref 0 in
  ( calls,
    fun () ->
      incr calls;
      float_of_int !calls *. step )

let test_deadline_timeout () =
  let _, clock = counting_clock 1.0 in
  (* the deadline expires after ~10 clock polls, long before the search
     can finish *)
  let limits =
    Limits.make ~timeout_s:10.0 ~clock ~poll_interval:1 ()
  in
  let r = Run.solve ~limits (hard_formula ()) in
  Alcotest.check Util.outcome "unknown" ST.Unknown r.Run.outcome;
  Alcotest.(check bool) "stopped by timeout" true
    (r.Run.stopped = Some Run.Timeout);
  Alcotest.(check bool) "positive time" true (r.Run.time > 0.);
  (* partial stats are preserved and sane *)
  let s = r.Run.stats in
  Alcotest.(check bool) "monotone stats" true
    (s.ST.decisions >= 0 && s.ST.propagations >= 0
    && ST.nodes s = s.ST.conflicts + s.ST.solutions)

let test_deadline_amortized () =
  (* Same deterministic search (node budget ends it), clocks that never
     expire: the tick counter must cut clock polls by ~the interval. *)
  let run_with interval =
    let calls, clock = counting_clock 0.0 in
    let limits =
      Limits.make ~timeout_s:1e9 ~max_nodes:200 ~clock
        ~poll_interval:interval ()
    in
    let r = Run.solve ~limits (hard_formula ()) in
    (r, !calls)
  in
  let r1, calls1 = run_with 1 in
  let r64, calls64 = run_with 64 in
  (* identical search, identical outcome and stats *)
  Alcotest.check Util.outcome "same outcome" r1.Run.outcome r64.Run.outcome;
  Alcotest.(check int) "same decisions" r1.Run.stats.ST.decisions
    r64.Run.stats.ST.decisions;
  Alcotest.(check int) "same nodes" (ST.nodes r1.Run.stats)
    (ST.nodes r64.Run.stats);
  Alcotest.(check bool)
    (Printf.sprintf "amortized polls (%d vs %d)" calls64 calls1)
    true
    (calls64 * 8 < calls1)

(* ------------------------------------------------------------------ *)
(* Interrupts                                                          *)

let test_interrupt_pretripped () =
  let interrupt = Limits.Interrupt.create () in
  Limits.Interrupt.trip interrupt;
  let r = Run.solve ~interrupt (hard_formula ()) in
  Alcotest.check Util.outcome "unknown" ST.Unknown r.Run.outcome;
  Alcotest.(check bool) "stopped by interrupt" true
    (r.Run.stopped = Some (Run.Interrupted Limits.Interrupt.Manual))

let test_interrupt_mid_search () =
  let interrupt = Limits.Interrupt.create () in
  (* the budget poll trips the interrupt mid-search; the engine reads
     the flag at its next budget check *)
  let polls = ref 0 in
  let config =
    ST.(
      default_config |> with_learning false |> with_pure_literals false
      |> with_should_stop
           (Some
              (fun () ->
                incr polls;
                if !polls = 8 then Limits.Interrupt.trip interrupt;
                false)))
  in
  let r = Run.solve ~interrupt ~config (hard_formula ()) in
  Alcotest.check Util.outcome "unknown" ST.Unknown r.Run.outcome;
  Alcotest.(check bool) "stopped by interrupt" true
    (r.Run.stopped = Some (Run.Interrupted Limits.Interrupt.Manual));
  (* the search was genuinely underway: partial stats are nonzero *)
  Alcotest.(check bool) "partial stats" true (r.Run.stats.ST.decisions > 0)

let test_interrupt_signal () =
  let interrupt = Limits.Interrupt.create () in
  let restore = Limits.Interrupt.install interrupt in
  Fun.protect ~finally:restore (fun () ->
      Unix.kill (Unix.getpid ()) Sys.sigint;
      (* OCaml delivers signals at safe points; allocate until the
         handler has run *)
      let i = ref 0 in
      while (not (Limits.Interrupt.triggered interrupt)) && !i < 1_000_000 do
        ignore (Sys.opaque_identity (Array.make 8 !i));
        incr i
      done;
      Alcotest.(check bool) "flag tripped" true
        (Limits.Interrupt.triggered interrupt);
      Alcotest.(check bool) "reason is the signal" true
        (Limits.Interrupt.reason interrupt
        = Some (Limits.Interrupt.Signal Sys.sigint)))

(* ------------------------------------------------------------------ *)
(* Portfolio                                                           *)

let test_portfolio_fallback () =
  (* A small (4-variable) instance the expansion oracle can certify but
     whose search still needs several leaves, so a 1-node budget starves
     the first attempt without ending the search. *)
  let rng = Qbf_gen.Rng.create 4 in
  let f =
    Qbf_gen.Randqbf.prenex rng ~nvars:4 ~levels:3 ~nclauses:15 ~len:4
      ~min_exists:1 ()
  in
  let expected = Util.solver_outcome_of_bool (Eval.eval f) in
  let attempts =
    [
      {
        Run.label = "starved";
        budget_s = None;
        config = ST.(default_config |> with_max_nodes (Some 1));
      };
      { Run.label = "full"; budget_s = None; config = ST.default_config };
    ]
  in
  let p = Run.portfolio attempts f in
  Alcotest.(check int) "two attempts ran" 2 (List.length p.Run.attempts);
  (let label, first = List.hd p.Run.attempts in
   Alcotest.(check string) "first label" "starved" label;
   Alcotest.check Util.outcome "first unknown" ST.Unknown first.Run.outcome;
   Alcotest.(check bool) "first hit node budget" true
     (first.Run.stopped = Some Run.Node_budget));
  Alcotest.check Util.outcome "correct final outcome" expected p.Run.outcome;
  let _, last = List.nth p.Run.attempts 1 in
  Alcotest.check Util.outcome "last attempt conclusive" expected
    last.Run.outcome;
  Alcotest.(check bool) "last not stopped" true (last.Run.stopped = None)

let test_portfolio_conclusive_first () =
  (* a trivially false formula: the first attempt already concludes *)
  let p = Prefix.of_blocks ~nvars:1 [ (Quant.Exists, [ 0 ]) ] in
  let f = Formula.make p [ Util.clause [ 1 ]; Util.clause [ -1 ] ] in
  let pr = Run.portfolio (Run.escalating ()) f in
  Alcotest.(check int) "one attempt" 1 (List.length pr.Run.attempts);
  Alcotest.check Util.outcome "false" ST.False pr.Run.outcome

let test_portfolio_interrupted () =
  let interrupt = Limits.Interrupt.create () in
  Limits.Interrupt.trip interrupt;
  let pr =
    Run.portfolio ~interrupt (Run.escalating ()) (hard_formula ())
  in
  Alcotest.(check int) "no attempts ran" 0 (List.length pr.Run.attempts);
  Alcotest.check Util.outcome "unknown" ST.Unknown pr.Run.outcome

let test_portfolio_cancelled_mid_attempt () =
  (* An interrupt latched *during* attempt 1 (here from its own
     [should_stop] poll, standing in for a signal handler) must end that
     attempt, keep its partial stats in the report, and stop the
     escalation chain before any later rung runs. *)
  let interrupt = Limits.Interrupt.create () in
  let polls = ref 0 in
  let tripping_poll () =
    incr polls;
    if !polls >= 10 then Limits.Interrupt.trip interrupt;
    false
  in
  let attempts =
    [
      {
        Run.label = "interrupted-rung";
        budget_s = None;
        config = ST.(default_config |> with_should_stop (Some tripping_poll));
      };
      { Run.label = "never-runs"; budget_s = None; config = ST.default_config };
    ]
  in
  let pr = Run.portfolio ~interrupt attempts (hard_formula ()) in
  Alcotest.(check int) "chain stopped after the interrupted attempt" 1
    (List.length pr.Run.attempts);
  Alcotest.check Util.outcome "unknown" ST.Unknown pr.Run.outcome;
  let label, r = List.hd pr.Run.attempts in
  Alcotest.(check string) "only the first rung ran" "interrupted-rung" label;
  Alcotest.(check bool) "stopped by the interrupt" true
    (r.Run.stopped = Some (Run.Interrupted Limits.Interrupt.Manual));
  (* partial stats from the cancelled attempt survive *)
  let s = r.Run.stats in
  Alcotest.(check bool) "partial work recorded" true (s.ST.decisions > 0);
  Alcotest.(check bool) "stats sane" true
    (ST.nodes s = s.ST.conflicts + s.ST.solutions)

let test_escalating_ladder () =
  let ladder = Run.escalating ~base:0.25 ~factor:4. () in
  Alcotest.(check int) "three rungs" 3 (List.length ladder);
  match ladder with
  | [ a; b; c ] ->
      Alcotest.(check bool) "first budget" true (a.Run.budget_s = Some 0.25);
      Alcotest.(check bool) "second budget escalates" true
        (b.Run.budget_s = Some 1.0);
      Alcotest.(check bool) "last unbounded" true (c.Run.budget_s = None);
      Alcotest.(check bool) "heuristics alternate" true
        (a.Run.config.ST.search.ST.heuristic = ST.Partial_order
        && b.Run.config.ST.search.ST.heuristic = ST.Total_order)
  | _ -> Alcotest.fail "expected three rungs"

(* ------------------------------------------------------------------ *)
(* Round trips through the loader stay sound                           *)

let test_load_string_roundtrip () =
  let f = Util.paper_formula_1 () in
  (match Run.load_string (Qbf_io.Nqdimacs.to_string f) with
  | Ok f' ->
      Alcotest.(check bool) "same value" (Eval.eval f) (Eval.eval f')
  | Error e -> Alcotest.failf "roundtrip rejected: %s" (RE.to_string e));
  let fp = Util.paper_formula_1_prenex () in
  match Run.load_string (Qbf_io.Qdimacs.to_string fp) with
  | Ok f' -> Alcotest.(check bool) "same value" (Eval.eval fp) (Eval.eval f')
  | Error e -> Alcotest.failf "roundtrip rejected: %s" (RE.to_string e)

let suite =
  [
    Alcotest.test_case "malformed corpus" `Quick test_malformed_corpus;
    Alcotest.test_case "load file errors" `Quick test_load_file_errors;
    Alcotest.test_case "format sniffing" `Quick test_format_sniffing;
    Alcotest.test_case "deadline timeout" `Quick test_deadline_timeout;
    Alcotest.test_case "amortized deadline" `Quick test_deadline_amortized;
    Alcotest.test_case "interrupt pre-tripped" `Quick test_interrupt_pretripped;
    Alcotest.test_case "interrupt mid-search" `Quick test_interrupt_mid_search;
    Alcotest.test_case "interrupt via signal" `Quick test_interrupt_signal;
    Alcotest.test_case "portfolio fallback" `Quick test_portfolio_fallback;
    Alcotest.test_case "portfolio conclusive first" `Quick
      test_portfolio_conclusive_first;
    Alcotest.test_case "portfolio interrupted" `Quick
      test_portfolio_interrupted;
    Alcotest.test_case "portfolio cancelled mid-attempt" `Quick
      test_portfolio_cancelled_mid_attempt;
    Alcotest.test_case "escalating ladder" `Quick test_escalating_ladder;
    Alcotest.test_case "loader roundtrip" `Quick test_load_string_roundtrip;
  ]
