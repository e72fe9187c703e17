(* Robustness-path tests for the run harness (Qbf_run): structured
   input errors, amortized deadlines with an injectable clock,
   cooperative interrupts, and the memory guard plumbing. *)

open Qbf_core
module ST = Qbf_solver.Solver_types
module Run = Qbf_run.Run
module Limits = Qbf_run.Limits
module RE = Qbf_run.Run_error
module Load = Qbf_io.Load
module Checker = Qbf_check.Checker

let with_file text k =
  let path = Filename.temp_file "qbf_run_test" ".qdimacs" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      k path)

(* The checker loads its formula with the same loader, so a formula
   that [Run.load] rejects fails [check_against] at line 0 with
   [Run_error.to_string]'s exact text.  The proof is never opened. *)
let check_checker_agrees name path =
  match Run.load path with
  | Ok _ -> Alcotest.failf "%s: expected an error" name
  | Error e -> (
      match Checker.check_against ~formula_path:path "/nonexistent/proof" with
      | Error { Checker.line = 0; msg } ->
          Alcotest.(check string) (name ^ ": checker diagnostic")
            (RE.to_string e) msg
      | Error { line; msg } ->
          Alcotest.failf "%s: checker failed at line %d: %s" name line msg
      | Ok _ -> Alcotest.failf "%s: checker accepted" name)

(* ------------------------------------------------------------------ *)
(* Malformed-input corpus                                              *)

let check_error name text pred =
  (match Run.load_string ~file:"corpus" text with
  | Ok _ -> Alcotest.failf "%s: expected an error" name
  | Error e ->
      if not (pred e) then
        Alcotest.failf "%s: unexpected error %s" name (RE.to_string e));
  with_file text (check_checker_agrees name)

let test_malformed_corpus () =
  (* truncated header *)
  check_error "truncated header" "p cnf\n" (function
    | Load.Parse { line = 1; col = 1; _ } -> true
    | _ -> false);
  (* empty file *)
  check_error "empty file" "" (function
    | Load.Parse { line = 1; col = 1; msg; _ } ->
        msg = "missing 'p cnf' header"
    | _ -> false);
  (* out-of-range literal, with its exact position and rendering *)
  check_error "out-of-range literal" "p cnf 2 1\ne 1 0\n1 5 0\n" (fun e ->
    RE.to_string e = "corpus:3:3: literal 5 out of range");
  (* unterminated clause *)
  check_error "unterminated clause" "p cnf 2 1\ne 1 0\n1 2\n" (function
    | Load.Parse { msg; _ } -> msg = "unterminated clause"
    | _ -> false);
  (* unclosed s-expression in an NQDIMACS quantifier tree *)
  check_error "unclosed s-expression" "p ncnf 2 1\nt (e 1 (a 2\n1 2 0\n"
    (function
    | Load.Parse { line = 2; msg; _ } ->
        msg = "unbalanced '(' in quantifier tree"
    | _ -> false);
  (* doubly bound variable: parses, fails formula validation *)
  check_error "doubly bound" "p cnf 2 1\ne 1 1 0\n1 0\n" (fun e ->
    RE.to_string e = "corpus: variable 0 bound twice");
  (* exit code contract *)
  (match Run.load_string "p cnf\n" with
  | Error e -> Alcotest.(check int) "exit code" 2 (RE.exit_code e)
  | Ok _ -> Alcotest.fail "expected error")

let test_load_file_errors () =
  let missing = "/nonexistent/no-such.qdimacs" in
  (match Run.load missing with
  | Error e ->
      Alcotest.(check string) "missing file"
        (missing ^ ": No such file or directory")
        (RE.to_string e)
  | Ok _ -> Alcotest.fail "expected error");
  check_checker_agrees "missing file" missing;
  let dir = Filename.get_temp_dir_name () in
  (match Run.load dir with
  | Error e ->
      Alcotest.(check string) "directory" (dir ^ ": is a directory")
        (RE.to_string e)
  | Ok _ -> Alcotest.fail "expected error");
  check_checker_agrees "directory" dir;
  with_file "p cnf 2 1\ne 1 0\n1 5 0\n" (fun path ->
      match Run.load path with
      | Error (Load.Parse { line = 3; col = 3; _ }) -> ()
      | Error e -> Alcotest.failf "unexpected error %s" (RE.to_string e)
      | Ok _ -> Alcotest.fail "expected error")

(* What a text loads to: the formula printed as NQDIMACS (which prints
   any prefix, so equal texts mean equal formulas), or the diagnostic. *)
let loaded text =
  match Load.of_string text with
  | Ok f -> Ok (Qbf_io.Nqdimacs.to_string f)
  | Error e -> Error (Load.error_to_string e)

let test_which_texts_load () =
  let check text want =
    Alcotest.(check (result string string)) (Printf.sprintf "%S" text) want
      (loaded text)
  in
  let q = "p cnf 2 2\ne 1 0\na 2 0\n1 2 0\n-1 -2 0\n"
  and n = "p ncnf 2 2\nt (e 1 (a 2))\n1 2 0\n-1 -2 0\n" in
  let loads text canon = check text (loaded canon)
  and rejects text msg = check text (Error ("<string>:" ^ msg)) in
  Alcotest.(check bool) "both load" true
    (Result.is_ok (loaded q) && Result.is_ok (loaded n));
  (* text before the header is skipped, in both formats *)
  loads ("x\n" ^ q) q;
  loads ("x y\n" ^ n) n;
  (* tabs and form feeds separate tokens as spaces do *)
  loads "p\tcnf 2\0122\ne\t1 0\na 2\0120\n1\t2 0\n-1\012-2 0\n" q;
  loads "p\tncnf 2\0122\nt\t(e\0121 (a\t2))\n1\t2 0\n-1\012-2 0\n" n;
  (* after its second word the header may span lines; before it, a line
     that starts with "cnf" is a comment *)
  let malformed =
    "1:1: malformed header (expected 'p cnf <nvars> <nclauses>')"
  in
  loads "p cnf\n2\n2 e 1 0\na 2 0\n1 2 0\n-1 -2 0\n" q;
  loads "p ncnf\n 2 2\nt (e 1 (a 2))\n1 2 0\n-1 -2 0\n" n;
  rejects "p\ncnf 2 2\ne 1 0\na 2 0\n1 2 0\n-1 -2 0\n" malformed;
  (* the clause count must be an integer, in both formats *)
  rejects "p cnf 2 x\ne 1 0\n1 0\n" malformed;
  rejects "p ncnf 2 x\nt (e 1)\n1 0\n" malformed;
  (* tree lines start with 't' (dropped) or '(', and comments may come
     between them *)
  loads "p ncnf 2 2\n(e 1\nc x\n  t(a 2)\nt )\n1 2 0\n-1 -2 0\n" n;
  (* the tree ends at the first line that starts otherwise *)
  rejects "p ncnf 2 2\nt (e 1\n1 2 0\n(a 2))\n-1 -2 0\n"
    "2:6: unbalanced '(' in quantifier tree";
  rejects "p ncnf 2 2\nt (e 1)\n1 2 0\nt (a 2)\n-1 -2 0\n"
    "4:1: unexpected word \"t\" in matrix";
  (* a literal out of range has a position, [min_int] too *)
  rejects "p cnf 1 1\n-4611686018427387904 0\n"
    "2:1: literal -4611686018427387904 out of range";
  (* a tree on the header's own line is not a tree *)
  rejects "p ncnf 2 2 (e 1 (a 2))\n1 2 0\n-1 -2 0\n"
    "1:12: unexpected word \"(e\" in matrix"

(* Blank and comment lines before the header change nothing but the
   line numbers of diagnostics; the texts are (possibly truncated)
   printed formulas, so every one holds a token. *)
let gen_lead_and_text =
  QCheck2.Gen.(
    let* lead =
      map (String.concat "")
        (list_size (int_bound 6)
           (oneofl
              [ "\n"; " \t\r\n"; "\012\n"; "c\n"; "c p cnf 9 9\n"; "  c x\n" ]))
    in
    let* seed = int_range 0 100_000 in
    let* tree = bool in
    let rng = Qbf_gen.Rng.create seed in
    let text =
      if tree then
        Qbf_io.Nqdimacs.to_string
          (Qbf_gen.Randqbf.tree rng ~nvars:6 ~nclauses:5 ~len:3 ())
      else
        Qbf_io.Qdimacs.to_string
          (Qbf_gen.Randqbf.prenex rng ~nvars:6 ~levels:3 ~nclauses:5 ~len:3
             ~min_exists:0 ())
    in
    let* cut = int_range 1 (String.length text) in
    return (lead, String.sub text 0 cut))

let prop_lead_changes_nothing (lead, text) =
  let shift = List.length (String.split_on_char '\n' lead) - 1 in
  match (Load.of_string (lead ^ text), Load.of_string text) with
  | Ok f, Ok g ->
      Qbf_io.Nqdimacs.to_string f = Qbf_io.Nqdimacs.to_string g
  | Error (Load.Parse e), Error (Load.Parse e') ->
      e.line = e'.line + shift && e.col = e'.col && e.msg = e'.msg
  | Error e, Error e' -> e = e'
  | _ -> false

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
  (* the node budget, not the never-expiring deadline, ends both runs *)
  List.iter
    (fun r ->
      Alcotest.(check bool) "stopped by the node budget" true
        (r.Run.stopped = Some Run.Node_budget))
    [ r1; r64 ];
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
    Alcotest.test_case "which texts load" `Quick test_which_texts_load;
    Util.qcheck_case ~count:500 "leading comments change nothing"
      gen_lead_and_text prop_lead_changes_nothing;
    Alcotest.test_case "deadline timeout" `Quick test_deadline_timeout;
    Alcotest.test_case "amortized deadline" `Quick test_deadline_amortized;
    Alcotest.test_case "interrupt pre-tripped" `Quick test_interrupt_pretripped;
    Alcotest.test_case "interrupt mid-search" `Quick test_interrupt_mid_search;
    Alcotest.test_case "interrupt via signal" `Quick test_interrupt_signal;
    Alcotest.test_case "loader roundtrip" `Quick test_load_string_roundtrip;
  ]
