(* Seeded differential fuzzer for the whole stack (consolidates the old
   fuzz2..fuzz8 one-off harnesses).

     fuzz [--seeds N] [--seed-base S] [--max-seconds T] [-v]

   Per seed, eight phases:

   1. differential: a random QBF (tree or prenex) solved under every
      interesting engine configuration — the 8-way learning x pures x
      TO/PO matrix plus the aux-hint (virtual cover) and the
      restarts+db-reduction variants — each checked against the
      expansion oracle (Qbf_core.Eval);

   2. round-trip: the formula is printed to NQDIMACS (and QDIMACS when
      prenex), re-read through the structured loader (Qbf_run.Run), and
      the reparse must agree with the oracle;

   3. robustness: the serialized text is mutated — truncated at a random
      offset, a random line dropped, random bytes corrupted — and fed
      back to the loader, which must return Ok or a structured Error
      but never let an exception escape;

   4. incremental sessions (prenex seeds, which keep any added clause
      path-consistent): solve / push + grow / solve / pop / solve /
      grow at frame 0 / solve on one Qbf_solver.Session with the
      growth contract validated, each call checked against the
      expansion oracle on the matching one-shot formula;

   5. fixpoint completeness: the formula solved (TO and PO, learning
      on and off) with [debug_checks], which rescans the whole
      database at every propagation fixpoint for a unit, conflict or
      solution the counters and watches failed to announce (raising
      on one) — and the outcome must match the oracle;

   6. loader crash-robustness: hostile byte mutations through both
      loaders and the serving layer's frame decoder — structured
      errors only, never an escaped exception;

   7. learned-DB reduction: aggressive reduce-and-compact cycles
      (tiny interval, near-zero keep fraction) vs. the reduction-off
      engine, both checked against the oracle;

   8. certificates: the formula re-solved under every phase-1
      configuration with a proof trace attached (Session.one_shot
      ?proof); every conclusive run must yield a trace the independent
      checker (Qbf_check.Checker, no solver code) replays successfully
      against the formula, concluding the same value.

   Stops early when --max-seconds is exceeded.  The smoke target in
   test/dune runs the default 500 seeds on every `dune runtest`, with no
   deadline.  Exits nonzero on any mismatch or escaped exception. *)

open Qbf_core
module ST = Qbf_solver.Solver_types
module Run = Qbf_run.Run

let configs =
  let matrix =
    List.concat_map
      (fun learning ->
        List.concat_map
          (fun pure_literals ->
            List.map
              (fun heuristic ->
                ( Printf.sprintf "learn=%b pure=%b %s" learning pure_literals
                    (match heuristic with
                    | ST.Total_order -> "TO"
                    | ST.Partial_order -> "PO"),
                  ST.(
                    default_config |> with_learning learning
                    |> with_pure_literals pure_literals
                    |> with_heuristic heuristic) ))
              [ ST.Total_order; ST.Partial_order ])
          [ true; false ])
      [ true; false ]
  in
  matrix
  @ List.concat_map
      (fun heuristic ->
        let hn =
          match heuristic with ST.Total_order -> "TO" | _ -> "PO"
        in
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
      [ ST.Total_order; ST.Partial_order ]

let gen_formula rng seed =
  let nvars = 1 + Qbf_gen.Rng.int rng 14 in
  let nclauses = Qbf_gen.Rng.int rng 35 in
  let len = 1 + Qbf_gen.Rng.int rng 4 in
  if seed mod 2 = 0 then Qbf_gen.Randqbf.tree rng ~nvars ~nclauses ~len ()
  else
    Qbf_gen.Randqbf.prenex rng ~nvars
      ~levels:(1 + (seed mod 5))
      ~nclauses ~len
      ~min_exists:(seed mod 3)
      ()

(* Random extension clauses with at least one existential literal (an
   all-universal clause is contradictory by Lemma 4 and ends every
   branch immediately, exercising nothing). *)
let random_clauses rng prefix ~nvars ~n =
  let evars =
    List.filter (Prefix.is_exists prefix) (List.init nvars (fun v -> v))
  in
  if evars = [] then []
  else
    List.init n (fun _ ->
        let width = 2 + Qbf_gen.Rng.int rng 3 in
        let e = List.nth evars (Qbf_gen.Rng.int rng (List.length evars)) in
        Lit.make e (Qbf_gen.Rng.int rng 2 = 0)
        :: List.init (width - 1) (fun _ ->
               Lit.make
                 (Qbf_gen.Rng.int rng nvars)
                 (Qbf_gen.Rng.int rng 2 = 0)))

let mutate rng text =
  let n = String.length text in
  if n = 0 then text
  else
    match Qbf_gen.Rng.int rng 3 with
    | 0 ->
        (* truncate at a random offset *)
        String.sub text 0 (Qbf_gen.Rng.int rng n)
    | 1 ->
        (* drop a random line *)
        let lines = String.split_on_char '\n' text in
        let k = Qbf_gen.Rng.int rng (max 1 (List.length lines)) in
        List.filteri (fun i _ -> i <> k) lines |> String.concat "\n"
    | _ ->
        (* corrupt a few random bytes with printable noise *)
        let b = Bytes.of_string text in
        for _ = 0 to Qbf_gen.Rng.int rng 3 do
          let i = Qbf_gen.Rng.int rng n in
          let c = Char.chr (32 + Qbf_gen.Rng.int rng 95) in
          Bytes.set b i c
        done;
        Bytes.to_string b

(* Hostile mutations for the crash-robustness phase: unlike [mutate]
   (which stays printable), these produce the inputs a loader meets in
   the wild when a file is corrupt, mis-transferred, or adversarial —
   flipped bits, CRLF/CR line endings, raw binary, mid-byte truncation,
   duplicated regions. *)
let hostile rng text =
  let n = String.length text in
  if n = 0 then "\xff\x00\xfe"
  else
    match Qbf_gen.Rng.int rng 5 with
    | 0 ->
        (* flip random bits *)
        let b = Bytes.of_string text in
        for _ = 0 to Qbf_gen.Rng.int rng 8 do
          let i = Qbf_gen.Rng.int rng n in
          let bit = 1 lsl Qbf_gen.Rng.int rng 8 in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor bit))
        done;
        Bytes.to_string b
    | 1 ->
        (* CRLF / bare-CR mangling *)
        let sep = if Qbf_gen.Rng.int rng 2 = 0 then "\r\n" else "\r" in
        String.split_on_char '\n' text |> String.concat sep
    | 2 ->
        (* splice in raw binary noise *)
        let i = Qbf_gen.Rng.int rng n in
        let noise =
          String.init
            (1 + Qbf_gen.Rng.int rng 16)
            (fun _ -> Char.chr (Qbf_gen.Rng.int rng 256))
        in
        String.sub text 0 i ^ noise ^ String.sub text i (n - i)
    | 3 ->
        (* truncate, possibly mid-token *)
        String.sub text 0 (Qbf_gen.Rng.int rng n)
    | _ ->
        (* duplicate a random region (repeated headers, repeated
           clauses, unbalanced trees) *)
        let i = Qbf_gen.Rng.int rng n in
        let len = Qbf_gen.Rng.int rng (n - i) in
        text ^ String.sub text i len

(* Pathological fixed inputs every loader must reject structurally:
   nesting designed to blow the parser's stack, headers promising
   absurd sizes, and pure binary. *)
let adversarial_corpus =
  [
    "p ncnf 2 1\n" ^ String.concat "" (List.init 100_000 (fun _ -> "(e 1 "))
    ^ "1 2 0\n";
    "p ncnf 1 1\n" ^ String.make 200_000 '(';
    "p ncnf 1 1\n" ^ String.make 200_000 ')';
    "p cnf 1073741824 1073741824\ne 1 0\n1 0\n";
    "p cnf 1 1\ne 1 0\n-4611686018427387904 0\n";
    "\x7fELF\x02\x01\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00";
    "p ncnf 1 1\n(e 1\n";
    "p cnf 1 1\ne 1 0\n1";
  ]

let () =
  let seeds = ref 500 in
  let seed_base = ref 0 in
  let max_seconds = ref infinity in
  let verbose = ref false in
  let rec parse_args = function
    | [] -> ()
    | "--seeds" :: v :: rest ->
        seeds := int_of_string v;
        parse_args rest
    | "--seed-base" :: v :: rest ->
        seed_base := int_of_string v;
        parse_args rest
    | "--max-seconds" :: v :: rest ->
        max_seconds := float_of_string v;
        parse_args rest
    | "-v" :: rest | "--verbose" :: rest ->
        verbose := true;
        parse_args rest
    | n :: rest when int_of_string_opt n <> None ->
        (* bare count, for `fuzz 1000` muscle memory *)
        seeds := int_of_string n;
        parse_args rest
    | other :: _ ->
        Printf.eprintf
          "usage: fuzz [--seeds N] [--seed-base S] [--max-seconds T] [-v]\n\
           unknown argument %S\n"
          other;
        exit 64
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let t0 = Unix.gettimeofday () in
  let bad = ref 0 in
  let done_seeds = ref 0 in
  let complain seed fmt =
    incr bad;
    Printf.printf "seed=%d " seed;
    Printf.kfprintf (fun oc -> output_char oc '\n') stdout fmt
  in
  (try
     for seed = !seed_base to !seed_base + !seeds - 1 do
       if Unix.gettimeofday () -. t0 > !max_seconds then raise Exit;
       let rng = Qbf_gen.Rng.create seed in
       let f = gen_formula rng seed in
       let expected = Eval.eval f in
       (* 1. differential: every configuration vs the oracle *)
       List.iter
         (fun (cname, config) ->
           let r = Qbf_solver.Engine.solve ~config f in
           let got =
             match r.ST.outcome with
             | ST.True -> Some true
             | ST.False -> Some false
             | ST.Unknown -> None
           in
           if got <> Some expected then
             complain seed "MISMATCH [%s] expected=%b got=%s" cname expected
               (match got with
               | Some b -> string_of_bool b
               | None -> "unknown"))
         configs;
       (* 2. round-trip through the structured loader *)
       let texts =
         (Qbf_io.Nqdimacs.to_string f, Run.Nqdimacs)
         ::
         (if Prefix.is_prenex (Formula.prefix f) then
            [ (Qbf_io.Qdimacs.to_string f, Run.Qdimacs) ]
          else [])
       in
       List.iter
         (fun (text, format) ->
           match Run.load_string ~format text with
           | Ok f' ->
               if Eval.eval f' <> expected then
                 complain seed "ROUNDTRIP value drift (%s)"
                   (match format with
                   | Run.Qdimacs -> "qdimacs"
                   | Run.Nqdimacs -> "nqdimacs")
           | Error e ->
               complain seed "ROUNDTRIP rejected: %s"
                 (Qbf_run.Run_error.to_string e)
           | exception e ->
               complain seed "ROUNDTRIP exception: %s" (Printexc.to_string e))
         texts;
       (* 3. robustness: mutated/truncated inputs must yield Ok or a
          structured Error, never an escaped exception *)
       List.iter
         (fun (text, _) ->
           for _ = 0 to 3 do
             let mutated = mutate rng text in
             match Run.load_string mutated with
             | Ok _ | Error _ -> ()
             | exception e ->
                 complain seed "MUTATION exception: %s on %S"
                   (Printexc.to_string e) mutated
           done)
         texts;
       (* 4. incremental sessions vs the oracle (prenex seeds only:
          added clauses may span any variable pair, which is only
          path-consistent on a chain prefix) *)
       (if seed mod 2 = 1 then begin
          let prefix = Formula.prefix f in
          let nvars = Formula.nvars f in
          let with_extra base extra =
            Formula.make (Formula.prefix base)
              (List.map Clause.of_list extra @ Formula.matrix base)
          in
          let t = Qbf_solver.Session.of_formula ~validate:true f in
          let check label reference =
            let got = (Qbf_solver.Session.solve t).ST.outcome in
            let want =
              if Eval.eval reference then ST.True else ST.False
            in
            if got <> want then
              complain seed "SESSION %s mismatch: expected %s" label
                (match want with ST.True -> "true" | _ -> "false")
          in
          (try
             check "base" f;
             let pushed =
               random_clauses rng prefix ~nvars ~n:(1 + Qbf_gen.Rng.int rng 4)
             in
             Qbf_solver.Session.push t;
             List.iter (Qbf_solver.Session.add_clause t) pushed;
             check "pushed" (with_extra f pushed);
             Qbf_solver.Session.pop t;
             check "popped" f;
             let grown =
               random_clauses rng prefix ~nvars ~n:(1 + Qbf_gen.Rng.int rng 3)
             in
             List.iter (Qbf_solver.Session.add_clause t) grown;
             check "grown" (with_extra f grown)
           with e ->
             complain seed "SESSION exception: %s" (Printexc.to_string e));
          Qbf_solver.Session.dispose t
        end);
       (* 5. fixpoint completeness: debug_checks raises on a missed
          discovery, the completeness half of the watched-literal
          invariant *)
       List.iter
         (fun (hname, heuristic) ->
           List.iter
             (fun learning ->
               match
                 Qbf_solver.Engine.solve
                   ~config:
                     ST.(
                       default_config |> with_heuristic heuristic
                       |> with_learning learning
                       |> with_debug_checks true)
                   f
               with
               | exception e ->
                   complain seed "FIXPOINT exception [%s learn=%b]: %s" hname
                     learning (Printexc.to_string e)
               | r ->
                   if r.ST.outcome <> (if expected then ST.True else ST.False)
                   then
                     complain seed
                       "FIXPOINT ORACLE MISMATCH [%s learn=%b] got=%s \
                        expected=%b"
                       hname learning
                       (Qbf_solver.Outcome.to_string r.ST.outcome)
                       expected)
             [ true; false ])
         [ ("TO", ST.Total_order); ("PO", ST.Partial_order) ];
       (* 7. learned-DB reduction differential: aggressive reduction (a
          tiny first interval and a near-zero keep fraction, so several
          cycles fire even on small instances) must leave every outcome
          identical to the reduction-off engine and the oracle —
          reduction only ever drops redundant learned constraints. *)
       List.iter
         (fun (hname, heuristic) ->
           let run reduce =
             Qbf_solver.Engine.solve
               ~config:
                 ST.(
                   default_config |> with_heuristic heuristic
                   |> with_restarts true |> with_restart_base 2
                   |> with_db_reduction reduce
                   |> with_db_reduce_interval 4
                   |> with_db_keep_fraction 0.25
                   |> with_debug_checks true)
               f
           in
           match (run true, run false) with
           | exception e ->
               complain seed "DBRED exception [%s]: %s" hname
                 (Printexc.to_string e)
           | on, off ->
               let name = function
                 | ST.True -> "true"
                 | ST.False -> "false"
                 | ST.Unknown -> "unknown"
               in
               if on.ST.outcome <> off.ST.outcome then
                 complain seed "DBRED MISMATCH [%s] on=%s off=%s" hname
                   (name on.ST.outcome) (name off.ST.outcome)
               else if
                 on.ST.outcome <> if expected then ST.True else ST.False
               then
                 complain seed "DBRED ORACLE MISMATCH [%s] got=%s expected=%b"
                   hname (name on.ST.outcome) expected)
         [ ("TO", ST.Total_order); ("PO", ST.Partial_order) ];
       (* 8. certificates: every conclusive run must emit a trace the
          independent checker accepts, with the matching conclusion.
          The proof path forces pure-literal fixing off, so this also
          differentially re-tests the no-pures engine. *)
       (let path = Filename.temp_file "fuzz-proof" ".qrp" in
        List.iter
          (fun (cname, config) ->
            let proof = Qbf_solver.Proof.create ~path in
            match Qbf_solver.Session.one_shot ~config ~proof f with
            | r -> (
                Qbf_solver.Proof.close proof;
                match (r.ST.outcome, r.ST.witness) with
                | ST.Unknown, _ -> ()
                | _, ST.No_witness ->
                    complain seed "PROOF missing witness [%s]" cname
                | outcome, ST.Proof_trace _ -> (
                    match Qbf_check.Checker.check_file ~formula:f path with
                    | Ok v ->
                        if
                          not
                            (List.mem (outcome = ST.True)
                               v.Qbf_check.Checker.conclusions)
                        then
                          complain seed "PROOF wrong conclusion [%s]" cname
                    | Error fl ->
                        complain seed "PROOF rejected [%s] line %d: %s" cname
                          fl.Qbf_check.Checker.line fl.Qbf_check.Checker.msg))
            | exception e ->
                Qbf_solver.Proof.close proof;
                complain seed "PROOF exception [%s]: %s" cname
                  (Printexc.to_string e))
          configs;
        Sys.remove path);
       (* 6. loader crash-robustness: hostile bytes — bit flips,
          CRLF/CR mangling, binary splices, mid-token truncation,
          duplicated regions — through both loaders, both with format
          sniffing and with each format forced; and random bytes
          through the serving layer's frame decoder.  Always Ok or a
          structured Error, never an escaped exception. *)
       List.iter
         (fun (text, _) ->
           for _ = 0 to 5 do
             let m = hostile rng text in
             List.iter
               (fun format ->
                 match Run.load_string ?format m with
                 | Ok _ | Error _ -> ()
                 | exception e ->
                     complain seed "HOSTILE exception (%s): %s"
                       (match format with
                       | None -> "sniffed"
                       | Some Run.Qdimacs -> "qdimacs"
                       | Some Run.Nqdimacs -> "nqdimacs")
                       (Printexc.to_string e))
               [ None; Some Run.Qdimacs; Some Run.Nqdimacs ]
           done)
         texts;
       (let d = Qbf_serve.Protocol.decoder () in
        let chunk =
          Bytes.init
            (1 + Qbf_gen.Rng.int rng 64)
            (fun _ -> Char.chr (Qbf_gen.Rng.int rng 256))
        in
        match
          Qbf_serve.Protocol.feed d chunk (Bytes.length chunk);
          Qbf_serve.Protocol.next d
        with
        | Qbf_serve.Protocol.Frame _ | Qbf_serve.Protocol.Garbage _
        | Qbf_serve.Protocol.More ->
            ()
        | exception e ->
            complain seed "DECODER exception: %s" (Printexc.to_string e));
       (* the fixed adversarial corpus, once per run *)
       if seed = !seed_base then
         List.iter
           (fun text ->
             List.iter
               (fun format ->
                 match Run.load_string ?format text with
                 | Ok _ | Error _ -> ()
                 | exception e ->
                     complain seed "ADVERSARIAL exception: %s on %d-byte input"
                       (Printexc.to_string e) (String.length text))
               [ None; Some Run.Qdimacs; Some Run.Nqdimacs ])
           adversarial_corpus;
       incr done_seeds;
       if !verbose && seed mod 100 = 0 then
         Printf.printf "... seed %d (%.1fs)\n%!" seed
           (Unix.gettimeofday () -. t0)
     done
   with Exit -> ());
  Printf.printf "fuzz done: %d seeds (%d requested), %d failures, %.1fs\n"
    !done_seeds !seeds !bad
    (Unix.gettimeofday () -. t0);
  exit (if !bad > 0 then 1 else 0)
