(* Serving layer (Qbf_serve): wire protocol, canonical hashing, failure
   classification, and end-to-end supervised batches — including
   memoization of duplicates and the robustness contract that a
   fault-injected run decides the same answers as a clean one. *)

module ST = Qbf_solver.Solver_types
module Json = Qbf_obs.Json
module Protocol = Qbf_serve.Protocol
module Hash = Qbf_serve.Hash
module Supervisor = Qbf_serve.Supervisor
module Failure = Qbf_run.Failure

(* ------------------------------------------------------------------ *)
(* Protocol framing                                                    *)

let roundtrip_dispatch d =
  match Protocol.dispatch_of_json (Protocol.json_of_dispatch d) with
  | Ok d' -> d'
  | Error m -> Alcotest.failf "dispatch did not roundtrip: %s" m

let test_dispatch_roundtrip () =
  let job =
    Protocol.job ~id:7 ~timeout_s:1.5 ~max_nodes:123
      (Qbf_run.Run.Path "foo.qdimacs")
  in
  let d =
    {
      Protocol.d_job = job;
      d_config = "to-watched";
      d_attempt = 3;
      d_proof = Some "/tmp/p.qrp";
    }
  in
  let d' = roundtrip_dispatch d in
  Alcotest.(check int) "id" 7 d'.Protocol.d_job.Protocol.id;
  Alcotest.(check int) "attempt" 3 d'.Protocol.d_attempt;
  Alcotest.(check string) "config" "to-watched" d'.Protocol.d_config;
  Alcotest.(check bool) "timeout" true
    (d'.Protocol.d_job.Protocol.timeout_s = Some 1.5);
  Alcotest.(check bool) "max_nodes" true
    (d'.Protocol.d_job.Protocol.max_nodes = Some 123);
  Alcotest.(check bool) "mem_mb absent" true
    (d'.Protocol.d_job.Protocol.mem_mb = None);
  Alcotest.(check bool) "proof path survives" true
    (d'.Protocol.d_proof = Some "/tmp/p.qrp");
  (* inline sources survive too *)
  let d2 =
    {
      Protocol.d_job = Protocol.job ~id:0 (Qbf_run.Run.Inline "p cnf 0 0");
      d_config = "po-watched";
      d_attempt = 1;
      d_proof = None;
    }
  in
  let d2' = roundtrip_dispatch d2 in
  Alcotest.(check bool) "inline source" true
    (d2'.Protocol.d_job.Protocol.source = Qbf_run.Run.Inline "p cnf 0 0")

let test_answer_roundtrip () =
  let a =
    {
      Protocol.a_id = 4;
      a_attempt = 2;
      a_outcome = ST.False;
      a_time = 0.25;
      a_stopped = None;
      a_decisions = 10;
      a_nodes = 6;
      a_proof = Some "/tmp/job4.qrp";
      a_error = None;
    }
  in
  match Protocol.worker_msg_of_json (Protocol.json_of_answer a) with
  | Ok (Protocol.Msg_answer a') ->
      Alcotest.(check int) "id" 4 a'.Protocol.a_id;
      Alcotest.(check int) "attempt" 2 a'.Protocol.a_attempt;
      Alcotest.check Util.outcome "outcome" ST.False a'.Protocol.a_outcome;
      Alcotest.(check int) "decisions" 10 a'.Protocol.a_decisions;
      Alcotest.(check bool) "proof path survives" true
        (a'.Protocol.a_proof = Some "/tmp/job4.qrp");
      Alcotest.(check bool) "no error" true (a'.Protocol.a_error = None)
  | Ok (Protocol.Msg_heartbeat _ | Protocol.Msg_stats _) ->
      Alcotest.fail "answer decoded as a different frame kind"
  | Error m -> Alcotest.failf "answer did not roundtrip: %s" m

let test_frame_over_pipe () =
  let r, w = Unix.pipe ~cloexec:false () in
  let j = Json.Obj [ ("type", Json.String "hb"); ("id", Json.Int 1);
                     ("attempt", Json.Int 1) ] in
  Protocol.write_frame w j;
  Protocol.write_frame w j;
  Unix.close w;
  (* both frames are already buffered in the pipe: a persistent decoder
     must hand them out one by one without losing the second *)
  let d = Protocol.decoder () in
  (match Protocol.read_frame ~d r with
  | Protocol.R_frame _ -> ()
  | _ -> Alcotest.fail "expected first frame");
  (match Protocol.read_frame ~d r with
  | Protocol.R_frame _ -> ()
  | _ -> Alcotest.fail "expected second frame");
  (match Protocol.read_frame ~d r with
  | Protocol.R_closed -> ()
  | _ -> Alcotest.fail "expected clean EOF");
  Unix.close r

let test_truncated_frame () =
  let r, w = Unix.pipe ~cloexec:false () in
  (* a length line promising more bytes than ever arrive: EOF mid-frame *)
  let partial = "100\n{\"type\":" in
  let b = Bytes.of_string partial in
  ignore (Unix.write w b 0 (Bytes.length b));
  Unix.close w;
  (match Protocol.read_frame r with
  | Protocol.R_truncated -> ()
  | _ -> Alcotest.fail "expected truncated stream");
  Unix.close r

let feed_string d s =
  Protocol.feed d (Bytes.of_string s) (String.length s)

let test_decoder_split_feed () =
  let d = Protocol.decoder () in
  let payload = Json.to_string (Json.Obj [ ("type", Json.String "hb");
                                           ("id", Json.Int 9);
                                           ("attempt", Json.Int 1) ]) in
  let frame = Printf.sprintf "%d\n%s" (String.length payload) payload in
  (* byte-at-a-time delivery must yield More until the last byte *)
  String.iteri
    (fun i c ->
      (match Protocol.next d with
      | Protocol.More -> ()
      | _ -> Alcotest.failf "premature frame at byte %d" i);
      feed_string d (String.make 1 c))
    frame;
  (match Protocol.next d with
  | Protocol.Frame j ->
      Alcotest.(check bool) "id survives" true
        (Json.member_int "id" j = Some 9)
  | _ -> Alcotest.fail "expected a complete frame");
  Alcotest.(check int) "buffer drained" 0 (Protocol.decoder_pending d)

let expect_garbage name s =
  let d = Protocol.decoder () in
  feed_string d s;
  match Protocol.next d with
  | Protocol.Garbage _ -> ()
  | Protocol.Frame _ -> Alcotest.failf "%s: decoded a frame from noise" name
  | Protocol.More -> Alcotest.failf "%s: decoder wants more noise" name

let test_decoder_garbage () =
  expect_garbage "bad length line" "not-a-length\n{}";
  expect_garbage "negative length" "-4\n{}";
  expect_garbage "huge length" "999999999999\n{}";
  expect_garbage "no newline in 21 bytes" (String.make 21 'x');
  expect_garbage "bad payload" "3\nxyz"

(* ------------------------------------------------------------------ *)
(* Canonical hashing                                                   *)

let hash_of_text text =
  Hash.formula (Util.load text)

let test_hash_canonical () =
  let a = "p cnf 3 3\ne 1 2 0\na 3 0\n1 -2 0\n2 3 0\n-1 0\n" in
  (* same clauses, permuted *)
  let b = "p cnf 3 3\ne 1 2 0\na 3 0\n-1 0\n2 3 0\n1 -2 0\n" in
  (* plus a tautological clause, which simplification removes *)
  let c = "p cnf 3 4\ne 1 2 0\na 3 0\n1 -2 0\n1 -1 2 0\n2 3 0\n-1 0\n" in
  (* a genuinely different matrix *)
  let d = "p cnf 3 3\ne 1 2 0\na 3 0\n1 2 0\n2 3 0\n-1 0\n" in
  Alcotest.(check string) "clause order is canonicalised" (hash_of_text a)
    (hash_of_text b);
  Alcotest.(check string) "tautologies do not change the key" (hash_of_text a)
    (hash_of_text c);
  Alcotest.(check bool) "different formulas diverge" true
    (hash_of_text a <> hash_of_text d);
  Alcotest.(check int) "16 hex chars" 16 (String.length (hash_of_text a))

(* ------------------------------------------------------------------ *)
(* Failure classification                                              *)

let test_failure_classes () =
  Alcotest.(check bool) "clean exit is no failure" true
    (Failure.of_process_status (Unix.WEXITED 0) = None);
  Alcotest.(check bool) "nonzero exit is a crash" true
    (Failure.of_process_status (Unix.WEXITED 86) = Some (Failure.Crash 86));
  Alcotest.(check bool) "SIGKILL smells like the OOM killer" true
    (Failure.of_process_status (Unix.WSIGNALED Sys.sigkill) = Some Failure.Oom);
  Alcotest.(check bool) "other signals keep their number" true
    (Failure.of_process_status (Unix.WSIGNALED Sys.sigsegv)
    = Some (Failure.Signalled Sys.sigsegv));
  Alcotest.(check bool) "input errors are permanent" true
    (not (Failure.is_transient (Failure.Input "bad")));
  Alcotest.(check bool) "everything else retries" true
    (List.for_all Failure.is_transient
       [ Failure.Timeout; Failure.Oom; Failure.Crash 1; Failure.Garbage;
         Failure.Truncated; Failure.Hang; Failure.Spawn ]);
  Alcotest.(check bool) "only budget-shaped failures escalate" true
    (Failure.escalates_budget Failure.Timeout
    && Failure.escalates_budget Failure.Resource
    && not (Failure.escalates_budget Failure.Oom)
    && not (Failure.escalates_budget (Failure.Crash 1))
    && not (Failure.escalates_budget Failure.Spawn));
  Alcotest.(check string) "spawn label" "spawn"
    (Failure.to_string Failure.Spawn);
  Alcotest.(check bool) "every label listed" true
    (List.mem "spawn" Failure.all_labels);
  (* the stop reason travels as its rendering *)
  let of_reason r = Failure.of_stopped (Qbf_run.Run.string_of_stop_reason r) in
  Alcotest.(check bool) "stop reasons map onto classes" true
    (of_reason Qbf_run.Run.Timeout = Failure.Timeout
    && of_reason (Qbf_run.Run.Interrupted Qbf_run.Limits.Interrupt.Memory)
       = Failure.Oom
    && of_reason (Qbf_run.Run.Interrupted Qbf_run.Limits.Interrupt.Manual)
       = Failure.Resource
    && of_reason Qbf_run.Run.Node_budget = Failure.Resource
    && of_reason Qbf_run.Run.Budget = Failure.Resource)

(* ------------------------------------------------------------------ *)
(* Supervised batches, end to end                                      *)

(* tiny inline instances with known truth values *)
let true_qbf = "p cnf 2 2\ne 1 2 0\n1 2 0\n-1 2 0\n"
let false_qbf = "p cnf 1 2\ne 1 0\n1 0\n-1 0\n"

let inline_jobs texts =
  List.mapi (fun i t -> Protocol.job ~id:i (Qbf_run.Run.Inline t)) texts

let outcomes reports =
  List.map (fun r -> (r.Supervisor.r_id, r.Supervisor.r_outcome)) reports

let test_supervisor_clean_batch () =
  let jobs = inline_jobs [ true_qbf; false_qbf; true_qbf ] in
  let policy = { Supervisor.default_policy with Supervisor.workers = 2 } in
  let reports, summary = Supervisor.run ~policy jobs in
  Alcotest.(check int) "one report per job" 3 (List.length reports);
  Alcotest.(check int) "all decided" 3 summary.Supervisor.s_decided;
  Alcotest.(check bool) "answers" true
    (outcomes reports = [ (0, ST.True); (1, ST.False); (2, ST.True) ]);
  (* job 2 is byte-identical to job 0: it must take job 0's answer *)
  let r2 = List.nth reports 2 in
  Alcotest.(check bool) "duplicate served from cache" true
    r2.Supervisor.r_cached;
  Alcotest.(check (option int)) "one cache hit counted" (Some 1)
    (List.assoc_opt "cache_hits" summary.Supervisor.s_counters);
  (* every job is either a hit or, at its first dispatch, a miss *)
  Alcotest.(check int) "hits + misses = jobs" 3
    (List.assoc "cache_hits" summary.Supervisor.s_counters
    + List.assoc "cache_misses" summary.Supervisor.s_counters);
  List.iter
    (fun r ->
      Alcotest.(check bool) "no failures on a clean run" true
        (r.Supervisor.r_failures = []))
    reports;
  Alcotest.check_raises "a pool needs a worker"
    (Invalid_argument "Supervisor.run: policy.workers must be at least 1")
    (fun () ->
      ignore
        (Supervisor.run
           ~policy:{ Supervisor.default_policy with Supervisor.workers = 0 }
           jobs))

(* A formula no configuration decides within one node. *)
let budget_stopped_qbf () =
  let f =
    Qbf_gen.Ncf.generate_ratio (Qbf_gen.Rng.create 1) ~dep:6 ~var:10
      ~ratio:2.2 ~lpc:4
  in
  Qbf_io.Qdimacs.to_string
    (Qbf_prenex.Prenexing.apply Qbf_prenex.Prenexing.e_up_a_up f)

let counter summary name =
  Option.value ~default:0 (List.assoc_opt name summary.Supervisor.s_counters)

let test_inline_unknown_not_shared () =
  (* a budget-stopped answer says nothing about the formula, so its
     duplicate must be solved, not answered from the cache *)
  let text = budget_stopped_qbf () in
  let policy =
    {
      Supervisor.default_policy with
      Supervisor.workers = 1;
      race = [ "po-watched" ];
      retries = 0;
      max_nodes = Some 1;
    }
  in
  let reports, summary = Supervisor.run ~policy (inline_jobs [ text; text ]) in
  List.iter
    (fun r ->
      Alcotest.check Util.outcome "stopped by the node budget" ST.Unknown
        r.Supervisor.r_outcome;
      Alcotest.(check bool) "not a cache hit" false r.Supervisor.r_cached;
      Alcotest.(check int) "solved by a worker" 1 r.Supervisor.r_attempts)
    reports;
  Alcotest.(check int) "no cache hits" 0 (counter summary "cache_hits");
  Alcotest.(check int) "both solved" 2 (counter summary "dispatches")

(* A budget give-up is an unknown answer, not an error: only malformed
   input counts in [jobs_errored]. *)
let test_budget_give_up_unknown () =
  let policy =
    {
      Supervisor.default_policy with
      Supervisor.workers = 1;
      retries = 0;
    }
  in
  (* dune copies the instance beside the test binary's directory, so
     the path holds whatever the working directory *)
  let path =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "../examples/instances/ncf_hard.qdimacs"
  in
  let job = Protocol.job ~id:0 ~max_nodes:1 (Qbf_run.Run.Path path) in
  let reports, summary = Supervisor.run ~policy [ job ] in
  let r = List.hd reports in
  Alcotest.check Util.outcome "stopped by the node budget" ST.Unknown
    r.Supervisor.r_outcome;
  (* the give-up reports what its attempts searched *)
  Alcotest.(check bool) "decisions searched" true
    (r.Supervisor.r_decisions > 0);
  Alcotest.(check bool) "nodes searched" true (r.Supervisor.r_nodes > 0);
  Alcotest.(check int) "summary unknown" 1 summary.Supervisor.s_unknown;
  Alcotest.(check int) "summary errors" 0 summary.Supervisor.s_errors

(* A duplicate waits while its twin runs, and takes the twin's answer:
   one dispatch, one miss, one hit. *)
let test_duplicate_waits_for_twin () =
  let policy =
    {
      Supervisor.default_policy with
      Supervisor.workers = 2;
      race = [ "po-watched" ];
    }
  in
  let reports, summary =
    Supervisor.run ~policy (inline_jobs [ true_qbf; true_qbf ])
  in
  Alcotest.(check bool) "answers" true
    (outcomes reports = [ (0, ST.True); (1, ST.True) ]);
  Alcotest.(check int) "dispatches" 1 (counter summary "dispatches");
  Alcotest.(check int) "cache hits" 1 (counter summary "cache_hits");
  Alcotest.(check int) "cache misses" 1 (counter summary "cache_misses")

(* A fresh empty directory for certificates. *)
let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Sys.mkdir d 0o700;
  d

let test_inline_certificates_checked () =
  (* one worker: each job's first attempt answers, so every certificate
     is named after attempt 1 *)
  let dir = temp_dir "test-serve-proofs" in
  let policy =
    {
      Supervisor.default_policy with
      Supervisor.workers = 1;
      proof_dir = Some dir;
    }
  in
  let reports, summary =
    Supervisor.run ~policy (inline_jobs [ true_qbf; false_qbf ])
  in
  Alcotest.(check bool) "answers" true
    (outcomes reports = [ (0, ST.True); (1, ST.False) ]);
  Alcotest.(check int) "both certificates checked" 2
    (counter summary "proofs_checked");
  List.iter
    (fun r ->
      match r.Supervisor.r_proof with
      | None -> Alcotest.fail "conclusive answer without a proof"
      | Some path ->
          Alcotest.(check string) "named after attempt 1"
            (Printf.sprintf "job%d-a1.qrp" r.Supervisor.r_id)
            (Filename.basename path))
    reports;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let test_supervisor_input_error () =
  let jobs =
    inline_jobs [ "p cnf garbage header"; false_qbf ]
  in
  let policy = { Supervisor.default_policy with Supervisor.workers = 2 } in
  let reports, summary = Supervisor.run ~policy jobs in
  let bad = List.hd reports in
  Alcotest.(check bool) "structured input error" true
    (bad.Supervisor.r_error <> None);
  Alcotest.check Util.outcome "bad job is unknown" ST.Unknown
    bad.Supervisor.r_outcome;
  Alcotest.(check bool) "input failures are never retried" true
    (bad.Supervisor.r_retries = 0 && bad.Supervisor.r_attempts = 0);
  Alcotest.(check bool) "input failure accounted" true
    (List.assoc "input" bad.Supervisor.r_failures = 1);
  (* the bad job must not poison its neighbour *)
  let good = List.nth reports 1 in
  Alcotest.check Util.outcome "good job still decided" ST.False
    good.Supervisor.r_outcome;
  Alcotest.(check int) "one error in the summary" 1
    summary.Supervisor.s_errors

let test_supervisor_faults_same_answers () =
  (* The robustness contract: with injected crashes/hangs/garbage the
     batch takes longer but decides the same answers. *)
  let texts = [ true_qbf; false_qbf; true_qbf; false_qbf ] in
  let clean, _ =
    Supervisor.run
      ~policy:{ Supervisor.default_policy with Supervisor.workers = 2 }
      (inline_jobs texts)
  in
  let faulty, summary =
    Supervisor.run
      ~policy:
        {
          Supervisor.default_policy with
          Supervisor.workers = 2;
          fault_p = 0.5;
          retries = 30;
          hang_s = 0.5;
          grace_s = 0.2;
          backoff_base_s = 0.01;
          backoff_max_s = 0.05;
          seed = 3;
        }
      (inline_jobs texts)
  in
  Alcotest.(check bool) "fault-injected answers identical" true
    (outcomes clean = outcomes faulty);
  Alcotest.(check int) "everything still decided" (List.length texts)
    summary.Supervisor.s_decided

let suite =
  [
    Alcotest.test_case "dispatch roundtrip" `Quick test_dispatch_roundtrip;
    Alcotest.test_case "answer roundtrip" `Quick test_answer_roundtrip;
    Alcotest.test_case "frames over a pipe" `Quick test_frame_over_pipe;
    Alcotest.test_case "truncated frame" `Quick test_truncated_frame;
    Alcotest.test_case "decoder split feed" `Quick test_decoder_split_feed;
    Alcotest.test_case "decoder garbage" `Quick test_decoder_garbage;
    Alcotest.test_case "canonical hash" `Quick test_hash_canonical;
    Alcotest.test_case "failure classes" `Quick test_failure_classes;
    Alcotest.test_case "supervised clean batch" `Quick
      test_supervisor_clean_batch;
    Alcotest.test_case "in-process unknown not shared" `Quick
      test_inline_unknown_not_shared;
    Alcotest.test_case "in-process certificates checked" `Quick
      test_inline_certificates_checked;
    Alcotest.test_case "input error accounting" `Quick
      test_supervisor_input_error;
    Alcotest.test_case "budget give-up counts as unknown" `Quick
      test_budget_give_up_unknown;
    Alcotest.test_case "duplicate waits for its twin" `Quick
      test_duplicate_waits_for_twin;
    Alcotest.test_case "fault injection keeps answers" `Quick
      test_supervisor_faults_same_answers;
  ]
