(* Positioned failures shared by the two grammars.  A grammar raises
   [Fail] from any depth; [protect] is the only handler, so neither
   reader's interface exports an exception. *)

type error = { line : int; col : int; msg : string }

exception Fail of error

(* A header declaring more variables than this is corrupt or hostile:
   the loader would otherwise allocate per-variable structures for a
   count that no real instance reaches, turning a bad byte into an
   out-of-memory crash.  (The largest published QBF benchmarks are in
   the low millions of variables.) *)
let max_declared_vars = 16_777_215

let fail_at ~line ~col fmt =
  Format.kasprintf (fun msg -> raise (Fail { line; col; msg })) fmt

let protect parse text =
  match parse text with
  | f -> Ok f
  | exception Fail e -> Error e
  | exception Qbf_core.Prefix.Ill_formed msg -> Error { line = 0; col = 0; msg }
  | exception Stack_overflow ->
      (* adversarial input must come back structured, never as a blown
         stack escaping the loader *)
      Error { line = 0; col = 0; msg = "input nested too deeply" }
