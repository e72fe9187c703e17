(* Structured failures of the run harness: everything that can go wrong
   between "here is a file" and "here is a formula" is one of these,
   rendered as a single `file:line:col: message` diagnostic.  Solver-side
   failures (budgets, interrupts) are NOT errors — they are reported as
   [Unknown] outcomes with partial statistics (see Run). *)

type t =
  | Io of { file : string; msg : string }
      (* the file could not be opened or read *)
  | Parse of { file : string; line : int; col : int; msg : string }
      (* malformed QDIMACS/NQDIMACS input; line/col are 1-based *)
  | Invalid of { file : string; msg : string }
      (* the input parsed but is not a well-formed QBF (e.g. a clause
         literal outside the prefix, a doubly bound variable) *)

let to_string = function
  | Io { file; msg } -> Printf.sprintf "%s: %s" file msg
  | Parse { file; line; col; msg } ->
      if line > 0 then Printf.sprintf "%s:%d:%d: %s" file line col msg
      else Printf.sprintf "%s: %s" file msg
  | Invalid { file; msg } -> Printf.sprintf "%s: %s" file msg

(* All input errors share one exit code, distinct from the solver's
   10/20/30 outcome codes. *)
let exit_code (_ : t) = 2

(* Positioned parser errors with an unknown position (line 0) are
   whole-formula validation failures, not syntax errors. *)
let of_qdimacs ~file (e : Qbf_io.Qdimacs.error) =
  if e.line > 0 then Parse { file; line = e.line; col = e.col; msg = e.msg }
  else Invalid { file; msg = e.msg }

let of_nqdimacs ~file (e : Qbf_io.Nqdimacs.error) =
  if e.line > 0 then Parse { file; line = e.line; col = e.col; msg = e.msg }
  else Invalid { file; msg = e.msg }
