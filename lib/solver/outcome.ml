(* The one rendering of {!Solver_types.outcome}.

   qube's result line, qubed's answer frames and per-job reports, and
   the bench tables all print outcomes; before this module each kept its
   own "true"/"false"/"?" mapping.  Every renderer and parser goes
   through here so the wire formats cannot drift apart. *)

open Solver_types

let to_string = function
  | True -> "true"
  | False -> "false"
  | Unknown -> "unknown"

(* The DIMACS-style result character of qube's "s cnf" line. *)
let to_char = function True -> '1' | False -> '0' | Unknown -> '?'

let of_string = function
  | "true" -> Some True
  | "false" -> Some False
  | "unknown" -> Some Unknown
  | _ -> None

let pp fmt o = Format.pp_print_string fmt (to_string o)
