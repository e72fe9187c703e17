(* QDIMACS reader/writer (prenex CNF).

   Format:
     c <comment>
     p cnf <nvars> <nclauses>
     e 1 2 0          quantifier lines, outermost first
     a 3 0
     ...
     1 -3 4 0         clauses, 0-terminated, may span lines

   Variables are 1-based externally and mapped to the dense 0-based
   variables of {!Qbf_core.Lit}.

   Failures carry a 1-based line/column position (see Syntax). *)

open Qbf_core

let fail_at = Syntax.fail_at

type token = Word of string | Num of int

type ptoken = { tok : token; tline : int; tcol : int }

(* Comment lines are dropped whole; everything else is split on
   whitespace, each token remembering its 1-based line/column. *)
let tokenize_lines lines =
  let toks = ref [] in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let t = String.trim line in
      if t = "" || t.[0] = 'c' then ()
      else begin
        let n = String.length line in
        let j = ref 0 in
        while !j < n do
          while
            !j < n
            && (match line.[!j] with ' ' | '\t' | '\r' -> true | _ -> false)
          do
            incr j
          done;
          if !j < n then begin
            let start = !j in
            while
              !j < n
              &&
              match line.[!j] with ' ' | '\t' | '\r' -> false | _ -> true
            do
              incr j
            done;
            let w = String.sub line start (!j - start) in
            let tok =
              match int_of_string_opt w with Some n -> Num n | None -> Word w
            in
            toks := { tok; tline = lineno; tcol = start + 1 } :: !toks
          end
        done
      end)
    lines;
  List.rev !toks

(* Position just past the final token, for unexpected-end-of-input
   diagnostics. *)
let eof_pos toks =
  match List.rev toks with
  | [] -> (1, 1)
  | last :: _ -> (last.tline, last.tcol)

let parse_tokens toks =
  let eline, ecol = eof_pos toks in
  let rec skip_to_header = function
    | { tok = Word "p"; tline; tcol }
      :: { tok = Word "cnf"; _ }
      :: { tok = Num nvars; _ }
      :: { tok = Num nclauses; _ }
      :: rest ->
        if nvars < 0 then
          fail_at ~line:tline ~col:tcol "negative variable count";
        if nvars > Syntax.max_declared_vars then
          fail_at ~line:tline ~col:tcol
            "header declares %d variables (limit %d)" nvars
            Syntax.max_declared_vars;
        (nvars, nclauses, rest)
    | { tok = Word "p"; tline; tcol } :: _ ->
        fail_at ~line:tline ~col:tcol
          "malformed header (expected 'p cnf <nvars> <nclauses>')"
    | [] -> fail_at ~line:eline ~col:ecol "missing 'p cnf' header"
    | _ :: rest -> skip_to_header rest
  in
  let nvars, _declared_clauses, rest = skip_to_header toks in
  (* Quantifier lines: sequences introduced by 'e'/'a', 0-terminated. *)
  let rec quant_blocks acc = function
    | { tok = Word w; _ } :: rest when w = "e" || w = "a" ->
        let q = if w = "e" then Quant.Exists else Quant.Forall in
        let rec vars acc_vars = function
          | { tok = Num 0; _ } :: rest -> (List.rev acc_vars, rest)
          | { tok = Num n; _ } :: rest when n > 0 && n <= nvars ->
              vars ((n - 1) :: acc_vars) rest
          | { tok = Num n; tline; tcol } :: _ ->
              fail_at ~line:tline ~col:tcol
                "bad variable %d in quantifier block" n
          | { tok = Word w; tline; tcol } :: _ ->
              fail_at ~line:tline ~col:tcol
                "unexpected word %S in quantifier block" w
          | [] ->
              fail_at ~line:eline ~col:ecol "unterminated quantifier block"
        in
        let vs, rest = vars [] rest in
        quant_blocks ((q, vs) :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let blocks, rest = quant_blocks [] rest in
  (* Clauses: 0-terminated integer runs. *)
  let rec clauses acc cur = function
    | { tok = Num 0; _ } :: rest ->
        clauses (Clause.of_dimacs_list (List.rev cur) :: acc) [] rest
    | { tok = Num n; tline; tcol } :: rest ->
        if abs n > nvars then
          fail_at ~line:tline ~col:tcol "literal %d out of range" n;
        clauses acc (n :: cur) rest
    | { tok = Word w; tline; tcol } :: _ ->
        fail_at ~line:tline ~col:tcol "unexpected word %S in matrix" w
    | [] ->
        if cur <> [] then fail_at ~line:eline ~col:ecol "unterminated clause";
        List.rev acc
  in
  let matrix = clauses [] [] rest in
  let prefix = Prefix.of_blocks ~nvars blocks in
  Formula.make prefix matrix

let parse s =
  Syntax.protect
    (fun s -> parse_tokens (tokenize_lines (String.split_on_char '\n' s)))
    s

let print_blocks fmt blocks =
  List.iter
    (fun (q, vars) ->
      if vars <> [] then (
        Format.fprintf fmt "%s" (Quant.symbol q);
        List.iter (fun v -> Format.fprintf fmt " %d" (v + 1)) vars;
        Format.fprintf fmt " 0@\n"))
    blocks

let print fmt formula =
  let prefix = Formula.prefix formula in
  if not (Prefix.is_prenex prefix) then
    invalid_arg "Qdimacs.print: formula is not in prenex form";
  let matrix = Formula.matrix formula in
  Format.fprintf fmt "p cnf %d %d@\n" (Prefix.nvars prefix)
    (List.length matrix);
  print_blocks fmt (Prefix.blocks_outermost_first prefix);
  List.iter
    (fun c ->
      Clause.iter (fun l -> Format.fprintf fmt "%d " (Lit.to_dimacs l)) c;
      Format.fprintf fmt "0@\n")
    matrix

let to_string formula = Format.asprintf "%a" print formula

let write_file path formula =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let fmt = Format.formatter_of_out_channel oc in
      print fmt formula;
      Format.pp_print_flush fmt ())
