(* NQDIMACS: a QDIMACS-like exchange format for NON-prenex QBFs.

     c <comment>
     p ncnf <nvars> <nclauses>
     t (e 1 (a 2 (e 3 4)) (a 5 (e 6 7)))
     1 -3 0
     ...

   The single `t` entry holds the quantifier forest as s-expressions
   (possibly spanning several lines, up to the first clause): each tree is
   `(e|a v1 v2 ... subtree ...)` with 1-based variables.  Unbound
   variables are implicitly outermost existentials, as in the paper.
   Clauses are DIMACS-style, 0-terminated.

   Failures carry a 1-based line/column position (see Syntax). *)

open Qbf_core

let fail_at = Syntax.fail_at

type pos = { pline : int; pcol : int }

type sexp = Atom of string * pos | List of sexp list * pos

(* Tokenize the tree text: parens and atoms, each with its position.
   [chunks] is a list of (lineno, start_col, text). *)
let tokenize chunks =
  let toks = ref [] in
  List.iter
    (fun (lineno, col0, s) ->
      let buf = Buffer.create 16 in
      let start = ref 0 in
      let flush i =
        if Buffer.length buf > 0 then (
          toks :=
            `Atom
              (Buffer.contents buf, { pline = lineno; pcol = col0 + !start })
            :: !toks;
          Buffer.clear buf);
        ignore i
      in
      String.iteri
        (fun i ch ->
          match ch with
          | '(' ->
              flush i;
              toks := `Open { pline = lineno; pcol = col0 + i } :: !toks
          | ')' ->
              flush i;
              toks := `Close { pline = lineno; pcol = col0 + i } :: !toks
          | ' ' | '\t' | '\n' | '\r' -> flush i
          | c ->
              if Buffer.length buf = 0 then start := i;
              Buffer.add_char buf c)
        s;
      flush (String.length s))
    chunks;
  List.rev !toks

(* Nesting beyond any legitimate quantifier tree: a hostile or corrupt
   "((((..." input must come back as a structured error, not blow the
   OCaml stack (the recursion below — and [tree_of_sexp] after it — is
   depth-bounded by this cap). *)
let max_tree_depth = 4096

let parse_sexps ~eof toks =
  let rec items ~depth acc = function
    | `Close _ :: rest -> (List.rev acc, rest)
    | `Open p :: rest ->
        if depth >= max_tree_depth then
          fail_at ~line:p.pline ~col:p.pcol
            "quantifier tree nested deeper than %d" max_tree_depth;
        let inner, rest = items ~depth:(depth + 1) [] rest in
        items ~depth (List (inner, p) :: acc) rest
    | `Atom (a, p) :: rest -> items ~depth (Atom (a, p) :: acc) rest
    | [] ->
        fail_at ~line:eof.pline ~col:eof.pcol
          "unbalanced '(' in quantifier tree"
  in
  let rec top acc = function
    | [] -> List.rev acc
    | `Open p :: rest ->
        let inner, rest = items ~depth:1 [] rest in
        top (List (inner, p) :: acc) rest
    | `Atom (a, p) :: rest -> top (Atom (a, p) :: acc) rest
    | `Close p :: _ ->
        fail_at ~line:p.pline ~col:p.pcol "unbalanced ')' in quantifier tree"
  in
  top [] toks

let rec tree_of_sexp nvars = function
  | List (Atom (q, qp) :: rest, _) ->
      let quant =
        match q with
        | "e" -> Quant.Exists
        | "a" -> Quant.Forall
        | _ -> fail_at ~line:qp.pline ~col:qp.pcol "unknown quantifier %S" q
      in
      let vars, children =
        List.fold_left
          (fun (vars, children) item ->
            match item with
            | Atom (a, p) -> (
                match int_of_string_opt a with
                | Some n when n >= 1 && n <= nvars ->
                    ((n - 1) :: vars, children)
                | Some n ->
                    fail_at ~line:p.pline ~col:p.pcol
                      "variable %d out of range" n
                | None ->
                    fail_at ~line:p.pline ~col:p.pcol
                      "unexpected atom %S in tree" a)
            | List _ as sub -> (vars, tree_of_sexp nvars sub :: children))
          ([], []) rest
      in
      Prefix.node quant (List.rev vars) (List.rev children)
  | List ([], p) -> fail_at ~line:p.pline ~col:p.pcol "empty tree node"
  | List (List (_, _) :: _, p) ->
      fail_at ~line:p.pline ~col:p.pcol
        "tree node must start with a quantifier"
  | Atom (a, p) ->
      fail_at ~line:p.pline ~col:p.pcol "expected a tree, got atom %S" a

let parse_string_exn s =
  let lines = String.split_on_char '\n' s in
  (* Keep original line numbers alongside the non-comment lines. *)
  let lines =
    List.mapi (fun i l -> (i + 1, l)) lines
    |> List.filter (fun (_, l) ->
           let l = String.trim l in
           l <> "" && l.[0] <> 'c')
  in
  match lines with
  | [] -> fail_at ~line:1 ~col:1 "empty input"
  | (hline, header) :: rest -> (
      match
        String.split_on_char ' ' (String.trim header)
        |> List.filter (fun w -> w <> "")
      with
      | [ "p"; "ncnf"; nv; _nc ] ->
          let nvars =
            match int_of_string_opt nv with
            | Some n when n >= 0 && n <= Syntax.max_declared_vars -> n
            | Some n when n > Syntax.max_declared_vars ->
                fail_at ~line:hline ~col:1
                  "header declares %d variables (limit %d)" n
                  Syntax.max_declared_vars
            | _ -> fail_at ~line:hline ~col:1 "bad variable count %S" nv
          in
          (* Everything from the `t` marker up to the first clause line is
             tree text; clause lines start with an integer. *)
          let rec split_tree acc = function
            | [] -> (List.rev acc, [])
            | (lineno, line) :: rest ->
                let w = String.trim line in
                if String.length w > 0 && (w.[0] = 't' || w.[0] = '(') then
                  let lead =
                    (* column of the first char of the trimmed text *)
                    let rec first i =
                      if i < String.length line && (line.[i] = ' ' || line.[i] = '\t')
                      then first (i + 1)
                      else i
                    in
                    first 0
                  in
                  let body, col0 =
                    if w.[0] = 't' then
                      (String.sub w 1 (String.length w - 1), lead + 2)
                    else (w, lead + 1)
                  in
                  split_tree ((lineno, col0, body) :: acc) rest
                else (List.rev acc, (lineno, line) :: rest)
          in
          let tree_lines, clause_lines = split_tree [] rest in
          let eof =
            match List.rev tree_lines with
            | (l, c, _) :: _ -> { pline = l; pcol = c }
            | [] -> { pline = hline; pcol = 1 }
          in
          let sexps = parse_sexps ~eof (tokenize tree_lines) in
          let forest = List.map (tree_of_sexp nvars) sexps in
          let prefix = Prefix.of_forest ~nvars forest in
          let last_line = ref hline in
          let ints =
            List.concat_map
              (fun (lineno, line) ->
                last_line := lineno;
                let col = ref 0 in
                String.split_on_char ' ' line
                |> List.filter_map (fun w ->
                       let c0 = !col + 1 in
                       col := !col + String.length w + 1;
                       let w = String.trim w in
                       if w = "" then None
                       else
                         match int_of_string_opt w with
                         | Some n -> Some (n, lineno, c0)
                         | None ->
                             fail_at ~line:lineno ~col:c0
                               "unexpected token %S in matrix" w))
              clause_lines
          in
          let rec clauses acc cur = function
            | (0, _, _) :: rest ->
                clauses (Clause.of_dimacs_list (List.rev cur) :: acc) [] rest
            | (n, lineno, c0) :: rest ->
                if abs n > nvars then
                  fail_at ~line:lineno ~col:c0 "literal %d out of range" n;
                clauses acc (n :: cur) rest
            | [] ->
                if cur <> [] then
                  fail_at ~line:!last_line ~col:1 "unterminated clause";
                List.rev acc
          in
          Formula.make prefix (clauses [] [] ints)
      | _ ->
          fail_at ~line:hline ~col:1
            "expected 'p ncnf <nvars> <nclauses>' header")

let parse s = Syntax.protect parse_string_exn s

let rec print_tree fmt (Prefix.Node (q, vars, children)) =
  Format.fprintf fmt "(%s" (Quant.symbol q);
  List.iter (fun v -> Format.fprintf fmt " %d" (v + 1)) vars;
  List.iter (fun c -> Format.fprintf fmt " %a" print_tree c) children;
  Format.fprintf fmt ")"

let print fmt formula =
  let prefix = Formula.prefix formula in
  let matrix = Formula.matrix formula in
  Format.fprintf fmt "p ncnf %d %d@\n" (Prefix.nvars prefix)
    (List.length matrix);
  Format.fprintf fmt "t";
  List.iter (fun r -> Format.fprintf fmt " %a" print_tree r) (Prefix.roots prefix);
  Format.fprintf fmt "@\n";
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
