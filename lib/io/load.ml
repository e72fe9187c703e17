(* The one loader: read a file or take a text, read it in place with
   the one grammar of both formats (load.mli describes it), and report
   every failure as one structured error. *)

open Qbf_core

type error =
  | Io of { file : string; msg : string }
  | Parse of { file : string; line : int; col : int; msg : string }
  | Invalid of { file : string; msg : string }

let error_to_string = function
  | Io { file; msg } | Invalid { file; msg } -> Printf.sprintf "%s: %s" file msg
  | Parse { file; line; col; msg } ->
      Printf.sprintf "%s:%d:%d: %s" file line col msg

(* A header declaring more variables than this is corrupt or hostile:
   the loader would otherwise allocate per-variable structures for a
   count that no real instance reaches, turning a bad byte into an
   out-of-memory crash.  (The largest published QBF benchmarks are in
   the low millions of variables.) *)
let max_declared_vars = 16_777_215

(* Nesting beyond any legitimate quantifier tree: a hostile or corrupt
   "((((..." input must come back as a structured error, not blow the
   OCaml stack of the recursive descent in [forest]. *)
let max_tree_depth = 4096

exception Fail of int * int * string

(* A cursor reads the text in place.  [next] finds the next token and
   leaves its span and 1-based position in the cursor, so a token is
   copied only to read it as an integer or for a diagnostic. *)
type cursor = {
  text : string;
  mutable pos : int; (* next byte to read *)
  mutable line : int; (* line of [pos] *)
  mutable bol : int; (* offset of that line's first byte *)
  mutable fresh : bool; (* nothing but blanks read on this line yet *)
  mutable start : int; (* the last token's bytes, [start, stop) *)
  mutable stop : int;
  mutable tline : int; (* the last token's position (1:1 before any) *)
  mutable tcol : int;
}

let fail_at line col fmt =
  Format.kasprintf (fun msg -> raise (Fail (line, col, msg))) fmt

let fail c fmt = fail_at c.tline c.tcol fmt

(* Move to the next token's first byte, across blanks (the bytes
   [String.trim] strips), line ends and comment lines: a line whose
   first non-blank byte is 'c'. *)
let rec skip c =
  if c.pos < String.length c.text then
    match c.text.[c.pos] with
    | ' ' | '\t' | '\r' | '\012' ->
        c.pos <- c.pos + 1;
        skip c
    | '\n' ->
        c.pos <- c.pos + 1;
        c.line <- c.line + 1;
        c.bol <- c.pos;
        c.fresh <- true;
        skip c
    | 'c' when c.fresh ->
        c.pos <-
          (match String.index_from_opt c.text c.pos '\n' with
          | Some j -> j
          | None -> String.length c.text);
        skip c
    | _ -> ()

let ends_token ~tree = function
  | ' ' | '\t' | '\r' | '\012' | '\n' -> true
  | '(' | ')' -> tree
  | _ -> false

(* Read the next token; [false] at the end of the text, which keeps the
   last token for diagnostics.  In a quantifier tree ([tree]) each
   parenthesis is a token of its own. *)
let next ?(tree = false) c =
  skip c;
  let n = String.length c.text in
  c.pos < n
  &&
  let i = c.pos in
  let j = ref (i + 1) in
  if not (ends_token ~tree c.text.[i]) then
    while !j < n && not (ends_token ~tree c.text.[!j]) do
      incr j
    done;
  c.start <- i;
  c.stop <- !j;
  c.pos <- !j;
  c.tline <- c.line;
  c.tcol <- i - c.bol + 1;
  c.fresh <- false;
  true

(* Un-read the last token, which the next [next] returns again. *)
let back c = c.pos <- c.start

let word c = String.sub c.text c.start (c.stop - c.start)

let is c w =
  c.stop - c.start = String.length w && String.equal (word c) w

(* In a tree, the token is the parenthesis [p]. *)
let paren c p = c.text.[c.start] = p

(* The byte under the cursor, not yet read, is [ch]. *)
let at c ch = c.pos < String.length c.text && c.text.[c.pos] = ch

let int c = int_of_string_opt (word c)

(* [p cnf|ncnf <nvars> <nclauses>], after whatever text precedes the
   [p] token; after its second word the header may span lines (a line
   starting with [cnf] is a comment), and the clause count must be an
   integer but is not used.  [true] selects the quantifier tree. *)
let header c =
  let rec find () =
    if not (next c) then fail c "missing 'p cnf' header"
    else if not (is c "p") then find ()
  in
  find ();
  let line = c.tline and col = c.tcol in
  let malformed () =
    fail_at line col "malformed header (expected 'p cnf <nvars> <nclauses>')"
  in
  let tree =
    if not (next c) then malformed ()
    else if is c "cnf" then false
    else if is c "ncnf" then true
    else malformed ()
  in
  let count () =
    match if next c then int c else None with
    | Some n -> n
    | None -> malformed ()
  in
  let nvars = count () in
  ignore (count () : int);
  if nvars < 0 then fail_at line col "negative variable count";
  if nvars > max_declared_vars then
    fail_at line col "header declares %d variables (limit %d)" nvars
      max_declared_vars;
  (tree, nvars)

(* QDIMACS quantifier lines, outermost first: [e|a v1 v2 ... 0].  The
   first token that opens no block is left for the matrix. *)
let blocks c ~nvars =
  let rec vars vs =
    if not (next c) then fail c "unterminated quantifier block";
    match int c with
    | Some 0 -> List.rev vs
    | Some n when n > 0 && n <= nvars -> vars ((n - 1) :: vs)
    | Some n -> fail c "bad variable %d in quantifier block" n
    | None -> fail c "unexpected word %S in quantifier block" (word c)
  in
  let rec go acc =
    if not (next c) then List.rev acc
    else if is c "e" then go ((Quant.Exists, vars []) :: acc)
    else if is c "a" then go ((Quant.Forall, vars []) :: acc)
    else (
      back c;
      List.rev acc)
  in
  go []

(* The next token of an NQDIMACS quantifier tree, which runs over the
   lines that start with 't' (dropped) or '('.  [false] where it ends,
   leaving the line that ends it for the matrix. *)
let rec tree_next c =
  skip c;
  if not c.fresh then next ~tree:true c
  else if at c 't' then (
    c.pos <- c.pos + 1;
    c.fresh <- false;
    tree_next c)
  else at c '(' && next ~tree:true c

(* The quantifier forest: trees [(e|a v1 ... subtree ...)], read by
   recursive descent from the first line after the header. *)
let forest c ~nvars =
  let unbalanced () = fail c "unbalanced '(' in quantifier tree" in
  (* after a node's '(', at nesting [depth] *)
  let rec node depth =
    if not (tree_next c) then unbalanced ();
    let q =
      if is c "e" then Quant.Exists
      else if is c "a" then Quant.Forall
      else if paren c ')' then fail c "empty tree node"
      else if paren c '(' then fail c "tree node must start with a quantifier"
      else fail c "unknown quantifier %S" (word c)
    in
    let rec items vars kids =
      if not (tree_next c) then unbalanced ()
      else if paren c ')' then Prefix.node q (List.rev vars) (List.rev kids)
      else if paren c '(' then (
        if depth >= max_tree_depth then
          fail c "quantifier tree nested deeper than %d" max_tree_depth;
        items vars (node (depth + 1) :: kids))
      else
        match int c with
        | Some n when n >= 1 && n <= nvars -> items ((n - 1) :: vars) kids
        | Some n -> fail c "variable %d out of range" n
        | None -> fail c "unexpected atom %S in tree" (word c)
    in
    items [] []
  in
  let rec roots acc =
    if not (tree_next c) then List.rev acc
    else if paren c '(' then roots (node 1 :: acc)
    else if paren c ')' then fail c "unbalanced ')' in quantifier tree"
    else fail c "expected a tree, got atom %S" (word c)
  in
  skip c;
  if c.fresh then roots [] else []

(* DIMACS clauses, each ended by 0, to the end of the text.  A clause's
   literals are kept in reverse: [Clause] sorts them. *)
let matrix c ~nvars =
  let rec clauses acc lits =
    if not (next c) then (
      if lits <> [] then fail c "unterminated clause";
      List.rev acc)
    else
      match int c with
      | Some 0 -> clauses (Clause.of_dimacs_list lits :: acc) []
      | Some n ->
          if n > nvars || n < -nvars then fail c "literal %d out of range" n;
          clauses acc (n :: lits)
      | None -> fail c "unexpected word %S in matrix" (word c)
  in
  clauses [] []

let read text =
  let c =
    { text; pos = 0; line = 1; bol = 0; fresh = true; start = 0; stop = 0;
      tline = 1; tcol = 1 }
  in
  let tree, nvars = header c in
  (* the prefix is built after the matrix is read, so a syntax error
     anywhere is reported before a prefix that [Prefix] rejects *)
  let prefix =
    if tree then
      let roots = forest c ~nvars in
      fun () -> Prefix.of_forest ~nvars roots
    else
      let b = blocks c ~nvars in
      fun () -> Prefix.of_blocks ~nvars b
  in
  let m = matrix c ~nvars in
  Formula.make (prefix ()) m

let of_string ?(file = "<string>") text =
  match read text with
  | f -> Ok f
  | exception Fail (line, col, msg) -> Error (Parse { file; line; col; msg })
  | exception Prefix.Ill_formed msg -> Error (Invalid { file; msg })
  | exception Stack_overflow ->
      (* adversarial input must come back structured, never as a blown
         stack escaping the loader *)
      Error (Invalid { file; msg = "input nested too deeply" })

(* Read the whole file once, to end of file, so a pipe or a terminal
   ([/dev/stdin], a process substitution) reads like a regular file;
   every failure mode (missing file, directory, permission) becomes an
   [Io] error. *)
let of_file path =
  match
    if Sys.file_exists path && Sys.is_directory path then
      raise (Sys_error (path ^ ": is a directory"));
    In_channel.with_open_bin path In_channel.input_all
  with
  | text -> of_string ~file:path text
  | exception Sys_error msg ->
      (* Sys_error messages already lead with the path; drop it so the
         rendered diagnostic doesn't repeat it. *)
      let p = path ^ ": " in
      let lp = String.length p in
      let msg =
        if String.length msg > lp && String.sub msg 0 lp = p then
          String.sub msg lp (String.length msg - lp)
        else msg
      in
      Error (Io { file = path; msg })
