(** The one loader of QBF instances: [qube], [qubed] (through
    [Qbf_run.Run]) and the independent checker behind [qcheck_proof]
    read files and texts through it, so they accept the same inputs and
    print the same diagnostics.

    One grammar reads both formats; the header's second word picks the
    prefix:
    {v
    c comment                     c comment
    p cnf <nvars> <nclauses>      p ncnf <nvars> <nclauses>
    e 1 2 0                       t (e 1 2 (a 3 (e 4)))
    a 3 0                         1 -3 4 0
    1 -3 4 0
    v}
    QDIMACS (prenex) gives quantifier lines, outermost first, each ended
    by [0].  NQDIMACS (non-prenex) gives the quantifier forest as
    s-expressions [(e|a v1 ... subtree ...)] on the lines after the
    header that start with [t] (dropped) or [(].  Variables are 1-based;
    unbound ones are outermost existentials.  Clauses are 0-terminated
    and may span lines.

    A token is a run of bytes between blanks (space, tab, CR, form feed)
    and line ends; inside a tree each parenthesis is a token too.  A
    line that is blank or whose first non-blank byte is [c] is a
    comment.  Text before the [p] token is skipped; after its second word
    the header may span lines, and its clause count must be an integer
    but is not used.  Integers read as [int_of_string_opt] reads them. *)

(** Everything between "here is a file" and "here is a formula" that
    can fail. *)
type error =
  | Io of { file : string; msg : string }
      (** the file could not be opened or read *)
  | Parse of { file : string; line : int; col : int; msg : string }
      (** malformed QDIMACS/NQDIMACS input; [line]/[col] are 1-based *)
  | Invalid of { file : string; msg : string }
      (** the input parsed but is not a well-formed QBF (e.g. a doubly
          bound variable) *)

val error_to_string : error -> string
(** One line, [file:line:col: message] ([file: message] without a
    position). *)

(** Largest variable count a header may declare; beyond it the input is
    rejected as corrupt rather than allocating per-variable structures
    for it (a one-line memory bomb otherwise). *)
val max_declared_vars : int

val of_string :
  ?file:string -> string -> (Qbf_core.Formula.t, error) result
(** Parse a text; [file] (default ["<string>"]) only labels
    diagnostics. *)

val of_file : string -> (Qbf_core.Formula.t, error) result
(** Read a whole file and parse it as {!of_string} does.  A missing or
    unreadable file or a directory is an [Io] error; nothing escapes as
    an exception. *)
