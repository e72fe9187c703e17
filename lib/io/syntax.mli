(** What the QDIMACS and NQDIMACS grammars share: the positioned error
    they return, the variable-count limit, and the one place where a
    grammar's failure becomes an [Error]. *)

type error = { line : int; col : int; msg : string }
(** [line]/[col] are 1-based; [line = 0] means the position is unknown
    (a whole-formula validation failure). *)

(** Largest variable count a header may declare; beyond it the input is
    rejected as corrupt rather than allocating per-variable structures
    for it (a one-line memory bomb otherwise). *)
val max_declared_vars : int

val fail_at :
  line:int -> col:int -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Abort the grammar running under {!protect} with a positioned error. *)

val protect : (string -> 'a) -> string -> ('a, error) result
(** Run a grammar on a text.  A {!fail_at}, a prefix that
    [Qbf_core.Prefix] rejects, and a stack overflow all come back as
    [Error]; nothing escapes. *)
