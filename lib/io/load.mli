(** The one loader of QBF instances: [qube], [qubed] (through
    [Qbf_run.Run]) and the independent checker behind [qcheck_proof]
    read files and texts through it, so they accept the same inputs and
    print the same diagnostics. *)

type format = Qdimacs | Nqdimacs

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

val sniff : string -> format
(** Decide from the first line that is neither blank nor a comment: a
    [p ncnf] header means NQDIMACS, anything else QDIMACS. *)

val of_string :
  ?file:string -> ?format:format -> string -> (Qbf_core.Formula.t, error) result
(** Parse a text, sniffing its format unless given; [file] (default
    ["<string>"]) only labels diagnostics. *)

val of_file : ?format:format -> string -> (Qbf_core.Formula.t, error) result
(** Read a whole file and parse it as {!of_string} does.  A missing or
    unreadable file or a directory is an [Io] error; nothing escapes as
    an exception. *)
