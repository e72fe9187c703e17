(** Literals over dense integer variables.

    A variable is an integer [v >= 0].  The positive literal of [v] is the
    integer [2*v], the negative literal is [2*v + 1], so literals of a
    formula with [n] variables form the dense range [0 .. 2n-1] and can
    index arrays directly. *)

type var = int
type t = private int

(** Positive literal of a variable. *)
val of_var : var -> t

(** [make v sign] is the positive literal of [v] when [sign] is [true],
    its negation otherwise. *)
val make : var -> bool -> t

val var : t -> var
val negate : t -> t
val is_pos : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** DIMACS integer of a literal: variable [v] prints as [v+1], negated
    literals as negative numbers. *)
val to_dimacs : t -> int

(** Inverse of {!to_dimacs}.  Raises [Invalid_argument] on [0]. *)
val of_dimacs : int -> t

val to_string : t -> string
val pp : Format.formatter -> t -> unit
