(** Partial-order prefixes represented as quantifier trees.

    A prefix is a forest of quantifier nodes: each node binds a block of
    same-quantifier variables, and its children describe the quantifier
    structure of its scope.  The paper's partial order [z ≺ z'] (an
    opposite-quantifier variable [z'] lies, directly or through an
    alternation, in the scope of [z]) is answered in O(1) through DFS
    discovery/finish timestamps, eq. (13) of the paper:
    [z ≺ z'] iff [d z < d z' <= f z].

    Construction normalises the forest (empty blocks spliced out,
    same-quantifier chains merged), after which the computed order is
    exact on every opposite-quantifier pair — the only pairs the solver's
    unit, reduction and contradiction rules query — and may conservatively
    over-approximate on same-quantifier ancestor pairs, which affects only
    branching availability.  Prenex prefixes are the single-chain special
    case, for which the order is total across alternations. *)

type var = Lit.var

(** A quantifier node: kind, the block of variables it binds, subtrees. *)
type tree = Node of Quant.t * var list * tree list

type t

val node : Quant.t -> var list -> tree list -> tree

exception Ill_formed of string

(** [of_forest ~nvars roots] builds a prefix over variables
    [0 .. nvars-1].  Every variable must be bound at most once; unbound
    variables are wrapped in an outermost existential block (Section II
    of the paper).  Raises {!Ill_formed} on out-of-range or doubly bound
    variables. *)
val of_forest : nvars:int -> tree list -> t

(** [of_blocks ~nvars blocks] builds a prenex (chain) prefix, outermost
    block first. *)
val of_blocks : nvars:int -> (Quant.t * var list) list -> t

val nvars : t -> int

(** The normalised forest. *)
val roots : t -> tree list

val quant : t -> var -> Quant.t
val is_exists : t -> var -> bool
val is_forall : t -> var -> bool

(** Prefix level of a variable: the length of the longest alternation
    chain ending at it (top variables have level 1). *)
val level : t -> var -> int

(** DFS discovery timestamp [d z]. *)
val discovery : t -> var -> int

(** DFS finish timestamp [f z]. *)
val finish : t -> var -> int

(** The partial order of the paper: [precedes p z z'] iff [z ≺ z']. *)
val precedes : t -> var -> var -> bool

(** {!precedes} on the literals' variables. *)
val lit_precedes : t -> Lit.t -> Lit.t -> bool

(** [comparable p z z'] holds when the two variables lie on a common
    root path of the forest (same block or ancestor-related blocks).
    Every clause of a matrix obtained from an actual non-prenex QBF has
    pairwise-comparable variables; see {!Formula.path_consistent}. *)
val comparable : t -> var -> var -> bool

(** {1 Blocks}

    After normalisation each tree node is a block; ids are DFS-preorder
    numbers. *)

val block_of : t -> var -> int
val num_blocks : t -> int
val block_quant : t -> int -> Quant.t
val block_parent : t -> int -> int

val block_children : t -> int -> int array
val block_vars : t -> int -> var array
val block_level : t -> int -> int

(** Prefix level of the whole QBF: max over variables (0 if no blocks). *)
val prefix_level : t -> int

(** True when the normalised forest is a single chain, i.e. the prefix is
    in prenex form. *)
val is_prenex : t -> bool

(** All blocks as [(quant, vars)] pairs in DFS preorder; for a prenex
    prefix this is the usual outermost-first block list. *)
val blocks_outermost_first : t -> (Quant.t * var list) list

(** Fold over block ids in DFS preorder. *)
val fold_blocks : ('a -> int -> 'a) -> 'a -> t -> 'a

val pp : Format.formatter -> t -> unit
val to_string : t -> string
