(** The four prenex-optimal prenexing strategies of Egly et al. ([12] in
    the paper): ∃↑∀↑, ∃↑∀↓, ∃↓∀↑ and ∃↓∀↓.

    [apply st f] returns a formula with the same matrix and a prenex
    (total-order) prefix that extends [f]'s partial order, preserves all
    quantifiers, and has as many alternations as [f]'s prefix level
    (prenex-optimality).  On formula (9) of the paper the four
    strategies reproduce the prefixes of eq. (10) exactly. *)

open Qbf_core

type direction = Up | Down

(** Per-quantifier shifting direction: [Up] places blocks as high
    (outermost) as possible, [Down] as low as possible. *)
type strategy = { ex : direction; fa : direction }

val e_up_a_up : strategy
val e_up_a_down : strategy
val e_down_a_up : strategy
val e_down_a_down : strategy

(** All four strategies with their conventional names, in the order of
    Table I of the paper. *)
val all : (string * strategy) list

val apply : strategy -> Formula.t -> Formula.t

(** [extends p p'] checks that [p'] preserves quantifiers and every
    ordered opposite-quantifier pair of [p] — the prenexing contract
    (same-quantifier orderings follow transitively); used by tests. *)
val extends : Prefix.t -> Prefix.t -> bool
