(* Literals encoded as non-negative integers, minisat style:
   variable [v] yields the positive literal [2*v] and the negative literal
   [2*v + 1].  Variables are dense integers starting at 0. *)

type var = int
type t = int

let of_var v =
  assert (v >= 0);
  2 * v

let make v sign = if sign then 2 * v else (2 * v) + 1
let var l = l lsr 1
let negate l = l lxor 1
let is_pos l = l land 1 = 0
let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Int.compare a b
let hash (l : t) = l

(* External (DIMACS-like) encoding: variable [v] is printed as [v + 1],
   negative literals with a minus sign.  0 is not a literal. *)

let to_dimacs l =
  let v = var l + 1 in
  if is_pos l then v else -v

let of_dimacs n =
  if n = 0 then invalid_arg "Lit.of_dimacs: 0 is not a literal";
  let v = abs n - 1 in
  make v (n > 0)

let to_string l = string_of_int (to_dimacs l)
let pp fmt l = Format.pp_print_int fmt (to_dimacs l)
