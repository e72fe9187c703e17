(* Clauses (and cubes) as sorted arrays of distinct literals.

   The same representation serves both disjunctions of literals (clauses,
   the elements of a CNF matrix) and conjunctions of literals (cubes, the
   "goods" of solution learning); only their logical reading differs. *)

type t = Lit.t array

let lits c = c

let of_list lits =
  let sorted = List.sort_uniq Lit.compare lits in
  Array.of_list sorted

let of_dimacs_list ints = of_list (List.map Lit.of_dimacs ints)
let to_list c = Array.to_list c
let size c = Array.length c
let is_empty c = Array.length c = 0

let mem l c =
  (* Binary search over the sorted literal array. *)
  let rec go lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      let d = Lit.compare c.(mid) l in
      if d = 0 then true else if d < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length c)

let mem_var v c = mem (Lit.of_var v) c || mem (Lit.negate (Lit.of_var v)) c
let exists p c = Array.exists p c
let for_all p c = Array.for_all p c
let fold f acc c = Array.fold_left f acc c
let iter f c = Array.iter f c
let filter p c = Array.of_list (List.filter p (Array.to_list c))

(* A clause is tautological if it contains a variable in both polarities.
   Sorted order places [2v] directly before [2v+1]. *)
let is_tautology c =
  let n = Array.length c in
  let rec go i =
    i + 1 < n
    && (Lit.var c.(i) = Lit.var c.(i + 1) || go (i + 1))
  in
  go 0

let equal (a : t) (b : t) =
  Array.length a = Array.length b
  &&
  let rec go i = i >= Array.length a || (Lit.equal a.(i) b.(i) && go (i + 1)) in
  go 0

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la && i >= lb then 0
    else if i >= la then -1
    else if i >= lb then 1
    else
      let d = Lit.compare a.(i) b.(i) in
      if d <> 0 then d else go (i + 1)
  in
  go 0

let vars c = List.map Lit.var (to_list c)

(* [resolve a b pivot] assumes [pivot] occurs positively or negatively in
   [a] and with the opposite sign in [b]; the resolvent drops both pivot
   literals and merges the rest. *)
let resolve a b pivot =
  let keep c = List.filter (fun l -> Lit.var l <> pivot) (to_list c) in
  of_list (keep a @ keep b)

let remove l c = filter (fun l' -> not (Lit.equal l l')) c

let pp_sep fmt () = Format.pp_print_string fmt " "

let pp fmt c =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list ~pp_sep Lit.pp)
    (to_list c)

let to_string c = Format.asprintf "%a" pp c
