(* A QBF as in Section II of the paper: a pair of a (partial-order) prefix
   and a CNF matrix.  Clauses are kept as given; [simplify] applies the
   cheap, always-sound rewrites (tautology removal, duplicate removal,
   universal reduction by Lemma 3). *)

type t = { prefix : Prefix.t; matrix : Clause.t list }

let make prefix matrix =
  let nvars = Prefix.nvars prefix in
  List.iter
    (fun c ->
      Clause.iter
        (fun l ->
          let v = Lit.var l in
          if v < 0 || v >= nvars then
            raise
              (Prefix.Ill_formed
                 (Printf.sprintf "clause literal %s out of range"
                    (Lit.to_string l))))
        c)
    matrix;
  { prefix; matrix }

let prefix t = t.prefix
let matrix t = t.matrix
let nvars t = Prefix.nvars t.prefix
let num_clauses t = List.length t.matrix

(* Lemma 3: a universal literal [u] can be removed from a clause when no
   existential literal [e] of the clause satisfies [|u| ≺ |e|]. *)
let universal_reduce_clause prefix c =
  let is_blocked u =
    Clause.exists
      (fun e ->
        Prefix.is_exists prefix (Lit.var e)
        && Prefix.lit_precedes prefix u e)
      c
  in
  Clause.filter
    (fun l -> Prefix.is_exists prefix (Lit.var l) || is_blocked l)
    c

(* A clause is contradictory (Lemma 4 via Lemma 3) when its universal
   reduction is empty, i.e. it contains no existential literal. *)
let is_contradictory_clause prefix c =
  not (Clause.exists (fun l -> Prefix.is_exists prefix (Lit.var l)) c)

(* The pair ⟨prefix, matrix⟩ denotes an actual non-prenex QBF only when
   every clause's variables lie on a single root path of the quantifier
   forest (a clause sits at one syntactic position, in the scope of all
   and only the quantifiers on its path).  Arbitrary pairs violating this
   have no well-defined (order-independent) game value.  Learned
   constraints may span branches — that is the point of Section V of the
   paper — but input matrices should satisfy this predicate. *)
let path_consistent t =
  let p = t.prefix in
  let clause_ok c =
    let vars = Clause.vars c in
    let rec pairs = function
      | [] -> true
      | v :: rest ->
          List.for_all (fun v' -> Prefix.comparable p v v') rest && pairs rest
    in
    pairs vars
  in
  List.for_all clause_ok t.matrix

let simplify t =
  let matrix =
    t.matrix
    |> List.filter (fun c -> not (Clause.is_tautology c))
    |> List.map (universal_reduce_clause t.prefix)
    |> List.sort_uniq Clause.compare
  in
  { t with matrix }

let pp fmt t =
  Format.fprintf fmt "@[<v>prefix: %a@,matrix:@,  @[<v>%a@]@]" Prefix.pp
    t.prefix
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_cut fmt ())
       Clause.pp)
    t.matrix

let to_string t = Format.asprintf "%a" pp t
