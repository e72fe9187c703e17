(* Partial-order prefixes represented as quantifier trees.

   A prefix is a forest of quantifier nodes; each node binds a block of
   variables of one quantifier kind and its children are the quantifier
   structure of its scope.  After normalisation (merging every child whose
   quantifier equals its parent's into the parent), quantifiers alternate
   along every edge, and the order [z < z'] of the paper holds exactly for
   the (strict ancestor block, descendant block) pairs of the forest.

   The order test uses the DFS discovery/finish timestamps d(z)/f(z) of
   Section VI of the paper:  z < z'  iff  d(z) < d(z') <= f(z)
   (a consequence of the parenthesis theorem).  Timestamps are computed
   once at construction; the test is O(1). *)

type var = Lit.var

type tree = Node of Quant.t * var list * tree list

type t = {
  nvars : int;
  roots : tree list; (* normalized forest *)
  quant : Quant.t array; (* per variable *)
  d : int array; (* DFS discovery timestamp, per variable *)
  f : int array; (* DFS finish timestamp, per variable *)
  block_of : int array; (* block id, per variable *)
  nblocks : int;
  block_quant : Quant.t array;
  block_parent : int array; (* parent block id, -1 at roots *)
  block_children : int array array;
  block_vars : var array array;
  block_level : int array; (* alternation depth, roots have level 1 *)
}

let node q vars children = Node (q, vars, children)

(* Normalisation:
   (1) drop nodes binding no variable, splicing their children up;
   (2) merge a same-quantifier ONLY child into its parent (chain
       compression): this is exact, since no alternation separates them.
   Same-quantifier children are NOT merged when the parent branches:
   merging them would enlarge their interval to the parent's and create
   spurious orderings against opposite-quantifier siblings, weakening
   universal reduction.  Keeping them as separate nodes (each node gets a
   fresh timestamp below) only over-approximates the order on
   same-quantifier ancestor pairs, which no solver rule but branching
   availability ever queries; the order on opposite-quantifier pairs is
   exact, matching the paper's definition. *)
let rec drop_empty (Node (q, vars, children)) =
  let children = List.concat_map drop_empty_child children in
  if vars = [] then children else [ Node (q, vars, children) ]

and drop_empty_child c = drop_empty c

let rec merge_chains (Node (q, vars, children)) =
  let children = List.map merge_chains children in
  match children with
  | [ Node (cq, cvars, cchildren) ] when Quant.equal cq q ->
      Node (q, vars @ cvars, cchildren)
  | _ -> Node (q, vars, children)

let normalize_forest roots =
  let roots = List.concat_map drop_empty roots in
  List.map merge_chains roots

let rec tree_vars (Node (_, vars, children)) =
  vars @ List.concat_map tree_vars children

exception Ill_formed of string

let of_forest ~nvars roots =
  if nvars < 0 then raise (Ill_formed "negative variable count");
  let seen = Array.make (max nvars 1) false in
  let check_var v =
    if v < 0 || v >= nvars then
      raise (Ill_formed (Printf.sprintf "variable %d out of range" v));
    if seen.(v) then
      raise (Ill_formed (Printf.sprintf "variable %d bound twice" v));
    seen.(v) <- true
  in
  List.iter (fun r -> List.iter check_var (tree_vars r)) roots;
  (* Free variables are treated as outermost existentials (Section II):
     wrap the forest in an existential root binding them. *)
  let free = ref [] in
  for v = nvars - 1 downto 0 do
    if not seen.(v) then free := v :: !free
  done;
  let roots =
    if !free = [] then roots else [ Node (Quant.Exists, !free, roots) ]
  in
  let roots = normalize_forest roots in
  let quant = Array.make (max nvars 1) Quant.Exists in
  let d = Array.make (max nvars 1) 0 in
  let f = Array.make (max nvars 1) 0 in
  let block_of = Array.make (max nvars 1) (-1) in
  let blocks_quant = ref [] in
  let blocks_parent = ref [] in
  let blocks_vars = ref [] in
  let blocks_level = ref [] in
  let blocks_children = ref [] in
  let nblocks = ref 0 in
  let time = ref 0 in
  (* DFS assigning one fresh timestamp per block on entry (quantifiers
     alternate along edges after normalisation, so the paper's "increment
     when the quantifier changes" rule amounts to incrementing at every
     node) and the subtree-closing time on exit. *)
  let rec walk parent level (Node (q, vars, children)) =
    incr time;
    let enter = !time in
    let id = !nblocks in
    incr nblocks;
    blocks_quant := q :: !blocks_quant;
    blocks_parent := parent :: !blocks_parent;
    blocks_vars := Array.of_list vars :: !blocks_vars;
    blocks_level := level :: !blocks_level;
    List.iter
      (fun v ->
        quant.(v) <- q;
        d.(v) <- enter;
        block_of.(v) <- id)
      vars;
    let child_ids = List.map (walk id (level + 1)) children in
    blocks_children := (id, Array.of_list child_ids) :: !blocks_children;
    let leave = !time in
    List.iter (fun v -> f.(v) <- leave) vars;
    id
  in
  let _root_ids = List.map (walk (-1) 1) roots in
  let n = !nblocks in
  let block_quant = Array.make (max n 1) Quant.Exists in
  let block_parent = Array.make (max n 1) (-1) in
  let block_vars = Array.make (max n 1) [||] in
  let block_level = Array.make (max n 1) 0 in
  let block_children = Array.make (max n 1) [||] in
  List.iteri
    (fun i q -> block_quant.(n - 1 - i) <- q)
    !blocks_quant;
  List.iteri (fun i p -> block_parent.(n - 1 - i) <- p) !blocks_parent;
  List.iteri (fun i vs -> block_vars.(n - 1 - i) <- vs) !blocks_vars;
  List.iteri (fun i l -> block_level.(n - 1 - i) <- l) !blocks_level;
  List.iter (fun (id, cs) -> block_children.(id) <- cs) !blocks_children;
  {
    nvars;
    roots;
    quant;
    d;
    f;
    block_of;
    nblocks = n;
    block_quant;
    block_parent;
    block_children;
    block_vars;
    block_level;
  }

let of_blocks ~nvars blocks =
  (* Linear (prenex) prefix: a chain of blocks, outermost first. *)
  let rec chain = function
    | [] -> []
    | (q, vars) :: rest -> [ Node (q, vars, chain rest) ]
  in
  of_forest ~nvars (chain blocks)

let nvars p = p.nvars
let roots p = p.roots
let quant p v = p.quant.(v)
let is_exists p v = Quant.is_exists p.quant.(v)
let is_forall p v = Quant.is_forall p.quant.(v)
let level p v = p.block_level.(p.block_of.(v))
let discovery p v = p.d.(v)
let finish p v = p.f.(v)

(* The paper's eq. (13): z < z' iff d(z) < d(z') <= f(z). *)
let precedes p z z' = p.d.(z) < p.d.(z') && p.d.(z') <= p.f.(z)

(* Two variables lie on a common root path of the forest iff their
   blocks are equal or ancestor-related, i.e. their timestamp intervals
   are equal or nested. *)
let comparable p z z' =
  (p.d.(z) = p.d.(z') && p.f.(z) = p.f.(z'))
  || (p.d.(z) < p.d.(z') && p.d.(z') <= p.f.(z))
  || (p.d.(z') < p.d.(z) && p.d.(z) <= p.f.(z'))

let lit_precedes p l l' = precedes p (Lit.var l) (Lit.var l')
let block_of p v = p.block_of.(v)
let num_blocks p = p.nblocks
let block_quant p b = p.block_quant.(b)
let block_parent p b = p.block_parent.(b)
let block_children p b = p.block_children.(b)
let block_vars p b = p.block_vars.(b)
let block_level p b = p.block_level.(b)

let prefix_level p =
  let m = ref 0 in
  for b = 0 to p.nblocks - 1 do
    if p.block_level.(b) > !m then m := p.block_level.(b)
  done;
  !m

let is_prenex p =
  (* Prenex = the normalized forest is a single chain. *)
  let rec chain = function
    | [] -> true
    | [ Node (_, _, children) ] -> chain children
    | _ :: _ :: _ -> false
  in
  chain p.roots

let blocks_outermost_first p =
  (* Valid as a prenex reading only when [is_prenex p]. *)
  let rec collect acc = function
    | [] -> List.rev acc
    | Node (q, vars, children) :: rest ->
        collect ((q, vars) :: acc) (children @ rest)
  in
  collect [] p.roots

let fold_blocks f acc p =
  let rec go acc b =
    let acc = f acc b in
    Array.fold_left go acc p.block_children.(b)
  in
  let rec roots_ids acc b =
    if b >= p.nblocks then List.rev acc
    else if p.block_parent.(b) = -1 then roots_ids (b :: acc) (b + 1)
    else roots_ids acc (b + 1)
  in
  List.fold_left go acc (roots_ids [] 0)

let rec pp_tree fmt (Node (q, vars, children)) =
  Format.fprintf fmt "@[<hv 2>(%s (%a)" (Quant.symbol q)
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " ")
       Format.pp_print_int)
    (List.map (fun v -> v + 1) vars);
  List.iter (fun c -> Format.fprintf fmt "@ %a" pp_tree c) children;
  Format.fprintf fmt ")@]"

let pp fmt p =
  Format.fprintf fmt "@[<hv>%a@]"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_space fmt ())
       pp_tree)
    p.roots

let to_string p = Format.asprintf "%a" pp p
