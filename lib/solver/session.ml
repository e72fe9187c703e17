(* Incremental solving sessions; see session.mli for the contract.

   The session keeps its own growable quantifier forest (block handles
   with mutable variable lists) and a buffer of pending clauses; both
   are flushed lazily into the backing {!State} at the next [solve]:

     clear trail -> rebuild + extend prefix (if dirty)
                 -> invalidate cubes + add pending clauses (if any)
                 -> seed activities of fresh literals
                 -> refill discovery queues, re-seed purity

   Laziness matters for the DIA workload: a bound step performs a pop,
   a prefix extension and a few dozen clause additions back-to-back,
   and the state is touched once. *)

open Qbf_core
open Solver_types
module S = State
module Obs = Qbf_obs.Obs
module Profile = Qbf_obs.Profile

type block = int

type node = {
  quant : Quant.t;
  mutable vars_rev : int list;
  mutable children_rev : block list;
}

type t = {
  nodes : node Vec.t;
  mutable roots_rev : block list;
  mutable next_var : int;
  owner : int Vec.t; (* var -> block, for diagnostics/tests *)
  state : S.t;
  validate : bool;
  mutable pending : (int array * int) list; (* (lits, frame), reversed *)
  mutable dirty : bool; (* forest changed since the last flush *)
  mutable frame : int;
  mutable act_watermark : int; (* nvars whose activities are seeded *)
  mutable disposed : bool;
}

let dummy_node = { quant = Quant.Exists; vars_rev = []; children_rev = [] }

let check_live t op =
  if t.disposed then invalid_arg ("Session." ^ op ^ ": session is disposed")

let default_validate = Sys.getenv_opt "QBF_SESSION_DEBUG" <> None

let create ?(config = default_config) ?(validate = default_validate) ?proof ()
    =
  (* a proof writer switches the state to proof mode for the session's
     lifetime (see State.create) *)
  let empty = Formula.make (Prefix.of_forest ~nvars:0 []) [] in
  let state = S.create ?proof empty config in
  {
    nodes = Vec.create dummy_node;
    roots_rev = [];
    next_var = 0;
    owner = Vec.create (-1);
    state;
    validate;
    pending = [];
    dirty = false;
    frame = 0;
    act_watermark = 0;
    disposed = false;
  }

(* --- prefix growth ------------------------------------------------------ *)

let check_block t b op =
  if b < 0 || b >= Vec.length t.nodes then
    invalid_arg ("Session." ^ op ^ ": invalid block handle")

let new_block t ?parent quant =
  check_live t "new_block";
  let id = Vec.length t.nodes in
  Vec.push t.nodes { quant; vars_rev = []; children_rev = [] };
  (match parent with
  | None -> t.roots_rev <- id :: t.roots_rev
  | Some p ->
      check_block t p "new_block";
      let pn = Vec.get t.nodes p in
      pn.children_rev <- id :: pn.children_rev);
  t.dirty <- true;
  id

let new_vars t b k =
  check_live t "new_vars";
  check_block t b "new_vars";
  if k < 0 then invalid_arg "Session.new_vars: negative count";
  let n = Vec.get t.nodes b in
  let first = t.next_var in
  for i = k - 1 downto 0 do
    n.vars_rev <- (first + i) :: n.vars_rev
  done;
  for _ = 1 to k do
    Vec.push t.owner b
  done;
  t.next_var <- t.next_var + k;
  if k > 0 then t.dirty <- true;
  first

let extend_prefix t ?parent quant k =
  let b = new_block t ?parent quant in
  let first = new_vars t b k in
  (b, first)

let rec tree_of t id =
  let n = Vec.get t.nodes id in
  Prefix.node n.quant (List.rev n.vars_rev)
    (List.rev_map (tree_of t) n.children_rev)

let forest_prefix t =
  Prefix.of_forest ~nvars:t.next_var (List.rev_map (tree_of t) t.roots_rev)

(* --- matrix growth and frames ------------------------------------------- *)

let add_clause t lits =
  check_live t "add_clause";
  List.iter
    (fun l ->
      let v = Lit.var l in
      if v < 0 || v >= t.next_var then
        invalid_arg
          (Printf.sprintf "Session.add_clause: variable %d not allocated" v))
    lits;
  let c = Clause.of_list lits in
  if not (Clause.is_tautology c) then begin
    let arr = Array.map (fun l -> (l : Lit.t :> int)) (Clause.lits c) in
    t.pending <- (arr, t.frame) :: t.pending
  end

let push t =
  check_live t "push";
  t.frame <- t.frame + 1;
  t.state.S.frame_level <- t.frame

let pop t =
  check_live t "pop";
  if t.frame = 0 then invalid_arg "Session.pop: already at frame 0";
  t.frame <- t.frame - 1;
  t.state.S.frame_level <- t.frame;
  (* pending clauses of the popped frame never reached the state *)
  t.pending <- List.filter (fun (_, f) -> f <= t.frame) t.pending;
  S.clear_trail t.state;
  S.retract_above t.state t.frame;
  (* Reclaim the retracted slots at once: frame retraction goes through
     the relocation map, so occurrence and watch lists shed the dead ids
     here instead of carrying them until the next search touches them. *)
  ignore (S.compact_db t.state)

let frame t = t.frame

(* --- the growth-contract check (parenthesis property, eq. 13) ----------- *)

let check_extension s np =
  let op = s.S.prefix in
  let n = s.S.nvars in
  if Prefix.nvars np < n then
    invalid_arg "Session: prefix extension removed variables";
  for v = 0 to n - 1 do
    if not (Quant.equal (Prefix.quant np v) (Prefix.quant op v)) then
      invalid_arg
        (Printf.sprintf
           "Session: prefix extension changed the quantifier of variable %d"
           v)
  done;
  for z = 0 to n - 1 do
    for z' = 0 to n - 1 do
      if
        z <> z'
        && Prefix.precedes op z z' <> Prefix.precedes np z z'
      then
        invalid_arg
          (Printf.sprintf
             "Session: prefix extension changed the order on existing \
              variables (%d,%d) — parenthesis property (eq. 13) violated"
             z z')
    done
  done

(* --- solving ------------------------------------------------------------ *)

(* Flush pending prefix/matrix growth into the state.  Always clears the
   trail first: even without growth, level-0 assignments of the previous
   call may rest on reasons that a pop has retracted. *)
let flush t =
  let s = t.state in
  S.clear_trail s;
  if t.dirty then begin
    let np = forest_prefix t in
    if t.validate then check_extension s np;
    S.extend s np;
    t.dirty <- false
  end;
  if t.pending <> [] then begin
    S.invalidate_cubes s;
    ignore (S.compact_db s);
    List.iter
      (fun (lits, frame) ->
        ignore (S.add_constraint s Clause_c ~learned:false ~frame lits))
      (List.rev t.pending);
    t.pending <- []
  end;
  (* Fresh literals are seeded as a cold start seeds them; old literals
     keep their decayed activity, which is the heuristic carry-over. *)
  S.seed_activities s ~first:t.act_watermark;
  t.act_watermark <- s.S.nvars;
  S.requeue_all s;
  S.reseed_pure_queue s

let solve_flushed t =
  let s = t.state in
  let o = s.S.obs in
  if o.Obs.profile_on then
    Profile.span o.Obs.profile Profile.Build (fun () -> flush t)
  else flush t;
  let before = copy_stats s.S.stats in
  let r = Engine.solve_state s in
  { r with stats = diff_stats ~before r.stats }

let solve ?(assumptions = []) t =
  check_live t "solve";
  match assumptions with
  | [] -> solve_flushed t
  | lits ->
      (* An ephemeral frame of unit clauses: learned constraints that
         resolve with an assumption inherit its frame and vanish with
         the pop, the rest survive for later calls. *)
      push t;
      List.iter (fun l -> add_clause t [ l ]) lits;
      Fun.protect
        ~finally:(fun () -> pop t)
        (fun () -> solve_flushed t)

(* --- seeding from an existing formula ----------------------------------- *)

let of_formula ?config ?validate ?proof formula =
  let t = create ?config ?validate ?proof () in
  (* Import the normalised forest with the original variable ids: the
     session's own ids must match the clauses'. *)
  t.next_var <- Formula.nvars formula;
  for _ = 1 to t.next_var do
    Vec.push t.owner (-1)
  done;
  let rec import parent (Prefix.Node (q, vars, children)) =
    let b = new_block t ?parent q in
    let n = Vec.get t.nodes b in
    n.vars_rev <- List.rev vars;
    List.iter (fun v -> Vec.set t.owner v b) vars;
    List.iter (fun child -> import (Some b) child) children
  in
  List.iter (import None) (Prefix.roots (Formula.prefix formula));
  t.dirty <- true;
  List.iter (fun c -> add_clause t (Clause.to_list c)) (Formula.matrix formula);
  t

(* --- inspection and teardown -------------------------------------------- *)

let stats t = copy_stats t.state.S.stats

type db_stats = {
  originals_active : int;
  learned_clauses_active : int;
  learned_cubes_active : int;
  retracted : int;
}

let db_stats t =
  let s = t.state in
  let db = s.S.db in
  let orig = ref 0 and lc = ref 0 and cu = ref 0 in
  for cid = 0 to Constraint_db.size db - 1 do
    if Constraint_db.active db cid then
      if not (Constraint_db.learned db cid) then incr orig
      else if Constraint_db.is_cube db cid then incr cu
      else incr lc
  done;
  {
    originals_active = !orig;
    learned_clauses_active = !lc;
    learned_cubes_active = !cu;
    retracted = s.S.retracted_constraints;
  }

let var_count t = t.next_var
let state_for_testing t = t.state
let dispose t = t.disposed <- true

let one_shot ?config ?proof formula =
  let t = of_formula ?config ?proof formula in
  let r = solve t in
  dispose t;
  r
