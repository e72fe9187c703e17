(* Branching heuristics (Section VI of the paper).

   Both modes choose among the *available* variables — those whose
   ≺-predecessors are all assigned, i.e. the top variables of the
   residual QBF — so the prefix is always respected.

   - Total_order (QuBE(TO)): priority by (prefix level, activity), the
     VSIDS-like ordering of the prenex solver.
   - Partial_order (QuBE(PO)): the score of a literal is its activity
     plus the maximum score of the literals one prefix level deeper
     inside its scope, computed bottom-up over the quantifier-tree
     blocks.

   Ties go to the ancestor block first, then to the smaller id.  As
   activities stay non-negative, a PO score is at least the score of
   every variable it ≺-precedes, which under TO lie a level deeper or
   more, so the best-ranked unassigned variable is available: nothing is
   set aside.

   Activities change only when State seeds or rescales them, so both
   rankings are fixed in between: {!Order} keeps them in a heap that is
   rebuilt once per change, and a decision pops it. *)

open Qbf_core
open Solver_types
module S = State

let max_act s v =
  let p = 2 * v in
  Float.max s.S.act.(p) s.S.act.(p + 1)

(* Branch polarity: the saved phase when phase saving is on and the
   variable has been assigned before (restarts then resume near the
   assignment they abandoned — the learned constraints that survive the
   restart keep pruning the same region), else the higher-activity
   polarity. *)
let phase_literal s v =
  let p = 2 * v in
  if s.S.config.search.phase_saving then
    match s.S.saved_phase.(v) with
    | 1 -> p
    | 0 -> p + 1
    | _ -> if s.S.act.(p) >= s.S.act.(p + 1) then p else p + 1
  else if s.S.act.(p) >= s.S.act.(p + 1) then p else p + 1

(* Recompute every key from the current activities and prefix, and
   heapify the unassigned variables.  Under PO the block scores are
   computed bottom-up: block ids are DFS-preorder, so children always
   have larger ids than their parent, and lose ties to it. *)
let rebuild s =
  let o = s.S.order and n = s.S.nvars in
  (match s.S.config.search.heuristic with
  | Total_order ->
      for v = 0 to n - 1 do
        o.Order.major.(v) <- s.S.plevel.(v);
        o.Order.key.(v) <- max_act s v
      done
  | Partial_order ->
      let p = s.S.prefix in
      let nb = Prefix.num_blocks p in
      let block_best = Array.make nb 0. and child_max = Array.make nb 0. in
      for b = nb - 1 downto 0 do
        let cm =
          Array.fold_left
            (fun acc c -> Float.max acc block_best.(c))
            0. (Prefix.block_children p b)
        in
        child_max.(b) <- cm;
        let local =
          Array.fold_left
            (fun acc v -> Float.max acc (max_act s v))
            0. (Prefix.block_vars p b)
        in
        block_best.(b) <- local +. cm
      done;
      for v = 0 to n - 1 do
        o.Order.major.(v) <- 0;
        o.Order.key.(v) <- max_act s v +. child_max.(s.S.block_of.(v))
      done);
  Array.blit s.S.block_of 0 o.Order.block 0 n;
  Order.rebuild o n (fun v -> not (S.is_assigned s v))

(* The best-ranked unassigned variable, or -1 when every variable is
   assigned.  Pops drop assigned variables (unassign re-inserts them).
   [debug_checks] fails the pick if an unassigned variable ≺-precedes
   it, which the ranking rules out. *)
let pick s =
  let o = s.S.order in
  if o.Order.stale then rebuild s;
  let rec go () =
    if o.Order.size = 0 then -1
    else
      let v = Order.pop o in
      if S.is_assigned s v then go () else v
  in
  let v = go () in
  if v >= 0 && s.S.config.search.debug_checks then
    for u = 0 to s.S.nvars - 1 do
      if (not (S.is_assigned s u)) && S.precedes s u v then
        failwith (Printf.sprintf "debug_checks: %d precedes the pick %d" u v)
    done;
  v

(* Assign the next branch; [false] when every variable is assigned. *)
let decide s =
  let v = pick s in
  if v < 0 then false
  else begin
    S.new_decision s (phase_literal s v) ~flipped:false;
    true
  end
