(* Mutable search state: assignment trail, constraint database with
   eager counters on the original clauses and watched literals on the
   learned constraints, purity counters, branching availability.

   Literals are raw ints (see {!Qbf_core.Lit}); [2*v] is the positive
   literal of variable [v].

   Constraints live in {!Constraint_db}, a flat-arena store addressed by
   dense integer ids; this module holds every structure that *refers* to
   those ids (occurrence lists, watch lists, reasons, discovery queues)
   and owns the compaction protocol that keeps them in sync when the
   database drops constraints ({!compact_db}).

   Clauses and cubes are dual, and every rule below is written once for
   both.  A constraint's *primary* literals are its owner's: existential
   in a clause, universal in a cube.  Its *settling* literals are the
   true ones of a clause and the false ones of a cube.  Counter scheme:
   every constraint keeps [opens], its unassigned primaries, and
   [fixed], its settling literals.  Then, with the side conditions of
   Lemmas 4/5 and their duals checked lazily:
     leaf (conflicting clause, satisfied cube) <-> fixed = 0 && opens = 0
     unit                  <-> fixed = 0 && opens = 1  (+ scope condition)
   Leaves are pushed on [conflict_q] or [cubesat_q] by kind, units on
   [unit_q]; the propagation loop re-verifies every entry (they may be
   stale after backtracking, which clears the queues).

   The counter scheme above maintains the *original* clauses only
   (purity needs exact [pos_unsat] and [unsat_originals] transitions).
   Learned constraints — the unbounded part of the database — are
   maintained lazily with two watched literals: they are absent from
   the occurrence lists, so [unassign] never touches them and [assign]
   visits only the watch lists of the literal being falsified
   (truthified for cubes).

   The scratch tables of conflict and solution analysis ([an_*]) live
   here too, preallocated per literal, variable, level or block and
   grown by {!extend}, so that no analysis step allocates a table.  Each
   is epoch-stamped: an entry is set iff it equals the epoch its user
   drew from [an_epoch], so emptying a table is drawing a fresh epoch. *)

open Qbf_core
open Solver_types
module Db = Constraint_db
module Obs = Qbf_obs.Obs
module Metrics = Qbf_obs.Metrics
module Trace = Qbf_obs.Trace
module Profile = Qbf_obs.Profile

let var l = l lsr 1
let neg l = l lxor 1
let is_pos l = l land 1 = 0

(* Fields marked [mutable] below fall into two groups: search-time
   scalars (trail bookkeeping, queue epoch) and the per-variable / per-literal
   / per-block tables, which incremental sessions swap wholesale when the
   prefix grows ({!extend}).  Everything indexed by DFS numbers of the
   quantifier forest (block ids, [d]/[f] timestamps, [plevel]) is
   recomputed on extension — extension renumbers the forest. *)
type t = {
  mutable prefix : Prefix.t;
  mutable nvars : int;
  config : config;
  stats : stats;
  db : Db.t; (* all constraints, originals and learned *)
  mutable occ : int Vec.t array;
      (* per literal: ids of the original clauses containing it *)
  mutable watch_cl : int Vec.t array;
      (* per literal: watch-maintained clauses watching it, visited when
         the literal becomes false *)
  mutable watch_cu : int Vec.t array;
      (* per literal: watch-maintained cubes watching it, visited when
         the literal becomes true *)
  mutable qepoch : int;
      (* current propagation-wave id for queue-push dedup: bumped by
         {!clear_queues}; a constraint whose stamp equals it is already
         enqueued this wave (see Constraint_db marks) *)
  mutable value : int array; (* per var: -1 unassigned / 0 false / 1 true *)
  mutable reason : antecedent array; (* per var *)
  mutable vlevel : int array; (* per var: decision level of assignment *)
  mutable pos : int array; (* per var: trail index of assignment *)
  mutable saved_phase : int array;
      (* per var: polarity of the last assignment (0 false / 1 true), -1
         before the first; written at every unassign and consulted by
         Heuristic.phase_literal when [config.search.phase_saving] *)
  trail : int Vec.t; (* assigned literals (true), oldest first *)
  trail_lim : int Vec.t; (* trail length at the start of each level *)
  dec_flipped : bool Vec.t; (* per level: second branch of a flip? *)
  mutable is_exist : bool array; (* per var *)
  mutable block_of : int array;
  mutable block_parent : int array;
  mutable block_unassigned : int array;
  mutable d : int array; (* prefix timestamps, cached from Prefix *)
  mutable f : int array;
  mutable plevel : int array; (* per var: prefix level, cached for emits *)
  obs : Obs.t; (* observability collector; Obs.none when disabled *)
  mutable pos_unsat : int array; (* per literal: active unsatisfied clauses *)
  mutable counter : int array; (* per literal: active constraints with it *)
  mutable act : float array; (* per literal: decayed activity *)
  mutable last_counter : int array;
  mutable unsat_originals : int;
  mutable num_original : int;
  conflict_q : int Vec.t;
  unit_q : int Vec.t;
  cubesat_q : int Vec.t;
  pure_q : int Vec.t; (* candidate *absent* literals *)
  parked_q : int Vec.t;
      (* watch-maintained constraints whose watches are not a
         structurally compatible eligible pair (see Constraint_db
         [parked]); re-repaired against the new assignment after every
         backtrack *)
  pure_defer_q : int Vec.t;
      (* existential pure candidates whose assignment would satisfy
         clauses; deferred until quiescence so that satisfied-elsewhere
         auxiliary gates can instead turn pure-negative, which keeps
         learned goods short (see Propagate) *)
  mutable stop_ticks : int;
      (* budget checks since the last [should_stop] poll (see
         Engine.budget_exhausted) *)
  mutable drop_ok : bool array;
      (* per var: existential with no universal variable anywhere in its
         ≺-scope, so existential reduction removes it from any cube *)
  mutable is_aux : bool array;
      (* per var: declared auxiliary (config.hints.aux_hint) and reducible *)
  mutable po_block_best : float array;
  mutable po_child_max : float array;
      (* per block: scratch score arrays of Heuristic.pick_partial_order,
         preallocated here so the PO heuristic does not allocate on every
         decision; fully rewritten on each use *)
  mutable frame_level : int;
      (* current session push/pop frame; constraints added now are
         tagged with it (see Constraint_db and Session) *)
  mutable retracted_constraints : int;
      (* constraints deactivated by session pops / cube invalidation,
         kept separate from stats.deleted_constraints (DB reduction) *)
  mutable proof : Proof.t option;
      (* attached trace writer (see {!attach_proof}); None = no proof,
         and every emission site is one option match *)
  mutable an_epoch : int; (* last epoch drawn by Analyze; stamps are <= *)
  mutable an_work : int array; (* per literal: in the working set *)
  mutable an_merged : int array; (* per var: a merged pair of it *)
  mutable an_cover : int array; (* per literal: chosen by the cover *)
  mutable an_seen : int array; (* per literal: in the antecedent added *)
  mutable an_level : int array; (* per decision level: counted by LBD *)
  mutable an_block : int array;
      (* per block: strict ancestor of a primary's block *)
}

(* [precedes s v v'] is the paper's z ≺ z' test, eq. (13). *)
let precedes s v v' = s.d.(v) < s.d.(v') && s.d.(v') <= s.f.(v)

let lit_value s l =
  let w = s.value.(var l) in
  if w < 0 then -1 else if (w = 1) = is_pos l then 1 else 0

let is_assigned s v = s.value.(v) >= 0

(* Primary and settling literals, as defined in the header. *)
let primary s kind m =
  match kind with
  | Clause_c -> s.is_exist.(var m)
  | Cube_c -> not s.is_exist.(var m)

(* [settles kind v]: a literal of value [v] (0 or 1) is settling. *)
let settles kind v = match kind with Clause_c -> v = 1 | Cube_c -> v = 0

let current_level s = Vec.length s.trail_lim

(* --- discovery-queue pushes (deduplicated per wave) --------------------- *)

(* A constraint touched through several literals of one propagation wave
   is enqueued at most once: its stamp is set to the wave id on push and
   compared on the next push attempt.  Propagate resets the stamp when
   it pops an entry, so a constraint whose state changes again later in
   the same wave (unit first, conflicting after more assignments) is
   re-enqueued.  [cq_mark] is shared between conflict_q and cubesat_q —
   a constraint is a clause or a cube, never both. *)
let push_unit s cid =
  if Db.uq_mark s.db cid <> s.qepoch then begin
    Db.set_uq_mark s.db cid s.qepoch;
    Vec.push s.unit_q cid
  end

let leaf_queue s kind =
  match kind with Clause_c -> s.conflict_q | Cube_c -> s.cubesat_q

let push_leaf s kind cid =
  if Db.cq_mark s.db cid <> s.qepoch then begin
    Db.set_cq_mark s.db cid s.qepoch;
    Vec.push (leaf_queue s kind) cid
  end

(* Queue a constraint with no settling literal by its open primaries. *)
let announce s kind cid opens =
  if opens = 0 then push_leaf s kind cid
  else if opens = 1 then push_unit s cid

(* --- purity bookkeeping ------------------------------------------------ *)

(* [pos_unsat] counts *original* clauses only: pure literals are
   computed on the matrix (as in QuBE), which is also what lets learned
   constraints stay out of the counters.  Only original clauses reach
   these two, through the occurrence lists. *)

let clause_now_satisfied s cid =
  (* fixed went 0 -> 1: the clause leaves the "unsatisfied" pool. *)
  s.unsat_originals <- s.unsat_originals - 1;
  Db.iter_lits s.db cid (fun m ->
      s.pos_unsat.(m) <- s.pos_unsat.(m) - 1;
      if s.pos_unsat.(m) = 0 && s.config.search.pure_literals then
        Vec.push s.pure_q m)

let clause_now_unsatisfied s cid =
  (* fixed went 1 -> 0 on backtrack. *)
  s.unsat_originals <- s.unsat_originals + 1;
  Db.iter_lits s.db cid (fun m -> s.pos_unsat.(m) <- s.pos_unsat.(m) + 1)

(* --- constraint touch on assignment ------------------------------------ *)

(* [opens] is read only once [fixed] is known to be 0: the check runs
   on every touch of an original clause. *)
let check_state s kind cid =
  if Db.fixed s.db cid = 0 then announce s kind cid (Db.opens s.db cid)

(* --- watched literals (learned constraints) ------------------------------ *)

(* Each watch-maintained constraint watches two distinct *structurally
   compatible* literals: for a clause both existential, or a universal
   [u] preceding the existential — only such a [u] can block the unit
   rule of Lemma 5; dually for a cube both universal, or an existential
   preceding the universal.  Compatibility depends on the prefix alone,
   never on values, so it survives any backtrack — which is what lets
   [unassign] skip learned constraints entirely.  A watch must also be
   *eligible* (non-false for clauses, non-true for cubes); when no
   eligible compatible pair exists the constraint is conflicting, unit,
   or satisfied/dead, and is parked on a discovery queue.  Queue entries
   are candidates that propagation re-verifies, exactly as in the
   counter scheme: a missed wake-up costs propagations, never
   correctness (learned constraints are Q-consequences, so ignoring one
   only loses pruning; original-clause discovery is eager). *)

let watch_list s kind m =
  match kind with Clause_c -> s.watch_cl.(m) | Cube_c -> s.watch_cu.(m)

let eligible s kind m =
  match kind with
  | Clause_c -> lit_value s m <> 0
  | Cube_c -> lit_value s m <> 1

(* Find two distinct eligible, structurally compatible literals: two
   primaries, else one primary plus an eligible secondary preceding it.
   Scans in arena order, so the result is deterministic. *)
let find_watch_pair s cid =
  let kind = Db.kind s.db cid in
  let p1 = ref (-1) and p2 = ref (-1) in
  Db.iter_lits s.db cid (fun m ->
      if eligible s kind m && primary s kind m then
        if !p1 < 0 then p1 := m else if !p2 < 0 then p2 := m);
  if !p1 < 0 then None
  else if !p2 >= 0 then Some (!p1, !p2)
  else begin
    let p = !p1 in
    let sec = ref (-1) in
    Db.iter_lits s.db cid (fun m ->
        if
          !sec < 0
          && (not (primary s kind m))
          && eligible s kind m
          && precedes s (var m) (var p)
        then sec := m);
    if !sec >= 0 then Some (p, !sec) else None
  end

let unwatch s kind cid m =
  let wl = watch_list s kind m in
  let rec go i =
    if i < Vec.length wl then
      if Vec.get wl i = cid then Vec.swap_remove wl i else go (i + 1)
  in
  go 0

(* Move the watches of [cid] to [(a, b)].  Safe while iterating the
   watch list of an *ineligible* literal: that literal is never in the
   new pair, so its entry — the one at the iteration cursor — is
   removed. *)
let set_watch_pair s cid a b =
  let kind = Db.kind s.db cid in
  let keep x = x = a || x = b in
  let old1 = Db.w1 s.db cid and old2 = Db.w2 s.db cid in
  if old1 >= 0 then begin
    if not (keep old1) then unwatch s kind cid old1;
    if old2 <> old1 && not (keep old2) then unwatch s kind cid old2
  end;
  Db.set_watches s.db cid a b;
  if a <> old1 && a <> old2 then Vec.push (watch_list s kind a) cid;
  if b <> a && b <> old1 && b <> old2 then Vec.push (watch_list s kind b) cid

(* Exact [(opens, fixed)] of a watch-maintained constraint (its counter
   fields are dead), by scanning the assignment. *)
let scan_status s cid =
  let kind = Db.kind s.db cid in
  let opens = ref 0 and fixed = ref 0 in
  Db.iter_lits s.db cid (fun m ->
      match lit_value s m with
      | -1 -> if primary s kind m then incr opens
      | v -> if settles kind v then incr fixed);
  (!opens, !fixed)

let classify_and_queue s cid =
  let opens, fixed = scan_status s cid in
  if fixed = 0 then announce s (Db.kind s.db cid) cid opens

(* The unit rule of Lemma 5 and its dual, for a constraint with no
   settling literal and one open primary: [open_primary] finds that
   primary [p], and the rule is blocked when an unassigned non-primary
   literal ≺-precedes it. *)
let open_primary s kind cid =
  let p = ref (-1) in
  Db.iter_lits s.db cid (fun m ->
      if lit_value s m < 0 && primary s kind m then p := m);
  !p

let unit_blocked s kind cid p =
  Db.exists_lit s.db cid (fun m ->
      lit_value s m < 0
      && (not (primary s kind m))
      && precedes s (var m) (var p))

(* A compatible eligible watch pair cannot be found right now: flag the
   constraint and register it for post-backtrack repair.  Assignments
   can only push such a constraint towards satisfied/dead (its
   actionable states are queued by [classify_and_queue] first), but a
   backtrack can silently revive an actionable state without ever
   touching its watches — e.g. a fired unit whose implied literal is
   undone while the falsifying literals survive below the target. *)
let register_parked s cid =
  if not (Db.parked s.db cid) then begin
    Db.set_parked s.db cid true;
    Vec.push s.parked_q cid
  end

(* Restore the two-eligible-watch invariant of [cid] if possible, else
   re-announce its conflicting/unit/solved state and park it.  Called on
   constraints popped from a discovery queue without firing: their
   queued state was stale, but their watches were left broken when the
   entry was pushed. *)
let repair_watches s cid =
  match find_watch_pair s cid with
  | Some (a, b) -> set_watch_pair s cid a b
  | None ->
      classify_and_queue s cid;
      register_parked s cid

(* Install watches on a fresh watch-maintained constraint.  When no
   eligible compatible pair exists the constraint is already actionable
   (or satisfied/dead): park it on its first literals and classify —
   Analyze relies on a just-learned asserting constraint announcing its
   unit state here, against the post-backjump assignment.  When a pair
   exists the constraint is satisfied, two-open, or a blocked unit
   (primary + unassigned blocker, which is a watch and will wake it),
   none of which propagation could use now, so no queue entry is made. *)
let init_watches s cid =
  let kind = Db.kind s.db cid in
  match find_watch_pair s cid with
  | Some (a, b) ->
      Db.set_watches s.db cid a b;
      Vec.push (watch_list s kind a) cid;
      Vec.push (watch_list s kind b) cid
  | None ->
      let n = Db.num_lits s.db cid in
      if n > 0 then begin
        let a = Db.lit s.db cid 0 in
        let b = Db.lit s.db cid (if n > 1 then 1 else 0) in
        Db.set_watches s.db cid a b;
        Vec.push (watch_list s kind a) cid;
        if b <> a then Vec.push (watch_list s kind b) cid
      end;
      classify_and_queue s cid;
      register_parked s cid

(* [m], a watched literal, just became false (clauses) / true (cubes):
   visit every watch-maintained constraint watching it.  [park] is the
   value of the other watch under which the constraint is satisfied
   (clause) or dead (cube) and can be left alone: when the parking
   literal is later unassigned, every literal assigned after it — in
   particular [m], falsified at the current level — is unassigned too,
   restoring the watch invariant. *)
let visit_watchers s kind m =
  let wl = watch_list s kind m in
  let park = match kind with Clause_c -> 1 | Cube_c -> 0 in
  let i = ref 0 in
  while !i < Vec.length wl do
    let cid = Vec.get wl !i in
    if not (Db.active s.db cid) then
      Vec.swap_remove wl !i (* deactivated: lazy drop *)
    else
      let w1 = Db.w1 s.db cid and w2 = Db.w2 s.db cid in
      if w1 <> m && w2 <> m then Vec.swap_remove wl !i (* stale *)
      else
        let other = if w1 = m then w2 else w1 in
        if other <> m && lit_value s other = park then incr i
        else
          match find_watch_pair s cid with
          | Some (a, b) ->
              (* [m] is ineligible, so the new pair excludes it and this
                 removes the entry at [!i]: do not advance *)
              set_watch_pair s cid a b
          | None ->
              classify_and_queue s cid;
              register_parked s cid;
              incr i
  done

(* Debug oracle for [config.search.debug_checks]: scan every active
   constraint and report one whose state the discovery machinery should
   have announced — a conflicting or Lemma-5-unit clause, a satisfied or
   dual-unit cube.  Only meaningful at a propagation fixpoint (all
   queues drained, nothing fired); the engine calls it right before
   branching.  O(db) per call, debug builds only. *)
let find_missed_discovery s =
  let describe cid what =
    let b = Buffer.create 128 in
    Buffer.add_string b
      (Printf.sprintf "%s (constraint %d, %s%s, watches %d/%d) lits:" what cid
         (match Db.kind s.db cid with Clause_c -> "clause" | Cube_c -> "cube")
         (if Db.learned s.db cid then " learned" else "")
         (Db.w1 s.db cid) (Db.w2 s.db cid));
    Db.iter_lits s.db cid (fun m ->
        Buffer.add_string b
          (Printf.sprintf " %s%d%s=%d"
             (if s.is_exist.(var m) then "e" else "u")
             (var m)
             (if m land 1 = 1 then "'" else "")
             (lit_value s m)));
    Buffer.contents b
  in
  let missed = ref None in
  for cid = 0 to Db.size s.db - 1 do
    if !missed = None && Db.active s.db cid && Db.num_lits s.db cid > 0 then begin
      let opens, fixed = scan_status s cid in
      let kind = Db.kind s.db cid in
      let bad what = missed := Some (cid, describe cid what) in
      if fixed = 0 then
        if opens = 0 then
          bad
            (if kind = Clause_c then "conflicting clause" else "satisfied cube")
        else if
          opens = 1 && not (unit_blocked s kind cid (open_primary s kind cid))
        then bad (if kind = Clause_c then "unit clause" else "unit cube")
    end
  done;
  !missed

(* [m] (a literal of constraint [cid]) was just assigned value [v]. *)
let touch_assign s cid m v =
  let db = s.db in
  if Db.active db cid then begin
    let kind = Db.kind db cid in
    if primary s kind m then Db.add_open db cid (-1);
    if settles kind v then begin
      Db.add_fixed db cid 1;
      if kind = Clause_c && Db.fixed db cid = 1 then clause_now_satisfied s cid
    end
    else check_state s kind cid
  end

(* [m] (a literal of constraint [cid]) had value [v] and was just
   unassigned. *)
let touch_unassign s cid m v =
  let db = s.db in
  if Db.active db cid then begin
    let kind = Db.kind db cid in
    if primary s kind m then Db.add_open db cid 1;
    if settles kind v then begin
      Db.add_fixed db cid (-1);
      if kind = Clause_c && Db.fixed db cid = 0 then
        clause_now_unsatisfied s cid
    end
  end

(* --- assignment and backtracking --------------------------------------- *)

(* Assign literal [l] true.  The caller guarantees [l] is unassigned. *)
let assign s l ante =
  let v = var l in
  assert (s.value.(v) < 0);
  s.value.(v) <- (if is_pos l then 1 else 0);
  s.reason.(v) <- ante;
  s.vlevel.(v) <- current_level s;
  s.pos.(v) <- Vec.length s.trail;
  Vec.push s.trail l;
  let b = s.block_of.(v) in
  s.block_unassigned.(b) <- s.block_unassigned.(b) - 1;
  Vec.iter (fun cid -> touch_assign s cid l 1) s.occ.(l);
  Vec.iter (fun cid -> touch_assign s cid (neg l) 0) s.occ.(neg l);
  visit_watchers s Clause_c (neg l);
  visit_watchers s Cube_c l

let unassign s l =
  let v = var l in
  Vec.iter (fun cid -> touch_unassign s cid l 1) s.occ.(l);
  Vec.iter (fun cid -> touch_unassign s cid (neg l) 0) s.occ.(neg l);
  (* phase saving: remember the polarity this assignment had, whoever
     made it; the heuristic decides whether to consult it *)
  s.saved_phase.(v) <- s.value.(v);
  s.value.(v) <- -1;
  s.reason.(v) <- Decision;
  let b = s.block_of.(v) in
  s.block_unassigned.(b) <- s.block_unassigned.(b) + 1

let clear_queues s =
  s.qepoch <- s.qepoch + 1;
  Vec.clear s.conflict_q;
  Vec.clear s.unit_q;
  Vec.clear s.cubesat_q;
  Vec.clear s.pure_q;
  Vec.clear s.pure_defer_q

(* Re-repair every parked constraint against the post-backtrack
   assignment.  Backtracking is the one transition that can make a
   watchless constraint actionable without visiting a watch: a fired
   unit whose implied literal is undone while its falsifying literals
   survive below the target, a satisfied constraint whose lone true
   literal is undone, a queued announcement lost to [clear_queues].
   Constraints that regain a compatible eligible pair leave the
   registry; the rest are re-announced on the fresh wave and stay
   parked.  (Original clauses get the same effect from the eager
   occurrence-list walks in [unassign].) *)
let repair_parked s =
  let i = ref 0 in
  while !i < Vec.length s.parked_q do
    let cid = Vec.get s.parked_q !i in
    if not (Db.active s.db cid) then begin
      Db.set_parked s.db cid false;
      Vec.swap_remove s.parked_q !i
    end
    else
      match find_watch_pair s cid with
      | Some (a, b) ->
          set_watch_pair s cid a b;
          Db.set_parked s.db cid false;
          Vec.swap_remove s.parked_q !i
      | None ->
          classify_and_queue s cid;
          incr i
  done

(* Undo all levels deeper than [level]; discovery queues are cleared
   (propagation re-verifies candidates, so losing stale ones is safe). *)
let backtrack s level =
  assert (level >= 0 && level <= current_level s);
  if level < current_level s then begin
    (* the backtrack span isolates the unassign bookkeeping — the
       originals' occurrence-list walks and the parked repair of the
       learned constraints — from the analysis it nests inside *)
    let o = s.obs in
    if o.Obs.profile_on then Profile.enter o.Obs.profile Profile.Backtrack;
    let target = Vec.get s.trail_lim level in
    while Vec.length s.trail > target do
      unassign s (Vec.pop s.trail)
    done;
    Vec.shrink s.trail_lim level;
    Vec.shrink s.dec_flipped level;
    clear_queues s;
    repair_parked s;
    if o.Obs.profile_on then Profile.leave o.Obs.profile Profile.Backtrack
  end

(* Open a new decision level and assign [l] as its branch. *)
let new_decision s l ~flipped =
  Vec.push s.trail_lim (Vec.length s.trail);
  Vec.push s.dec_flipped flipped;
  s.stats.decisions <- s.stats.decisions + 1;
  if current_level s > s.stats.max_decision_level then
    s.stats.max_decision_level <- current_level s;
  let o = s.obs in
  if o.Obs.metrics_on then
    Metrics.on_decision o.Obs.metrics ~plevel:s.plevel.(var l)
      ~dlevel:(current_level s);
  if o.Obs.trace_on then
    Trace.emit o.Obs.trace Trace.Decision ~dlevel:(current_level s)
      ~plevel:s.plevel.(var l) ~arg:l;
  assign s l (if flipped then Flipped else Decision)

(* --- constraint creation ----------------------------------------------- *)

(* Add a constraint over literal array [lits] (sorted, no duplicate
   variables): an original clause gets its counters against the current
   assignment, a learned constraint its watches, and either is flagged
   on the discovery queues if it is already unit, conflicting or
   satisfied-as-a-cube.  Returns its id.  [frame] defaults to the
   current session frame; Analyze passes the maximum antecedent frame of
   a learned constraint's derivation, and [lbd] the quantified
   LBD analog it computed at learning time. *)
let add_constraint s kind ~learned ?frame ?(lbd = 0) lits =
  let frame = match frame with Some f -> f | None -> s.frame_level in
  let cid = Db.add s.db ~kind ~learned ~frame lits in
  Db.set_lbd s.db cid lbd;
  (* Input registration: original clauses enter the proof here; learned
     constraints are registered by Analyze with their derivations. *)
  (match s.proof with
  | Some p when (not learned) && kind = Clause_c ->
      let pid = Proof.fresh_pid p in
      Db.set_pid s.db cid pid;
      Proof.input_clause p ~pid (Array.to_list lits)
  | _ -> ());
  Array.iter (fun m -> s.counter.(m) <- s.counter.(m) + 1) lits;
  if learned then init_watches s cid
  else begin
    let opens = ref 0 and fixed = ref 0 in
    Array.iter
      (fun m ->
        Vec.push s.occ.(m) cid;
        match lit_value s m with
        | -1 -> if primary s kind m then incr opens
        | v -> if settles kind v then incr fixed)
      lits;
    Db.set_counters s.db cid ~opens:!opens ~fixed:!fixed;
    if kind = Clause_c && !fixed = 0 then begin
      s.unsat_originals <- s.unsat_originals + 1;
      Array.iter (fun m -> s.pos_unsat.(m) <- s.pos_unsat.(m) + 1) lits
    end;
    check_state s kind cid;
    s.num_original <- s.num_original + 1
  end;
  cid

(* --- availability (top variables of the residual QBF) ------------------ *)

(* A variable is branchable when every variable preceding it is assigned,
   i.e. all strict-ancestor blocks are fully assigned. *)
let available s v =
  (not (is_assigned s v))
  &&
  let rec up b = b < 0 || (s.block_unassigned.(b) = 0 && up s.block_parent.(b)) in
  up s.block_parent.(s.block_of.(v))

(* --- construction ------------------------------------------------------ *)

(* Tables derived from the prefix alone (per-variable quantifier, block
   membership, DFS timestamps, reducibility).  Recomputed wholesale on
   {!extend}: a prefix extension renumbers the DFS. *)
type tables = {
  t_is_exist : bool array;
  t_block_of : int array;
  t_block_parent : int array;
  t_block_size : int array;
  t_d : int array;
  t_f : int array;
  t_plevel : int array;
  t_drop_ok : bool array;
  t_is_aux : bool array;
}

let prefix_tables prefix config =
  let nvars = Prefix.nvars prefix in
  let n = max nvars 1 in
  let nb = Prefix.num_blocks prefix in
  let nblocks = max nb 1 in
  let is_exist =
    Array.init n (fun v -> v < nvars && Prefix.is_exists prefix v)
  in
  (* drop_ok: existential variables with no universal block strictly
     below theirs — their literals vanish under existential reduction of
     any cube. *)
  let univ_below = Array.make nblocks false in
  for b = nb - 1 downto 0 do
    univ_below.(b) <-
      Array.exists
        (fun c ->
          univ_below.(c) || Quant.is_forall (Prefix.block_quant prefix c))
        (Prefix.block_children prefix b)
  done;
  let drop_ok = Array.make n false in
  let is_aux = Array.make n false in
  for v = 0 to nvars - 1 do
    drop_ok.(v) <- is_exist.(v) && not univ_below.(Prefix.block_of prefix v);
    match config.hints.aux_hint with
    | Some h -> is_aux.(v) <- drop_ok.(v) && h v
    | None -> ()
  done;
  {
    t_is_exist = is_exist;
    t_block_of =
      Array.init n (fun v -> if v < nvars then Prefix.block_of prefix v else 0);
    t_block_parent =
      Array.init nblocks (fun b ->
          if b < nb then Prefix.block_parent prefix b else -1);
    t_block_size =
      Array.init nblocks (fun b ->
          if b < nb then Array.length (Prefix.block_vars prefix b) else 0);
    t_d =
      Array.init n (fun v ->
          if v < nvars then Prefix.discovery prefix v else 0);
    t_f =
      Array.init n (fun v -> if v < nvars then Prefix.finish prefix v else 0);
    t_plevel =
      Array.init n (fun v -> if v < nvars then Prefix.level prefix v else 0);
    t_drop_ok = drop_ok;
    t_is_aux = is_aux;
  }

(* Attach a trace writer: declare the current prefix and register every
   active original clause already in the database.  Constraints added
   later register themselves ({!add_constraint}, Analyze).  Called by
   {!create}, before any solving, so every future antecedent carries a
   proof id. *)
let attach_proof s p =
  s.proof <- Some p;
  for v = 0 to s.nvars - 1 do
    Proof.declare_var p ~var:v ~exist:s.is_exist.(v) ~d:s.d.(v) ~f:s.f.(v)
  done;
  for k = 0 to Db.num_originals s.db - 1 do
    let cid = Db.original s.db k in
    if Db.active s.db cid && Db.pid s.db cid = 0 then begin
      let pid = Proof.fresh_pid p in
      Db.set_pid s.db cid pid;
      Proof.input_clause p ~pid (Db.lits_list s.db cid)
    end
  done

(* Build the state of [formula].  A proof writer needs every pivot to
   carry a reason constraint (a pure-assigned one has none) and every
   conclusion to come out of a resolution derivation (a chronological
   engine derives nothing), so [?proof] forces pure-literal fixing off
   and learning on for the state's lifetime and attaches the writer (see
   Proof).  A collector in [config.observe.obs] gets a reader of the
   state's counters: it closes over the stats record only, so the
   collector does not keep the state alive. *)
let create ?proof formula config =
  let config =
    match proof with
    | Some _ -> config |> with_pure_literals false |> with_learning true
    | None -> config
  in
  let prefix = Formula.prefix formula in
  let nvars = Prefix.nvars prefix in
  let n = max nvars 1 in
  let nblocks = max (Prefix.num_blocks prefix) 1 in
  let tb = prefix_tables prefix config in
  let s =
    {
      prefix;
      nvars;
      config;
      stats = empty_stats ();
      db = Db.create ();
      occ = Array.init (2 * n) (fun _ -> Vec.create (-1));
      watch_cl = Array.init (2 * n) (fun _ -> Vec.create (-1));
      watch_cu = Array.init (2 * n) (fun _ -> Vec.create (-1));
      qepoch = 1;
      value = Array.make n (-1);
      reason = Array.make n Decision;
      vlevel = Array.make n (-1);
      pos = Array.make n (-1);
      saved_phase = Array.make n (-1);
      trail = Vec.create (-1);
      trail_lim = Vec.create (-1);
      dec_flipped = Vec.create false;
      is_exist = tb.t_is_exist;
      block_of = tb.t_block_of;
      block_parent = tb.t_block_parent;
      block_unassigned = Array.copy tb.t_block_size;
      d = tb.t_d;
      f = tb.t_f;
      plevel = tb.t_plevel;
      obs = (match config.observe.obs with Some o -> o | None -> Obs.none);
      pos_unsat = Array.make (2 * n) 0;
      counter = Array.make (2 * n) 0;
      act = Array.make (2 * n) 0.;
      last_counter = Array.make (2 * n) 0;
      unsat_originals = 0;
      num_original = 0;
      conflict_q = Vec.create (-1);
      unit_q = Vec.create (-1);
      cubesat_q = Vec.create (-1);
      pure_q = Vec.create (-1);
      parked_q = Vec.create (-1);
      pure_defer_q = Vec.create (-1);
      stop_ticks = 0;
      drop_ok = tb.t_drop_ok;
      is_aux = tb.t_is_aux;
      po_block_best = Array.make nblocks 0.;
      po_child_max = Array.make nblocks 0.;
      frame_level = 0;
      retracted_constraints = 0;
      proof = None;
      an_epoch = 0;
      an_work = Array.make (2 * n) 0;
      an_merged = Array.make n 0;
      an_cover = Array.make (2 * n) 0;
      an_seen = Array.make (2 * n) 0;
      an_level = Array.make (n + 1) 0;
      an_block = Array.make nblocks 0;
    }
  in
  List.iter
    (fun c ->
      if not (Clause.is_tautology c) then
        let lits = Array.map (fun l -> (l : Lit.t :> int)) (Clause.lits c) in
        ignore (add_constraint s Clause_c ~learned:false lits))
    (Formula.matrix formula);
  (* Initial activities mirror the occurrence counters; universal literals
     score by the occurrences of their negation (Section VI). *)
  for l = 0 to (2 * nvars) - 1 do
    let sel = if s.is_exist.(var l) then l else neg l in
    s.act.(l) <- float_of_int s.counter.(sel);
    s.last_counter.(l) <- s.counter.(sel)
  done;
  (* Initial purity candidates: literals with no occurrence at all. *)
  if config.search.pure_literals then
    for l = 0 to (2 * nvars) - 1 do
      if s.pos_unsat.(l) = 0 then Vec.push s.pure_q l
    done;
  (match proof with Some p -> attach_proof s p | None -> ());
  (match config.observe.obs with
  | Some o ->
      let stats = s.stats in
      Obs.attach o (fun () -> counters stats)
  | None -> ());
  s

(* Take an active constraint out of the occurrence/purity counters; the
   shared tail of DB-reduction deletion and session retraction.
   Occurrence lists keep the stale id until the next {!compact_db}
   (touches check [active]). *)
let drop_from_counters s cid =
  Db.deactivate s.db cid;
  Db.iter_lits s.db cid (fun m -> s.counter.(m) <- s.counter.(m) - 1);
  if
    (not (Db.is_cube s.db cid))
    && (not (Db.learned s.db cid))
    && Db.fixed s.db cid = 0
  then
    Db.iter_lits s.db cid (fun m ->
        s.pos_unsat.(m) <- s.pos_unsat.(m) - 1;
        if s.pos_unsat.(m) = 0 && s.config.search.pure_literals then
          Vec.push s.pure_q m)

(* Deactivate a learned constraint (DB reduction): it stops
   participating in propagation and purity.  The caller guarantees the
   constraint is not the reason of any assigned variable. *)
let deactivate_constraint s cid =
  if Db.active s.db cid then begin
    drop_from_counters s cid;
    s.stats.deleted_constraints <- s.stats.deleted_constraints + 1;
    let o = s.obs in
    if o.Obs.trace_on then
      Trace.emit o.Obs.trace Trace.Delete ~dlevel:(current_level s)
        ~plevel:0 ~arg:cid
  end

(* Session retraction: unlike DB reduction this may remove *original*
   constraints, so the matrix bookkeeping ([num_original],
   [unsat_originals]) is maintained too.  Requires an empty trail (the
   session clears it first), so an active clause has [fixed = 0]. *)
let retract_constraint s cid =
  if Db.active s.db cid then begin
    if not (Db.learned s.db cid) then begin
      s.num_original <- s.num_original - 1;
      if (not (Db.is_cube s.db cid)) && Db.fixed s.db cid = 0 then
        s.unsat_originals <- s.unsat_originals - 1
    end;
    drop_from_counters s cid;
    s.retracted_constraints <- s.retracted_constraints + 1;
    (* The constraint is no longer derivable from the surviving matrix
       (popped frame, or a term outdated by growth): kill its proof id
       so the checker rejects any later reference.  DB reduction, by
       contrast, emits nothing — a reduced constraint stays a valid
       Q-consequence, the solver merely stops using it. *)
    match s.proof with
    | Some p ->
        let pid = Db.pid s.db cid in
        if pid > 0 then Proof.retract p ~pid
    | None -> ()
  end

(* --- compaction --------------------------------------------------------- *)

(* Reclaim every deactivated slot: compact the arena and patch every
   structure that holds constraint ids — occurrence lists, watch lists,
   assigned reasons, discovery queues.  Ids move but insertion order is
   preserved, in the arena and in its original-clause index, so the
   cover in Analyze keeps visiting the matrix in the same order.

   Caller contract: no deactivated constraint may be the reason of an
   assigned variable (DB reduction keeps locked constraints; session
   retraction runs on an empty trail).  Queues may be non-empty — a
   just-learned constraint announces its asserting state through them —
   so their entries are remapped, dropping the dead.  Returns the
   relocation map for callers tracking ids of their own. *)
let compact_db s =
  let reloc = Db.compact s.db in
  let nreloc = Array.length reloc in
  let patch_vec q =
    let i = ref 0 in
    while !i < Vec.length q do
      let cid = Vec.get q !i in
      let nid = if cid >= 0 && cid < nreloc then reloc.(cid) else -1 in
      if nid >= 0 then begin
        Vec.set q !i nid;
        incr i
      end
      else Vec.swap_remove q !i
    done
  in
  Array.iter patch_vec s.occ;
  Array.iter patch_vec s.watch_cl;
  Array.iter patch_vec s.watch_cu;
  patch_vec s.conflict_q;
  patch_vec s.unit_q;
  patch_vec s.cubesat_q;
  patch_vec s.parked_q;
  for v = 0 to s.nvars - 1 do
    match s.reason.(v) with
    | Reason rid ->
        if is_assigned s v then begin
          let nid = reloc.(rid) in
          assert (nid >= 0);
          s.reason.(v) <- Reason nid
        end
        else s.reason.(v) <- Decision
    | Decision | Flipped | Pure -> ()
  done;
  reloc

(* Periodic activity update (Section VI): halve and add the variation of
   the tracked occurrence counter since the previous update. *)
let rescale_activities s =
  for l = 0 to (2 * s.nvars) - 1 do
    let sel = if s.is_exist.(var l) then l else neg l in
    let delta = s.counter.(sel) - s.last_counter.(l) in
    s.act.(l) <- (s.act.(l) /. 2.) +. float_of_int delta;
    s.last_counter.(l) <- s.counter.(sel)
  done

(* --- incremental-session support ---------------------------------------- *)

(* Undo the entire trail, including level-0 assignments.  Level-0 units
   and pures may have been propagated from constraints a session
   mutation (clause addition, prefix growth, pop) is about to retract or
   outdate, so their reasons cannot be trusted across the mutation;
   propagation re-derives them cheaply on the next solve. *)
let clear_trail s =
  backtrack s 0;
  while Vec.length s.trail > 0 do
    unassign s (Vec.pop s.trail)
  done;
  clear_queues s;
  (* with an empty assignment almost every parked constraint regains an
     eligible pair, so the registry drains here instead of carrying
     stale entries across session mutations *)
  repair_parked s

(* Retract every active constraint whose frame exceeds [frame]: the
   originals of popped frames and every learned constraint whose
   derivation resolved with one (Analyze tags learned constraints with
   the maximum antecedent frame).  Requires an empty trail. *)
let retract_above s frame =
  assert (Vec.length s.trail = 0);
  for cid = 0 to Db.size s.db - 1 do
    if Db.active s.db cid && Db.frame s.db cid > frame then
      retract_constraint s cid
  done

(* Learned cubes certify the matrix *as it stood* when they were
   derived: a true cube records assignments under which every clause
   then present was satisfied.  A freshly added clause can falsify that
   certificate, so cubes are dropped whenever the matrix grows.  Learned
   clauses survive: they are Q-resolution consequences of a subset of
   the matrix, and adding clauses cannot invalidate such a derivation
   (the extension must also preserve ≺ on old variable pairs, which is
   the session's growth contract — the derivations' universal-reduction
   steps, Lemma 3, only ever compared old pairs). *)
let invalidate_cubes s =
  assert (Vec.length s.trail = 0);
  for cid = 0 to Db.size s.db - 1 do
    if Db.active s.db cid && Db.is_cube s.db cid then retract_constraint s cid
  done

(* Refill the discovery queues from scratch: constraints added during
   earlier solve calls must re-announce their unit/conflict/solution
   states (their add-time queue entries died with the queues).  Runs on
   an empty trail, so a clause is unit/conflicting iff it simply has
   few existential literals. *)
let requeue_all s =
  for cid = 0 to Db.size s.db - 1 do
    if Db.active s.db cid then
      if Db.watched s.db cid then classify_and_queue s cid
      else check_state s (Db.kind s.db cid) cid
  done

(* Re-seed purity candidates (the mirror of the loop in [create]). *)
let reseed_pure_queue s =
  if s.config.search.pure_literals then
    for l = 0 to (2 * s.nvars) - 1 do
      if s.pos_unsat.(l) = 0 then Vec.push s.pure_q l
    done

let grow_array a n fill =
  if Array.length a >= n then a
  else begin
    let b = Array.make n fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Grow the state in place to an extended prefix.  Preconditions,
   enforced by Session: the trail is empty ({!clear_trail} first), every
   old variable keeps its id and quantifier, and ≺ restricted to
   old-variable pairs is unchanged (the soundness contract above).  All
   prefix-derived tables are recomputed — extension renumbers block ids
   and d/f timestamps — while per-variable search state (assignments,
   activities, occurrence counters, saved phases) is preserved for old
   variables. *)
let extend s prefix =
  assert (Vec.length s.trail = 0 && current_level s = 0);
  let nvars = Prefix.nvars prefix in
  assert (nvars >= s.nvars);
  let n = max nvars 1 in
  let tb = prefix_tables prefix s.config in
  s.prefix <- prefix;
  s.nvars <- nvars;
  s.is_exist <- tb.t_is_exist;
  s.block_of <- tb.t_block_of;
  s.block_parent <- tb.t_block_parent;
  s.block_unassigned <- Array.copy tb.t_block_size;
  s.d <- tb.t_d;
  s.f <- tb.t_f;
  s.plevel <- tb.t_plevel;
  s.drop_ok <- tb.t_drop_ok;
  s.is_aux <- tb.t_is_aux;
  s.value <- grow_array s.value n (-1);
  s.reason <- grow_array s.reason n Decision;
  s.vlevel <- grow_array s.vlevel n (-1);
  s.pos <- grow_array s.pos n (-1);
  s.saved_phase <- grow_array s.saved_phase n (-1);
  s.pos_unsat <- grow_array s.pos_unsat (2 * n) 0;
  s.counter <- grow_array s.counter (2 * n) 0;
  s.act <- grow_array s.act (2 * n) 0.;
  s.last_counter <- grow_array s.last_counter (2 * n) 0;
  s.an_work <- grow_array s.an_work (2 * n) 0;
  s.an_merged <- grow_array s.an_merged n 0;
  s.an_cover <- grow_array s.an_cover (2 * n) 0;
  s.an_seen <- grow_array s.an_seen (2 * n) 0;
  s.an_level <- grow_array s.an_level (n + 1) 0;
  if Array.length s.occ < 2 * n then begin
    let old = s.occ in
    s.occ <-
      Array.init (2 * n) (fun l ->
          if l < Array.length old then old.(l) else Vec.create (-1))
  end;
  let grow_watches a =
    if Array.length a < 2 * n then
      Array.init (2 * n) (fun l ->
          if l < Array.length a then a.(l) else Vec.create (-1))
    else a
  in
  s.watch_cl <- grow_watches s.watch_cl;
  s.watch_cu <- grow_watches s.watch_cu;
  let nblocks = max (Prefix.num_blocks prefix) 1 in
  if Array.length s.po_block_best < nblocks then begin
    s.po_block_best <- Array.make nblocks 0.;
    s.po_child_max <- Array.make nblocks 0.
  end;
  s.an_block <- grow_array s.an_block nblocks 0;
  (* An extension renumbers the DFS timestamps: re-declare every
     variable so the checker's ≺ relation tracks the grown prefix. *)
  match s.proof with
  | Some p ->
      for v = 0 to nvars - 1 do
        Proof.declare_var p ~var:v ~exist:s.is_exist.(v) ~d:s.d.(v)
          ~f:s.f.(v)
      done
  | None -> ()
