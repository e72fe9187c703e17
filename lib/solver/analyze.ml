(* Conflict and solution analysis, written once for both players.

   A conflict (falsified clause) is analysed by Q-resolution, a solution
   (satisfied matrix or true cube) dually by term resolution; [~cube]
   selects the side.  One loop ([derive]) serves both: reduce the working
   set (universal reduction of a clause, existential reduction of a
   cube), then resolve its trail-deepest *primary* literal (see State)
   with that literal's unit reason of the same kind, until the set is
   asserting; then backjump and learn it as a nogood or a good.

   Analysis works in long-distance Q/term resolution: a clash of
   polarities on a non-primary variable that the pivot ≺-precedes is
   folded into the resolvent as a merged pair (Zhang-Malik; sound by
   Balabanov-Jiang, with the quantifier tree as the dependency order).
   Whenever analysis would still need a step outside that system — an
   inadmissible tautological resolvent, a pivot assigned by a decision
   or a pure literal, a settling literal entering the working set — it
   falls back to the sound chronological flip of plain Q-DLL (deepest
   unflipped decision of the losing player).  Learning is therefore an
   accelerator and never a soundness risk.

   No analysis step allocates a table: the working set and every mark
   are epoch-stamped arrays in State, and the solution cover walks the
   Constraint_db index of original clauses, not the whole arena.

   Learned-DB lifecycle hooks live here too: every constraint that takes
   part in a resolution (the starting conflict/cube and each antecedent
   resolved on) gets its activity bumped, the per-analysis decay runs
   once per leaf, and the learned constraint is scored with a quantified
   LBD analog — the number of distinct decision levels among its
   assigned literals, computed against the pre-backjump assignment —
   which DB reduction later uses to keep glue. *)

open Solver_types
module S = State
module Db = Constraint_db
module Obs = Qbf_obs.Obs
module Metrics = Qbf_obs.Metrics
module Trace = Qbf_obs.Trace

(* Guarded emits for a learning-driven backjump: the learned constraint
   (clause or cube, arg = its size) and the jump itself (arg = target
   level).  [from_level] is the level before the backtrack. *)
let note_learn s ~cube ~size ~from_level ~to_level =
  let o = s.S.obs in
  if o.Obs.metrics_on then begin
    (if cube then Metrics.on_learn_cube o.Obs.metrics ~size
     else Metrics.on_learn_clause o.Obs.metrics ~size);
    Metrics.on_backjump o.Obs.metrics ~from_level ~to_level
  end;
  if o.Obs.trace_on then begin
    Trace.emit o.Obs.trace
      (if cube then Trace.Learn_cube else Trace.Learn_clause)
      ~dlevel:to_level ~plevel:0 ~arg:size;
    Trace.emit o.Obs.trace Trace.Backjump ~dlevel:from_level ~plevel:0
      ~arg:to_level
  end

type conclusion =
  | Concluded of outcome
  | Continue

let kind_of ~cube = if cube then Cube_c else Clause_c

let fresh_epoch s =
  s.S.an_epoch <- s.S.an_epoch + 1;
  s.S.an_epoch

(* Quantified LBD analog of a constraint about to be learned: distinct
   decision levels among its assigned literals, against the assignment
   *before* the backjump.  Clauses and cubes score through the same
   definition — each is a set of literals pinned by its own player's
   levels — so their glue values are comparable within a kind, which is
   all DB reduction compares. *)
let lbd_of s lits =
  let e = fresh_epoch s in
  Array.fold_left
    (fun n l ->
      let v = S.var l in
      if S.is_assigned s v && s.S.an_level.(s.S.vlevel.(v)) <> e then begin
        s.S.an_level.(s.S.vlevel.(v)) <- e;
        n + 1
      end
      else n)
    0 lits

(* ---------- chronological fallback (plain Q-DLL backtracking) --------- *)

(* Flip the deepest unflipped decision owned by the losing player:
   existential decisions for a FALSE leaf, universal for a TRUE leaf. *)
let chrono s ~exist_side =
  let rec find lvl =
    if lvl < 1 then None
    else
      let dec_lit = Vec.get s.S.trail (Vec.get s.S.trail_lim (lvl - 1)) in
      let flipped = Vec.get s.S.dec_flipped (lvl - 1) in
      if (not flipped) && s.S.is_exist.(S.var dec_lit) = exist_side then
        Some (lvl, dec_lit)
      else find (lvl - 1)
  in
  match find (S.current_level s) with
  | None -> Concluded (if exist_side then False else True)
  | Some (lvl, dec_lit) ->
      S.backtrack s (lvl - 1);
      S.new_decision s (S.neg dec_lit) ~flipped:true;
      Continue

(* ---------- working set ------------------------------------------------ *)

exception Fallback

(* The current literals, newest first, stamped [epoch] in [an_work];
   merged (long-distance) variables, all members, in [an_merged]. *)
type work = { mutable epoch : int; mutable members : int list }

let work_create s = { epoch = fresh_epoch s; members = [] }
let is_merged s w v = s.S.an_merged.(v) = w.epoch

(* [bad] rejects literals that would break the working-set invariant of
   search-time analysis: no settling literal (see State).

   A clash of polarities is not always fatal: long-distance Q-resolution
   (Zhang-Malik; proved sound by Balabanov-Jiang) admits the
   tautological pair as a *merged* literal when its variable is
   non-primary and the pivot of the resolution ≺-precedes it — on a
   quantifier tree the merged variable's player sees the pivot, so the
   pair reads as "choose the polarity per branch of the pivot".
   [merge], when given, carries [(cube, pivot_var)] of the step being
   replayed; merged variables keep their first-seen polarity in
   [members], are reduced under the normal rule, and — when they
   survive to a learned constraint — are stored with both polarities,
   which the propositional engines read as a weaker (hence sound)
   constraint that still asserts its pivot at the backjump level, where
   the pair is unassigned. *)
let work_add s w ~bad ?merge l =
  let v = S.var l in
  if s.S.an_work.(S.neg l) = w.epoch then begin
    if not (is_merged s w v) then
      match merge with
      | Some (cube, pvar)
        when (not (S.primary s (kind_of ~cube) l)) && S.precedes s pvar v ->
          s.S.an_merged.(v) <- w.epoch
      | _ -> raise Fallback (* tautological resolvent *)
  end
  else if s.S.an_work.(l) <> w.epoch then begin
    if bad (S.lit_value s l) then raise Fallback;
    s.S.an_work.(l) <- w.epoch;
    w.members <- l :: w.members
  end

(* Keep the members satisfying [keep], in order; unstamp the others. *)
let work_filter s w keep =
  w.members <-
    List.filter
      (fun l ->
        let k = keep l in
        if not k then begin
          s.S.an_work.(l) <- 0;
          s.S.an_merged.(S.var l) <- 0
        end;
        k)
      w.members

(* Resolve [rid] into the working set: add every literal but the pivot's.
   A learned constraint may itself carry a merged pair (both polarities
   of a variable); such a pair is *inherited* — its admissibility was
   established when the constraint was derived, so it enters the working
   set as a merged variable with no further side condition (and no value
   check: merged literals are syntactic, the assignment plays no role in
   their soundness). *)
let add_antecedent s w ~bad ~cube ~pvar rid =
  let db = s.S.db in
  let e = fresh_epoch s in
  Db.iter_lits db rid (fun m -> s.S.an_seen.(m) <- e);
  let merge = Some (cube, pvar) in
  Db.iter_lits db rid (fun m ->
      let v = S.var m in
      if v <> pvar then
        if s.S.an_seen.(S.neg m) = e then begin
          if s.S.an_work.(m) <> w.epoch && s.S.an_work.(S.neg m) <> w.epoch
          then begin
            s.S.an_work.(m) <- w.epoch;
            w.members <- m :: w.members
          end;
          s.S.an_merged.(v) <- w.epoch
        end
        else work_add s w ~bad ?merge m)

(* Universal reduction of the working clause (Lemma 3), existential
   reduction of the working cube: drop the non-primary literals that
   precede no primary of the set.  Removing such a literal never unblocks
   another, so one pass reaches the fixpoint.  d/f stamp blocks, so a
   variable precedes a primary iff its block is a strict ancestor of the
   primary's: stamp the primaries' ancestor blocks, keep what they hit. *)
let reduce_work s w ~cube =
  let kind = kind_of ~cube in
  let e = fresh_epoch s in
  let rec mark b =
    if b >= 0 && s.S.an_block.(b) <> e then begin
      s.S.an_block.(b) <- e;
      mark s.S.block_parent.(b)
    end
  in
  List.iter
    (fun l ->
      if S.primary s kind l then mark s.S.block_parent.(s.S.block_of.(S.var l)))
    w.members;
  work_filter s w (fun l ->
      S.primary s kind l || s.S.an_block.(s.S.block_of.(S.var l)) = e)

(* Deepest primary of the working set: the next pivot (the earlier
   member wins a tie). *)
let deepest_primary s w ~cube =
  let kind = kind_of ~cube in
  List.fold_left
    (fun best l ->
      match best with
      | _ when not (S.primary s kind l) -> best
      | Some b when s.S.pos.(S.var l) <= s.S.pos.(S.var b) -> best
      | _ -> Some l)
    None w.members

(* A *trailing* literal — a non-primary one that does not ≺-precede the
   pivot — can never block the learned constraint from asserting its
   pivot: the unit rules only consult non-primary literals that precede
   the unit literal.  Such literals are therefore invisible to the
   asserting-stop test and to the backjump level, exactly as if
   reduction had already removed them at the propagation site.  Merged
   variables are excluded here and judged separately by [merged_ok]. *)
let max_level_of_others s w ~cube pivot =
  let kind = kind_of ~cube in
  List.fold_left
    (fun acc l ->
      let v = S.var l in
      if
        l = pivot || is_merged s w v || (not (S.is_assigned s v))
        || not (S.primary s kind l || S.precedes s v (S.var pivot))
      then acc
      else max acc s.S.vlevel.(v))
    0 w.members

(* A merged pair may survive into the learned constraint only when it
   cannot interfere with the assertion: the merged variable must not
   ≺-precede the pivot (an unassigned opposite-kind variable preceding
   the unit literal blocks the unit rules), and an assigned one must
   come unassigned at the backjump — one satisfied polarity would park
   the stored constraint as trivially fixed and lose the assertion. *)
let merged_ok s w ~beta pivot =
  List.for_all
    (fun l ->
      let v = S.var l in
      (not (is_merged s w v))
      || (not (S.precedes s v (S.var pivot)))
         && ((not (S.is_assigned s v)) || s.S.vlevel.(v) > beta))
    w.members

(* Merged variables are emitted with both polarities: the recorded
   resolvent (and the stored constraint) carries the pair. *)
let sorted_lits s w =
  List.sort_uniq Int.compare
    (List.concat_map
       (fun l -> if is_merged s w (S.var l) then [ l; S.neg l ] else [ l ])
       w.members)

(* ---------- proof emission --------------------------------------------- *)

(* Translate an analysis chain — (pivot variable, antecedent constraint
   id) pairs, newest first — into proof ids and emit the resolution
   record.  Returns the resolvent's proof id, or 0 if any antecedent
   lost its registration; the trace then stays incomplete rather than
   wrong and the engine reports [No_witness]. *)
let emit_step s p ~cube ~first ~rev_chain ~lits =
  let db = s.S.db in
  let chain =
    List.rev_map (fun (pvar, cid) -> (pvar, Db.pid db cid)) rev_chain
  in
  if first = 0 || List.exists (fun (_, a) -> a = 0) chain then 0
  else begin
    let pid = Proof.fresh_pid p in
    Proof.step p ~cube ~pid ~first ~chain ~lits;
    pid
  end

(* Finish a concluded analysis for the trace.  When analysis stops at a
   level-0 pivot the working set is not yet empty: keep resolving the
   deepest remaining pivot with its unit reason, reduction interleaved,
   until reduction empties the set.  Every such step stays inside plain
   Q/term resolution because with pure-literal fixing off every level-0
   assignment is a unit propagation.  This runs entirely outside the
   search — no bumps, no learning — and any surprise aborts emission
   (incomplete trace) instead of touching the outcome.

   The drain is a purely syntactic derivation that the checker
   re-validates, so it checks no values: when a conflict at a deeper
   level concludes through a level-0 pivot, that pivot's antecedent may
   carry trailing non-primary literals still assigned from the deeper
   levels.  Clashes still obey the merge rule of [work_add]. *)
let conclude s p ~cube ~first ~rev_chain w =
  let db = s.S.db in
  let bound = 5000 + (4 * s.S.nvars) in
  let bad _ = false in
  let rec drain chain n =
    if n > bound then raise Fallback;
    reduce_work s w ~cube;
    match deepest_primary s w ~cube with
    | None -> if w.members = [] then chain else raise Fallback
    | Some e -> (
        match s.S.reason.(S.var e) with
        | Reason rid when Db.is_cube db rid = cube ->
            work_filter s w (fun m -> m <> e);
            add_antecedent s w ~bad ~cube ~pvar:(S.var e) rid;
            drain ((S.var e, rid) :: chain) (n + 1)
        | Reason _ | Decision | Flipped | Pure -> raise Fallback)
  in
  match drain rev_chain 0 with
  | rev_chain -> (
      match emit_step s p ~cube ~first ~rev_chain ~lits:[] with
      | 0 -> ()
      | pid -> Proof.final p ~outcome:cube ~pid)
  | exception Fallback -> ()

(* ---------- the analysis loop ------------------------------------------ *)

(* Clause resolution for a conflict, term resolution for a solution,
   from a seeded working set [w] whose first constraint has proof id
   [first].  Reduce, then stop if the deepest primary [e] is asserting —
   no other literal that could block it sits at [e]'s level ([beta <
   lvl]), no unassigned literal precedes it, its merged pairs are
   admissible — else resolve [e] away with its reason.  An empty set of
   primaries, or a pivot at level 0, concludes the formula. *)
let derive s ~cube ~first ~max_frame w =
  let db = s.S.db in
  let kind = kind_of ~cube in
  let bad = S.settles kind in
  let max_frame = ref max_frame in
  (* Resolution chain for the trace, (pivot var, antecedent id) newest
     first; only maintained while a writer is attached. *)
  let tracing = s.S.proof <> None in
  let pchain = ref [] in
  let concluded () =
    (match s.S.proof with
    | Some p -> conclude s p ~cube ~first ~rev_chain:!pchain w
    | None -> ());
    Concluded (if cube then True else False)
  in
  let bound = 5000 + (4 * s.S.nvars) in
  let rec loop n =
    if n > bound then raise Fallback;
    reduce_work s w ~cube;
    match deepest_primary s w ~cube with
    | None -> concluded ()
    | Some e ->
        let lvl = s.S.vlevel.(S.var e) in
        if lvl = 0 then concluded ()
        else
          let ok_scope =
            List.for_all
              (fun l ->
                S.is_assigned s (S.var l)
                || not (S.precedes s (S.var l) (S.var e)))
              w.members
          in
          let beta = max_level_of_others s w ~cube e in
          if beta < lvl && ok_scope && merged_ok s w ~beta e then begin
            let lits = Array.of_list (sorted_lits s w) in
            let lbd = lbd_of s lits in
            let from_level = S.current_level s in
            (* backtrack *before* adding: the constraint picks its
               watches and announces its asserting unit against the
               post-backjump assignment *)
            S.backtrack s beta;
            let cid =
              S.add_constraint s kind ~learned:true ~frame:!max_frame ~lbd lits
            in
            Db.bump db cid;
            if cube then s.S.stats.learned_cubes <- s.S.stats.learned_cubes + 1
            else s.S.stats.learned_clauses <- s.S.stats.learned_clauses + 1;
            s.S.stats.backjumps <- s.S.stats.backjumps + 1;
            note_learn s ~cube ~size:(Array.length lits) ~from_level
              ~to_level:beta;
            (match s.S.proof with
            | Some p -> (
                match
                  emit_step s p ~cube ~first ~rev_chain:!pchain
                    ~lits:(Array.to_list lits)
                with
                | 0 -> ()
                | pid -> Db.set_pid db cid pid)
            | None -> ());
            Continue
          end
          else
            match s.S.reason.(S.var e) with
            | Reason rid when Db.is_cube db rid = cube ->
                if Db.frame db rid > !max_frame then
                  max_frame := Db.frame db rid;
                Db.bump db rid;
                if tracing then pchain := (S.var e, rid) :: !pchain;
                work_filter s w (fun m -> m <> e);
                add_antecedent s w ~bad ~cube ~pvar:(S.var e) rid;
                loop (n + 1)
            | Reason _ | Decision | Flipped | Pure -> raise Fallback
  in
  loop 0

(* A conflict seeds the working clause with the falsified clause.  The
   learned clause depends on every session frame an antecedent depends
   on, so it is tagged with the maximum and retracted when any of them
   is popped. *)
let analyze_conflict s cid0 =
  let db = s.S.db in
  let w = work_create s in
  Db.iter_lits db cid0 (work_add s w ~bad:(S.settles Clause_c));
  Db.bump db cid0;
  derive s ~cube:false ~first:(Db.pid db cid0) ~max_frame:(Db.frame db cid0) w

(* ---------- solution analysis ------------------------------------------ *)

(* Initial good (Section III): a set S of literals propositionally
   entailing the original matrix, taken as the starting cube of solution
   analysis after existential reduction.

   S need not lie inside the current assignment: any consistent
   entailing set is a sound good.  We exploit this for auxiliary-style
   variables — existentials with no universal anywhere in their ≺-scope
   ([drop_ok]), e.g. the CNF-conversion gates of the diameter instances.
   Their literals are removed by existential reduction no matter what,
   so covering a clause with such a literal (even *virtually*, using the
   opposite of the variable's current pure-assigned value, as long as the
   choice stays consistent across S) contributes nothing to the learned
   cube.  This keeps goods down to the literals that actually matter
   (the paper's Section VII-C goods contain only the universal literals
   assigned and the x^{n+1} bits).  If the virtual choices ever fail to
   cover a clause, we restart with the plain current-assignment cover.

   Priorities per clause: a literal already in S; a true reducible
   existential; a virtual reducible pure-assigned existential; a true
   existential; the earliest-assigned true universal. *)
exception Cover_stuck

let cover_with s w ~virtual_flips =
  let db = s.S.db in
  let bad = S.settles Cube_c in
  let e = fresh_epoch s in
  let chosen = s.S.an_cover in
  let picked = ref [] in
  let choose m =
    chosen.(m) <- e;
    picked := m :: !picked;
    if not s.S.drop_ok.(S.var m) then work_add s w ~bad m
  in
  (* Candidate ranks, smaller is better; only free variables compete:
     1 — negative reducible literal (self-covering for one-directional
         CNF-conversion gates, whose definitions all contain the
         negated gate; virtually flipped if the variable is a declared
         auxiliary);
     2 — positive reducible literal, true or unassigned;
     3 — true non-reducible existential;
     4 — virtually flipped positive auxiliary;
     5 — true universal (earliest assigned first);
     max_int — cannot cover. *)
  let rank m =
    let v = S.var m in
    let value = S.lit_value s m in
    if s.S.drop_ok.(v) then
      if m land 1 = 1 (* negative literal *) then
        if value <> 0 || (virtual_flips && s.S.is_aux.(v)) then 1 else max_int
      else if value <> 0 then 2
      else if virtual_flips && s.S.is_aux.(v) then 4
      else max_int
    else if value = 1 then if s.S.is_exist.(v) then 3 else 5
    else max_int
  in
  (* Original clauses are processed newest-first, through the arena's
     index of them: CNF conversion emits gate definitions before the
     clauses that use the gates, so reverse order sees each disjunction
     before its gates' definitions and picks the structurally cheap
     cover.  (Compaction filters the index stably, so this order survives
     DB reduction and session retraction.) *)
  for k = Db.num_originals db - 1 downto 0 do
    let cid = Db.original db k in
    if Db.active db cid && not (Db.exists_lit db cid (fun m -> chosen.(m) = e))
    then begin
      (* nothing here is chosen: [m] is free iff [neg m] is not *)
      let best = ref (-1) and best_rank = ref max_int in
      Db.iter_lits db cid (fun m ->
          if chosen.(S.neg m) <> e then
            let r = rank m in
            if
              r < !best_rank
              || (r = !best_rank && r = 5
                 && s.S.pos.(S.var m) < s.S.pos.(S.var !best))
            then begin
              best := m;
              best_rank := r
            end);
      if !best < 0 then raise Cover_stuck;
      choose !best
    end
  done;
  (* Full chosen set, including reducible/virtual literals that never
     enter the working cube: the trace's axiom term records all of it,
     and the checker's own existential reduction brings it back to the
     working cube. *)
  !picked

let cover_cube s w =
  try cover_with s w ~virtual_flips:true with
  | Cover_stuck ->
      w.epoch <- fresh_epoch s;
      w.members <- [];
      cover_with s w ~virtual_flips:false

let analyze_solution s source =
  let db = s.S.db in
  let w = work_create s in
  (* A cover good entails the whole current matrix, so it depends on the
     current frame; a cube source carries its recorded frame. *)
  let max_frame =
    match source with
    | Propagate.Cover -> s.S.frame_level
    | Propagate.Cube cid -> Db.frame db cid
  in
  let first =
    match source with
    | Propagate.Cover ->
        let cover = cover_cube s w in
        (match s.S.proof with
        | Some p ->
            let pid = Proof.fresh_pid p in
            Proof.axiom_term p ~pid (List.sort_uniq Int.compare cover);
            pid
        | None -> 0)
    | Propagate.Cube cid ->
        Db.iter_lits db cid (work_add s w ~bad:(S.settles Cube_c));
        Db.bump db cid;
        Db.pid db cid
  in
  derive s ~cube:true ~first ~max_frame w

(* ---------- entry points ------------------------------------------------ *)

(* The losing player's leaf: learn from it, or flip the deepest
   unflipped decision of that player when learning is off or the
   analysis falls back. *)
let handle s ~cube analyze =
  if not s.S.config.search.learning then chrono s ~exist_side:(not cube)
  else begin
    Db.decay s.S.db;
    match analyze () with
    | conclusion -> conclusion
    | exception Fallback ->
        s.S.stats.chrono_fallbacks <- s.S.stats.chrono_fallbacks + 1;
        let o = s.S.obs in
        if o.Obs.trace_on then
          Trace.emit o.Obs.trace Trace.Fallback ~dlevel:(S.current_level s)
            ~plevel:0 ~arg:(if cube then 1 else 0);
        chrono s ~exist_side:(not cube)
  end

let handle_conflict s cid =
  handle s ~cube:false (fun () -> analyze_conflict s cid)

let handle_solution s source =
  handle s ~cube:true (fun () -> analyze_solution s source)
