(* Propagation loop: drains the discovery queues filled by {!State},
   re-verifying each candidate (queues may hold stale entries).  The leaf
   rule and the unit rule are each written once for clauses and cubes, in
   terms of primary and settling literals (see State).  Order:
   conflicting clauses, then a satisfied matrix, then satisfied cubes
   (the two leaf queues stay apart to keep that order), then units, then
   pure literals. *)

open Solver_types
module S = State
module Db = Constraint_db
module Obs = Qbf_obs.Obs
module Trace = Qbf_obs.Trace

type source = Cover | Cube of int

(* One guarded emit per unit ([Trace.Propagation]) or pure
   ([Trace.Pure]) assignment; [l] is the literal made true. *)
let note s kind l =
  let o = s.S.obs in
  if o.Obs.trace_on then
    Trace.emit o.Obs.trace kind ~dlevel:(S.current_level s)
      ~plevel:s.S.plevel.(S.var l) ~arg:l

type outcome =
  | P_conflict of int (* id of a falsified clause *)
  | P_solution of source
  | P_none (* quiescent: decide next *)

(* Watch-maintained constraints carry no counters: their re-verification
   scans the assignment ([S.scan_status]).  When such an entry turns out
   stale, its watches were left broken at push time, so the invariant is
   restored ([S.repair_watches]) — which may legitimately re-enqueue it
   elsewhere (a parked unit clause is pushed on unit_q, never back on
   the queue being drained, so draining terminates). *)

(* Next verified leaf of [kind]: a conflicting clause or a satisfied
   cube (Lemma 4 and its dual). *)
let pop_leaf s kind =
  let db = s.S.db in
  let q = S.leaf_queue s kind in
  let rec go () =
    if Vec.is_empty q then None
    else
      let cid = Vec.pop q in
      Db.set_cq_mark db cid 0;
      if not (Db.active db cid && Db.kind db cid = kind) then go ()
      else if Db.watched db cid then begin
        let opens, fixed = S.scan_status s cid in
        if fixed = 0 && opens = 0 then Some cid
        else begin
          S.repair_watches s cid;
          go ()
        end
      end
      else if Db.fixed db cid = 0 && Db.opens db cid = 0 then Some cid
      else go ()
  in
  go ()

(* The unit rule (Lemma 5 and its dual): a constraint with no settling
   literal, a single open primary [p], and no unassigned non-primary
   literal ≺-preceding [p] forces its owner's move — a clause makes [p]
   true, a cube makes it false. *)
let try_unit s kind cid =
  let p = S.open_primary s kind cid in
  assert (p >= 0);
  if S.unit_blocked s kind cid p then false
  else begin
    let l = match kind with Clause_c -> p | Cube_c -> S.neg p in
    s.S.stats.propagations <- s.S.stats.propagations + 1;
    note s Trace.Propagation l;
    S.assign s l (Reason cid);
    true
  end

let pop_unit s =
  let db = s.S.db in
  let rec go () =
    if Vec.is_empty s.S.unit_q then false
    else
      let cid = Vec.pop s.S.unit_q in
      Db.set_uq_mark db cid 0;
      let fired =
        Db.active db cid
        &&
        if Db.watched db cid then begin
          let opens, fixed = S.scan_status s cid in
          if fixed <> 0 then begin
            S.repair_watches s cid;
            false
          end
          else if opens = 0 then begin
            (* became a leaf after it was queued as unit *)
            S.push_leaf s (Db.kind db cid) cid;
            false
          end
          else
            opens = 1
            && (try_unit s (Db.kind db cid) cid
               ||
               (* blocked: a compatible pair (the forced literal + its
                  blocker) exists, rewatch on it *)
               (S.repair_watches s cid;
                false))
        end
        else
          Db.fixed db cid = 0
          && Db.opens db cid = 1
          && try_unit s (Db.kind db cid) cid
      in
      fired || go ()
  in
  go ()

let assign_pure s l =
  s.S.stats.pure_assignments <- s.S.stats.pure_assignments + 1;
  note s Trace.Pure l;
  S.assign s l Pure

(* Pure-literal fixing.  Universal pures and vanished variables are
   assigned eagerly.  An existential pure whose assignment would satisfy
   clauses (the occurring polarity) is *deferred*: satisfying those
   clauses some other way may later make the variable pure in the
   opposite (negative) polarity, in which case its definition clauses
   are covered by the variable itself — which keeps the initial goods of
   solution learning short.  Deferred pures fire one at a time, only at
   quiescence. *)
let pop_pure s =
  let rec go () =
    if Vec.is_empty s.S.pure_q then false
    else
      let absent = Vec.pop s.S.pure_q in
      let v = S.var absent in
      if s.S.pos_unsat.(absent) = 0 && not (S.is_assigned s v) then
        if s.S.is_exist.(v) && s.S.pos_unsat.(S.neg absent) > 0 then begin
          Vec.push s.S.pure_defer_q absent;
          go ()
        end
        else begin
          (* an existential takes the occurring polarity, a universal the
             absent one (falsifying its occurrences); a vanished variable
             gets an arbitrary fixed polarity *)
          let l = if s.S.is_exist.(v) then S.neg absent else absent in
          assign_pure s l;
          true
        end
      else go ()
  in
  go ()

let pop_deferred_pure s =
  let rec go () =
    if Vec.is_empty s.S.pure_defer_q then false
    else
      let absent = Vec.pop s.S.pure_defer_q in
      let v = S.var absent in
      if s.S.pos_unsat.(absent) = 0 && not (S.is_assigned s v) then begin
        assign_pure s (S.neg absent);
        true
      end
      else go ()
  in
  go ()

(* Run propagation to quiescence or to the first conflict/solution. *)
let run s =
  let pure = s.S.config.search.pure_literals in
  let rec loop () =
    match pop_leaf s Clause_c with
    | Some cid -> P_conflict cid
    | None ->
        if s.S.unsat_originals = 0 then P_solution Cover
        else begin
          match pop_leaf s Cube_c with
          | Some cid -> P_solution (Cube cid)
          | None ->
              if pop_unit s then loop ()
              else if pure && pop_pure s then loop ()
              else if pure && pop_deferred_pure s then loop ()
              else P_none
        end
  in
  loop ()
