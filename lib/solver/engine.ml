(* The Q-DLL search loop of Figure 1, extended per Sections IV and VI:
   propagation (units, pures) under the partial order, branching on top
   variables of the residual QBF, and conflict/solution handling with
   learning and backjumping (Analyze). *)

open Solver_types
module S = State
module Db = Constraint_db
module Obs = Qbf_obs.Obs
module Trace = Qbf_obs.Trace
module Profile = Qbf_obs.Profile

let leaves s = s.S.stats.conflicts + s.S.stats.solutions

(* The external budget is split in two so that the hot path stays cheap:
   [stop_flag] is a plain memory load (set asynchronously by signal
   handlers or Gc alarms) and is read on every check, while
   [should_stop] — typically a [Unix.gettimeofday] deadline — is polled
   only every [stop_interval] checks behind a tick counter. *)
let budget_exhausted s =
  let b = s.S.config.budgets in
  (match b.stop_flag with Some r -> !r | None -> false)
  || (match b.max_nodes with Some m -> leaves s >= m | None -> false)
  || (match b.should_stop with
     | None -> false
     | Some f ->
         s.S.stop_ticks <- s.S.stop_ticks + 1;
         if s.S.stop_ticks >= b.stop_interval then begin
           s.S.stop_ticks <- 0;
           f ()
         end
         else false)

(* A stale discovery queue can hide a falsified original clause when all
   variables end up assigned; rescan to recover it (soundness net, see
   State).  Returns a conflicting clause id if one exists. *)
let rescan_falsified s =
  let db = s.S.db in
  let rec go cid =
    if cid >= Db.size db then None
    else if
      Db.active db cid
      && (not (Db.is_cube db cid))
      &&
      if Db.watched db cid then
        let opens, fixed = S.scan_status s cid in
        fixed = 0 && opens = 0
      else Db.fixed db cid = 0 && Db.opens db cid = 0
    then Some cid
    else go (cid + 1)
  in
  go 0

(* Luby sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let rec luby i =
  (* find k with 2^k - 1 = i -> 2^(k-1); else recurse on the tail *)
  let rec pow2 k = if k = 0 then 1 else 2 * pow2 (k - 1) in
  let rec find k = if pow2 k - 1 >= i then k else find (k + 1) in
  let k = find 1 in
  if pow2 k - 1 = i then pow2 (k - 1) else luby (i - pow2 (k - 1) + 1)

(* Variable activities are halved every this many leaves (Section VI). *)
let rescale_interval = 256

(* Learned constraints with this LBD or less are glue: kept forever,
   like Glucose's level-2 clauses. *)
let glue_lbd = 2

(* Quality-based DB reduction.  Candidates are active learned
   constraints that are neither locked (the reason of an assigned
   variable — dropping one would orphan the trail and the analysis
   resolutions) nor glue; of those, drop the worst
   [1 - db_keep_fraction] by (LBD desc, activity asc, age) and compact
   the arena, which patches every outstanding id through the relocation
   map (State.compact_db).  Clauses and cubes are scored by the same
   rule: both kinds accumulate activity through their resolutions and
   both carry the quantified LBD analog. *)
let reduce_db s =
  let db = s.S.db in
  let n = Db.size db in
  let locked = Array.make (max n 1) false in
  for v = 0 to s.S.nvars - 1 do
    if S.is_assigned s v then
      match s.S.reason.(v) with
      | Reason rid -> locked.(rid) <- true
      | Decision | Flipped | Pure -> ()
  done;
  let cand = ref [] in
  let ncand = ref 0 in
  for cid = 0 to n - 1 do
    if
      Db.active db cid && Db.learned db cid
      && (not locked.(cid))
      && Db.lbd db cid > glue_lbd
    then begin
      cand := cid :: !cand;
      incr ncand
    end
  done;
  let keep = s.S.config.search.db_keep_fraction in
  let keep = if keep < 0. then 0. else if keep > 1. then 1. else keep in
  let drop = int_of_float (float_of_int !ncand *. (1. -. keep)) in
  if drop > 0 then begin
    let arr = Array.of_list !cand in
    (* worst first: high LBD, then low activity, then oldest *)
    Array.sort
      (fun a b ->
        let c = compare (Db.lbd db b) (Db.lbd db a) in
        if c <> 0 then c
        else
          let c = compare (Db.activity db a) (Db.activity db b) in
          if c <> 0 then c else compare a b)
      arr;
    for i = 0 to drop - 1 do
      S.deactivate_constraint s arr.(i)
    done;
    ignore (S.compact_db s)
  end

let solve_state s =
  let o = s.S.obs in
  let restart_idx = ref 1 in
  let leaves_at_restart = ref 0 in
  let maybe_restart () =
    if
      s.S.config.search.restarts
      && leaves s - !leaves_at_restart
         >= s.S.config.search.restart_base * luby !restart_idx
      && S.current_level s > 0
    then begin
      S.backtrack s 0;
      incr restart_idx;
      leaves_at_restart := leaves s;
      s.S.stats.restarts <- s.S.stats.restarts + 1;
      if o.Obs.trace_on then
        Trace.emit o.Obs.trace Trace.Restart ~dlevel:0 ~plevel:0
          ~arg:s.S.stats.restarts
    end
  in
  (* DB reduction fires on a leaf *threshold*, not a modulus: several
     leaves can pass inside one propagation wave, and [leaves s mod k]
     silently skips the reduction when the count jumps past the
     boundary.  The interval grows geometrically after every reduction,
     so a long search reduces ever more rarely as survivors prove
     themselves. *)
  let reduce_interval =
    ref (max 1 s.S.config.search.db_reduce_interval)
  in
  let next_reduce = ref !reduce_interval in
  let maybe_reduce () =
    if s.S.config.search.db_reduction && leaves s >= !next_reduce then begin
      reduce_db s;
      reduce_interval :=
        max (!reduce_interval + 1) (!reduce_interval * 3 / 2);
      next_reduce := leaves s + !reduce_interval
    end
  in
  let maybe_rescale () =
    let n = leaves s in
    if n > 0 && n mod rescale_interval = 0 then
      S.rescale_activities s
  in
  (* Phase spans are opened and closed inline under the profile flag so
     the disabled path stays closure- and allocation-free. *)
  let rec loop () =
    let propagated =
      if o.Obs.profile_on then begin
        Profile.enter o.Obs.profile Profile.Propagate;
        let r = Propagate.run s in
        Profile.leave o.Obs.profile Profile.Propagate;
        r
      end
      else Propagate.run s
    in
    match propagated with
    | Propagate.P_conflict cid -> on_conflict cid
    | Propagate.P_solution src ->
        s.S.stats.solutions <- s.S.stats.solutions + 1;
        if o.Obs.trace_on then
          Trace.emit o.Obs.trace Trace.Solution
            ~dlevel:(S.current_level s) ~plevel:0
            ~arg:(match src with Propagate.Cover -> -1 | Propagate.Cube c -> c);
        maybe_rescale ();
        continue_with (analyzed_solution src)
    | Propagate.P_none ->
        if s.S.config.search.debug_checks then begin
          match S.find_missed_discovery s with
          | Some (_, what) ->
              failwith ("debug_checks: missed " ^ what ^ " at fixpoint")
          | None -> ()
        end;
        if budget_exhausted s then Unknown
        else if decided () then loop ()
        else begin
          (* Every variable assigned but neither a solution nor a conflict
             was flagged: a conflict must have been hidden by a cleared
             queue. *)
          match rescan_falsified s with
          | Some cid -> on_conflict cid
          | None -> assert false
        end
  and decided () =
    if o.Obs.profile_on then begin
      Profile.enter o.Obs.profile Profile.Heuristic;
      let r = Heuristic.decide s in
      Profile.leave o.Obs.profile Profile.Heuristic;
      r
    end
    else Heuristic.decide s
  and analyzed_solution src =
    if o.Obs.profile_on then begin
      Profile.enter o.Obs.profile Profile.Analyze;
      let r = Analyze.handle_solution s src in
      Profile.leave o.Obs.profile Profile.Analyze;
      r
    end
    else Analyze.handle_solution s src
  and on_conflict cid =
    s.S.stats.conflicts <- s.S.stats.conflicts + 1;
    if o.Obs.trace_on then
      Trace.emit o.Obs.trace Trace.Conflict ~dlevel:(S.current_level s)
        ~plevel:0 ~arg:cid;
    maybe_rescale ();
    let concluded =
      if o.Obs.profile_on then begin
        Profile.enter o.Obs.profile Profile.Analyze;
        let r = Analyze.handle_conflict s cid in
        Profile.leave o.Obs.profile Profile.Analyze;
        r
      end
      else Analyze.handle_conflict s cid
    in
    continue_with concluded
  and continue_with = function
    | Analyze.Concluded o -> o
    | Analyze.Continue ->
        if budget_exhausted s then Unknown
        else begin
          (* restarts and database reduction happen between leaves, when
             no analysis is in flight *)
          maybe_restart ();
          maybe_reduce ();
          loop ()
        end
  in
  if o.Obs.profile_on then Profile.enter o.Obs.profile Profile.Solve;
  (* A conclusive outcome carries a certificate iff this call added a
     conclusion record to the attached trace — a chronological
     conclusion (learning off, or every analysis fell back) derives no
     empty constraint, and an earlier session call's conclusion does not
     certify this one. *)
  let finals_before =
    match s.S.proof with Some p -> Proof.finals p | None -> 0
  in
  let outcome = loop () in
  if o.Obs.profile_on then Profile.leave o.Obs.profile Profile.Solve;
  Obs.flush o;
  let witness =
    match (s.S.proof, outcome) with
    | Some p, (True | False) when Proof.finals p > finals_before ->
        Proof.flush p;
        Proof_trace
          {
            path = Proof.path p;
            steps = Proof.steps p;
            format_version = Proof.version;
          }
    | _ -> No_witness
  in
  { outcome; stats = s.S.stats; witness }

(* Solve a QBF.  The formula is lightly preprocessed: tautological
   clauses dropped (done by State), which is enough for the engine's
   invariants.  A proof writer switches the state to proof mode (see
   State.create). *)
let solve ?(config = default_config) ?proof formula =
  let s =
    match config.observe.obs with
    | Some o when o.Obs.profile_on ->
        Profile.span o.Obs.profile Profile.Build (fun () ->
            S.create ?proof formula config)
    | _ -> S.create ?proof formula config
  in
  solve_state s

(* Test hook: run one reduction cycle against the current state exactly
   as the search loop would. *)
let reduce_db_for_testing = reduce_db
