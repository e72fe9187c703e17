(* Shared types of the search engine. *)

type kind =
  | Clause_c (* disjunction: element of the matrix or learned nogood *)
  | Cube_c (* conjunction: learned good *)

(* The solver has one propagation scheme (see State): original clauses
   keep eager counters, which purity needs, and learned constraints are
   tracked by two watched literals.  [prop_engine] and
   {!with_propagation} survive only so that callers written when a
   second, all-counters scheme existed still compile; the benchmark
   sources under e2e_bench/ select [Watched] and are kept unchanged so
   that their runs stay comparable across commits. *)
type prop_engine = Watched

type antecedent =
  | Decision (* branching choice, first branch *)
  | Flipped (* branching choice, second branch after a chronological flip *)
  | Pure (* pure-literal fixing *)
  | Reason of int (* unit propagation from the constraint with this id *)

(* Which branching rule orders the priority of decision variables. *)
type heuristic_mode =
  | Total_order (* QuBE(TO): (prefix level, activity, id) *)
  | Partial_order (* QuBE(PO): tree-propagated scores (Section VI) *)

type outcome =
  | True
  | False
  | Unknown (* budget exhausted *)

type stats = {
  mutable decisions : int;
  mutable propagations : int; (* unit assignments, clauses + cubes *)
  mutable pure_assignments : int;
  mutable conflicts : int; (* falsified-clause leaves *)
  mutable solutions : int; (* satisfied-matrix / true-cube leaves *)
  mutable learned_clauses : int;
  mutable learned_cubes : int;
  mutable backjumps : int; (* learning-driven non-chronological jumps *)
  mutable chrono_fallbacks : int; (* analyses abandoned for a plain flip *)
  mutable max_decision_level : int;
  mutable restarts : int;
  mutable deleted_constraints : int;
}

let empty_stats () =
  {
    decisions = 0;
    propagations = 0;
    pure_assignments = 0;
    conflicts = 0;
    solutions = 0;
    learned_clauses = 0;
    learned_cubes = 0;
    backjumps = 0;
    chrono_fallbacks = 0;
    max_decision_level = 0;
    restarts = 0;
    deleted_constraints = 0;
  }

(* Leaves visited: the size measure used by the benchmark harness. *)
let nodes stats = stats.conflicts + stats.solutions

(* The event counters, by the one name each has everywhere: a
   collector's snapshot (see Qbf_obs.Obs.counters), qube --json-status,
   qubed telemetry and Prometheus.  [max_decision_level] is a high-water
   mark, not a counter. *)
let counters s =
  [
    ("decisions", s.decisions);
    ("propagations", s.propagations);
    ("pure_assignments", s.pure_assignments);
    ("conflicts", s.conflicts);
    ("solutions", s.solutions);
    ("learned_clauses", s.learned_clauses);
    ("learned_cubes", s.learned_cubes);
    ("backjumps", s.backjumps);
    ("chrono_fallbacks", s.chrono_fallbacks);
    ("restarts", s.restarts);
    ("deleted_constraints", s.deleted_constraints);
  ]

let copy_stats s =
  {
    decisions = s.decisions;
    propagations = s.propagations;
    pure_assignments = s.pure_assignments;
    conflicts = s.conflicts;
    solutions = s.solutions;
    learned_clauses = s.learned_clauses;
    learned_cubes = s.learned_cubes;
    backjumps = s.backjumps;
    chrono_fallbacks = s.chrono_fallbacks;
    max_decision_level = s.max_decision_level;
    restarts = s.restarts;
    deleted_constraints = s.deleted_constraints;
  }

(* [diff_stats ~before after] is the per-call delta of two cumulative
   snapshots (incremental sessions report deltas; see Session.solve).
   [max_decision_level] is a high-water mark, not a counter, and is
   passed through unchanged. *)
let diff_stats ~before after =
  {
    decisions = after.decisions - before.decisions;
    propagations = after.propagations - before.propagations;
    pure_assignments = after.pure_assignments - before.pure_assignments;
    conflicts = after.conflicts - before.conflicts;
    solutions = after.solutions - before.solutions;
    learned_clauses = after.learned_clauses - before.learned_clauses;
    learned_cubes = after.learned_cubes - before.learned_cubes;
    backjumps = after.backjumps - before.backjumps;
    chrono_fallbacks = after.chrono_fallbacks - before.chrono_fallbacks;
    max_decision_level = after.max_decision_level;
    restarts = after.restarts - before.restarts;
    deleted_constraints =
      after.deleted_constraints - before.deleted_constraints;
  }

(* ------------------------------------------------------------------ *)
(* Engine configuration.

   The knobs are grouped into four sub-records so call sites say which
   facet they are changing instead of fishing one field out of a flat
   17-field record:

   - [search]  — what the solver does at each node;
   - [budgets] — when it gives up with [Unknown];
   - [observe] — what it reports while running;
   - [hints]   — input structure the engine cannot infer.

   Build configurations with the [with_*] combinators, e.g.

     ST.(default_config
         |> with_heuristic Partial_order
         |> with_restarts true
         |> with_max_nodes (Some 10_000))

   Each targeted setter rebuilds only its own group, so configurations
   compose left to right and [default_config] stays the single source
   of defaults. *)

type search = {
  learning : bool; (* nogood + good learning with backjumping *)
  pure_literals : bool;
  heuristic : heuristic_mode;
  debug_checks : bool;
      (* assert propagation completeness at every fixpoint: no active
         constraint may be undetectedly conflicting, unit, or (for
         cubes) satisfied when the engine is about to branch.  O(db)
         per decision — tests and fuzzing only *)
  restarts : bool; (* Luby-scheduled restarts (keep learned constraints) *)
  restart_base : int; (* leaves per Luby unit *)
  phase_saving : bool;
      (* remember each variable's last assigned polarity at unassign
         time and branch on it again first (consulted by
         Heuristic.phase_literal), so restarts resume near the part of
         the search space they left *)
  db_reduction : bool;
      (* periodically drop the worst-scored unlocked learned
         constraints (high LBD, low activity) and compact the arena;
         locked (reason) and glue (LBD <= 2) constraints always stay *)
  db_reduce_interval : int;
      (* leaves before the first reduction; the interval then grows
         geometrically (x1.5) so later reductions are rarer as the
         database earns its keep *)
  db_keep_fraction : float;
      (* fraction of reducible learned constraints kept per reduction,
         clamped to [0,1]; locked and glue constraints are kept on top
         of this *)
}

type budgets = {
  max_nodes : int option; (* bound on conflicts + solutions *)
  should_stop : (unit -> bool) option; (* external budget, e.g. wall clock *)
  stop_flag : bool ref option;
      (* cooperative interrupt: read on every budget check (one memory
         load), set asynchronously by signal handlers or Gc alarms (see
         Qbf_run.Limits) *)
  stop_interval : int;
      (* budget checks between [should_stop] polls; 1 polls on every
         check (the historical behaviour), larger values amortize an
         expensive poll such as [Unix.gettimeofday] behind a tick
         counter *)
}

type observe = {
  obs : Qbf_obs.Obs.t option;
      (* observability collector (metrics registry, trace emitter, phase
         profiler).  [None] installs the shared all-off collector: every
         instrumentation site then costs one flag load and one untaken
         branch, so the search path is unchanged in practice *)
}

type hints = {
  aux_hint : (int -> bool) option;
      (* marks auxiliary (CNF-conversion) variables; solution analysis
         may then cover clauses with *virtually flipped* auxiliary
         literals, which existential reduction removes anyway, keeping
         learned goods short (see Analyze.cover_with) *)
}

type config = {
  search : search;
  budgets : budgets;
  observe : observe;
  hints : hints;
}

let default_search =
  {
    learning = true;
    pure_literals = true;
    heuristic = Partial_order;
    debug_checks = false;
    restarts = false;
    restart_base = 128;
    phase_saving = true;
    db_reduction = false;
    db_reduce_interval = 2048;
    db_keep_fraction = 0.5;
  }

let default_budgets =
  {
    max_nodes = None;
    should_stop = None;
    stop_flag = None;
    stop_interval = 1;
  }

let default_observe = { obs = None }
let default_hints = { aux_hint = None }

let default_config =
  {
    search = default_search;
    budgets = default_budgets;
    observe = default_observe;
    hints = default_hints;
  }

(* Group rewriters *)
let with_search f c = { c with search = f c.search }
let with_budgets f c = { c with budgets = f c.budgets }
let with_observe f c = { c with observe = f c.observe }
let with_hints f c = { c with hints = f c.hints }

(* Targeted setters, one per knob *)
let with_learning v = with_search (fun s -> { s with learning = v })
let with_pure_literals v = with_search (fun s -> { s with pure_literals = v })
let with_heuristic v = with_search (fun s -> { s with heuristic = v })
let with_propagation (_ : prop_engine) c = c
let with_debug_checks v = with_search (fun s -> { s with debug_checks = v })

let with_restarts v = with_search (fun s -> { s with restarts = v })
let with_restart_base v = with_search (fun s -> { s with restart_base = v })
let with_phase_saving v = with_search (fun s -> { s with phase_saving = v })
let with_db_reduction v = with_search (fun s -> { s with db_reduction = v })

let with_db_reduce_interval v =
  with_search (fun s -> { s with db_reduce_interval = v })

let with_db_keep_fraction v =
  with_search (fun s -> { s with db_keep_fraction = v })

let with_max_nodes v = with_budgets (fun b -> { b with max_nodes = v })
let with_should_stop v = with_budgets (fun b -> { b with should_stop = v })
let with_stop_flag v = with_budgets (fun b -> { b with stop_flag = v })
let with_stop_interval v = with_budgets (fun b -> { b with stop_interval = v })
let with_obs v = with_observe (fun _ -> { obs = v })
let with_aux_hint v = with_hints (fun _ -> { aux_hint = v })

(* Certificate attached to a conclusive result.  [Proof_trace] points at
   a trace file (see {!Proof}) containing a complete derivation of the
   outcome — the empty clause for [False], the empty term for [True] —
   that the independent checker can validate without trusting the
   solver.  [No_witness] on [Unknown] outcomes, when no proof writer was
   attached, or when the run concluded through a chronological step the
   trace format cannot certify. *)
type witness =
  | No_witness
  | Proof_trace of { path : string; steps : int; format_version : int }

type result = { outcome : outcome; stats : stats; witness : witness }

let pp_stats fmt s =
  Format.fprintf fmt
    "decisions=%d propagations=%d pures=%d conflicts=%d solutions=%d \
     learned=%d+%d backjumps=%d fallbacks=%d"
    s.decisions s.propagations s.pure_assignments s.conflicts s.solutions
    s.learned_clauses s.learned_cubes s.backjumps s.chrono_fallbacks
