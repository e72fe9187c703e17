(* Constraint database on flat arenas.

   Every constraint of the solver — matrix clauses, learned nogoods,
   learned goods — lives in this store.  Literals sit back to back in
   one int arena; per-constraint metadata (kind/learned/active/parked
   flags, session frame, propagation counters, watch slots, discovery
   marks, activity, LBD) sits in parallel arrays indexed by constraint
   id.  Ids are dense arena handles: iteration over the database is a
   linear scan of [0 .. size - 1], and ids stay in insertion order.
   Beside the arena an index lists the ids of the original clauses in
   that same order ([original]); solution analysis walks it newest-first
   to cover the matrix, so it never visits a learned constraint.

   This interface is the only path to constraint storage.  No other
   module sees a constraint record; everything goes through these
   accessors, so the representation (and in particular [compact], which
   renumbers every id) stays a local concern.

   [compact] is the reduction/retraction primitive: it drops every
   deactivated constraint, slides the survivors left in O(database),
   and returns the relocation map old id -> new id (or -1 for dropped).
   The caller (State.compact_db) owns patching every id the rest of the
   solver holds: occurrence lists, watch lists, reasons, discovery
   queues. *)

type t

val create : unit -> t

(* Number of slots, live or deactivated.  Valid ids are [0 .. size-1]. *)
val size : t -> int

(* Append a constraint; returns its id.  The literal array is copied
   into the arena.  New constraints start active, unparked, with
   counters and marks zeroed and watches unset (-1). *)
val add :
  t -> kind:Solver_types.kind -> learned:bool -> frame:int -> int array -> int

(* -- structure ----------------------------------------------------- *)

val kind : t -> int -> Solver_types.kind
val is_cube : t -> int -> bool
val learned : t -> int -> bool
val active : t -> int -> bool
val frame : t -> int -> int
val num_lits : t -> int -> int

(* [lit db cid k] is the [k]-th literal of constraint [cid]. *)
val lit : t -> int -> int -> int
val iter_lits : t -> int -> (int -> unit) -> unit
val exists_lit : t -> int -> (int -> bool) -> bool
val lits_list : t -> int -> int list
val copy_lits : t -> int -> int array

(* -- propagation counters (original clauses) ---------------------- *)

(* Unassigned primary literals: existential for a clause, universal for
   a cube (see State). *)
val opens : t -> int -> int

(* Settling literals: true ones for a clause (satisfied when > 0), false
   ones for a cube (dead when > 0). *)
val fixed : t -> int -> int

(* Both counters are left at 0 for watch-maintained constraints. *)
val set_counters : t -> int -> opens:int -> fixed:int -> unit
val add_open : t -> int -> int -> unit
val add_fixed : t -> int -> int -> unit

(* -- watched literals (learned constraints) ----------------------- *)

val w1 : t -> int -> int
val w2 : t -> int -> int
val set_watches : t -> int -> int -> int -> unit
val watched : t -> int -> bool (* watch slots set (w1 >= 0)? *)

(* -- discovery-queue marks and parking ----------------------------- *)

val uq_mark : t -> int -> int
val set_uq_mark : t -> int -> int -> unit
val cq_mark : t -> int -> int
val set_cq_mark : t -> int -> int -> unit
val parked : t -> int -> bool
val set_parked : t -> int -> bool -> unit

(* -- learned-DB lifecycle ------------------------------------------ *)

(* Mark a constraint dead.  It stops participating in search at once
   (every discovery path checks [active]) and its slot is reclaimed by
   the next [compact]. *)
val deactivate : t -> int -> unit

(* -- original-clause index ----------------------------------------- *)

(* Ids of the original clauses ([add] with [kind = Clause_c] and
   [learned = false]) in arena order: [original db k] for [k] in
   [0 .. num_originals db - 1] is ascending.  Deactivated ones stay
   listed until the next [compact], which filters the index stably. *)
val num_originals : t -> int
val original : t -> int -> int

val activity : t -> int -> float

(* Additive bump with the current increment; rescales the whole column
   when any activity overflows 1e100, like variable activities. *)
val bump : t -> int -> unit

(* Geometric decay of all activities (by growing the increment). *)
val decay : t -> unit

(* Quantified LBD analog: number of distinct decision levels among the
   constraint's assigned literals when it was learned (glue = small).
   0 for originals. *)
val lbd : t -> int -> int
val set_lbd : t -> int -> int -> unit

(* Stable proof-side id of the constraint in an attached {!Proof} trace;
   0 = not registered.  Unlike the arena id it survives [compact] (the
   column relocates with the constraint), so a trace never ends up
   referencing a constraint through a relocated id. *)
val pid : t -> int -> int
val set_pid : t -> int -> int -> unit

(* -- compaction ---------------------------------------------------- *)

(* Drop every deactivated constraint, slide survivors left (stable, so
   insertion order survives, in the arena and in the original-clause
   index), and return the relocation map: [reloc.(old_id)] is the new
   id, or -1 if the constraint was dropped.  O(database).  After
   [compact] every id held outside this module is stale until mapped. *)
val compact : t -> int array
