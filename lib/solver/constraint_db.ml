(* Flat-arena constraint store.  See the .mli for the contract.

   Layout: one int arena [lits] holds every constraint's literals back
   to back; [start]/[len] give each id its slice.  The rest of the
   metadata is parallel arrays indexed by id.  Booleans are bit-packed
   into [flags] so the hot discovery paths (active? parked? learned?)
   read one int.  [orig] lists the original clauses' ids in arena order,
   so the solution cover walks them without visiting the learned
   constraints stacked above.

   Compared to the previous per-constraint records this keeps the
   linear scans of propagation completeness checks, solution covering
   and DB reduction on contiguous memory, and makes dropping dead
   constraints an O(database) slide instead of leaving holes behind a
   [Vec] of boxed records. *)

module ST = Solver_types

type t = {
  (* literal arena *)
  mutable lits : int array;
  mutable lits_len : int;
  (* per-constraint slices and metadata *)
  mutable start : int array;
  mutable len : int array;
  mutable flags : int array; (* bit0 cube, bit1 learned, bit2 active,
                                bit3 parked *)
  mutable frame : int array;
  mutable opens : int array;
  mutable fixed : int array;
  mutable w1 : int array;
  mutable w2 : int array;
  mutable uq_mark : int array;
  mutable cq_mark : int array;
  mutable lbd : int array;
  mutable pid : int array;
      (* stable proof-side id (Proof records), 0 = unregistered; survives
         compaction, so proof traces never reference a relocated id *)
  mutable activity : float array;
  mutable n : int;
  mutable orig : int array; (* original clause ids, ascending *)
  mutable norig : int;
  (* activity bump increment; grows at every decay, everything rescales
     when a bump overflows *)
  mutable act_inc : float;
}

let f_cube = 1
let f_learned = 2
let f_active = 4
let f_parked = 8

let create () =
  {
    lits = Array.make 1024 0;
    lits_len = 0;
    start = Array.make 64 0;
    len = Array.make 64 0;
    flags = Array.make 64 0;
    frame = Array.make 64 0;
    opens = Array.make 64 0;
    fixed = Array.make 64 0;
    w1 = Array.make 64 (-1);
    w2 = Array.make 64 (-1);
    uq_mark = Array.make 64 0;
    cq_mark = Array.make 64 0;
    lbd = Array.make 64 0;
    pid = Array.make 64 0;
    activity = Array.make 64 0.;
    n = 0;
    orig = Array.make 64 0;
    norig = 0;
    act_inc = 1.0;
  }

let size db = db.n

(* ------------------------------------------------------------------ *)
(* Growth *)

let grow_int a needed fill =
  let cap = max needed (2 * Array.length a) in
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_float a needed =
  let cap = max needed (2 * Array.length a) in
  let b = Array.make cap 0. in
  Array.blit a 0 b 0 (Array.length a);
  b

let ensure_slot db =
  if db.n >= Array.length db.start then begin
    let need = db.n + 1 in
    db.start <- grow_int db.start need 0;
    db.len <- grow_int db.len need 0;
    db.flags <- grow_int db.flags need 0;
    db.frame <- grow_int db.frame need 0;
    db.opens <- grow_int db.opens need 0;
    db.fixed <- grow_int db.fixed need 0;
    db.w1 <- grow_int db.w1 need (-1);
    db.w2 <- grow_int db.w2 need (-1);
    db.uq_mark <- grow_int db.uq_mark need 0;
    db.cq_mark <- grow_int db.cq_mark need 0;
    db.lbd <- grow_int db.lbd need 0;
    db.pid <- grow_int db.pid need 0;
    db.activity <- grow_float db.activity need
  end

let ensure_lits db extra =
  if db.lits_len + extra > Array.length db.lits then
    db.lits <- grow_int db.lits (db.lits_len + extra) 0

let add db ~kind ~learned ~frame lits =
  ensure_slot db;
  let nl = Array.length lits in
  ensure_lits db nl;
  let cid = db.n in
  db.n <- cid + 1;
  db.start.(cid) <- db.lits_len;
  db.len.(cid) <- nl;
  Array.blit lits 0 db.lits db.lits_len nl;
  db.lits_len <- db.lits_len + nl;
  db.flags.(cid) <-
    f_active
    lor (match kind with ST.Cube_c -> f_cube | ST.Clause_c -> 0)
    lor (if learned then f_learned else 0);
  db.frame.(cid) <- frame;
  db.opens.(cid) <- 0;
  db.fixed.(cid) <- 0;
  db.w1.(cid) <- -1;
  db.w2.(cid) <- -1;
  db.uq_mark.(cid) <- 0;
  db.cq_mark.(cid) <- 0;
  db.lbd.(cid) <- 0;
  db.pid.(cid) <- 0;
  db.activity.(cid) <- 0.;
  if kind = ST.Clause_c && not learned then begin
    if db.norig >= Array.length db.orig then
      db.orig <- grow_int db.orig (db.norig + 1) 0;
    db.orig.(db.norig) <- cid;
    db.norig <- db.norig + 1
  end;
  cid

(* ------------------------------------------------------------------ *)
(* Accessors *)

let is_cube db cid = db.flags.(cid) land f_cube <> 0
let kind db cid = if is_cube db cid then ST.Cube_c else ST.Clause_c
let learned db cid = db.flags.(cid) land f_learned <> 0
let active db cid = db.flags.(cid) land f_active <> 0
let frame db cid = db.frame.(cid)
let num_lits db cid = db.len.(cid)
let lit db cid k = db.lits.(db.start.(cid) + k)
let start db cid = db.start.(cid)
let arena db = db.lits

let iter_lits db cid f =
  let s = db.start.(cid) in
  for i = s to s + db.len.(cid) - 1 do
    f db.lits.(i)
  done

let lits_list db cid =
  let s = db.start.(cid) in
  let rec go i acc = if i < s then acc else go (i - 1) (db.lits.(i) :: acc) in
  go (s + db.len.(cid) - 1) []

let copy_lits db cid = Array.sub db.lits db.start.(cid) db.len.(cid)
let opens db cid = db.opens.(cid)
let fixed db cid = db.fixed.(cid)

let set_counters db cid ~opens ~fixed =
  db.opens.(cid) <- opens;
  db.fixed.(cid) <- fixed

let add_open db cid d = db.opens.(cid) <- db.opens.(cid) + d
let add_fixed db cid d = db.fixed.(cid) <- db.fixed.(cid) + d
let w1 db cid = db.w1.(cid)
let w2 db cid = db.w2.(cid)

let set_watches db cid a b =
  db.w1.(cid) <- a;
  db.w2.(cid) <- b

let watched db cid = db.w1.(cid) >= 0
let uq_mark db cid = db.uq_mark.(cid)
let set_uq_mark db cid v = db.uq_mark.(cid) <- v
let cq_mark db cid = db.cq_mark.(cid)
let set_cq_mark db cid v = db.cq_mark.(cid) <- v
let parked db cid = db.flags.(cid) land f_parked <> 0

let set_parked db cid v =
  if v then db.flags.(cid) <- db.flags.(cid) lor f_parked
  else db.flags.(cid) <- db.flags.(cid) land lnot f_parked

let deactivate db cid = db.flags.(cid) <- db.flags.(cid) land lnot f_active
let num_originals db = db.norig
let original db k = db.orig.(k)

(* ------------------------------------------------------------------ *)
(* Activity *)

let activity db cid = db.activity.(cid)

let rescale db =
  for cid = 0 to db.n - 1 do
    db.activity.(cid) <- db.activity.(cid) *. 1e-100
  done;
  db.act_inc <- db.act_inc *. 1e-100

let bump db cid =
  db.activity.(cid) <- db.activity.(cid) +. db.act_inc;
  if db.activity.(cid) > 1e100 then rescale db

(* 0.999 is the classic clause-decay constant: recent resolutions
   dominate, but a constraint needs ~700 quiet conflicts to lose half
   its standing. *)
let decay db = db.act_inc <- db.act_inc /. 0.999
let lbd db cid = db.lbd.(cid)
let set_lbd db cid v = db.lbd.(cid) <- v
let pid db cid = db.pid.(cid)
let set_pid db cid v = db.pid.(cid) <- v

(* ------------------------------------------------------------------ *)
(* Compaction *)

let compact db =
  let reloc = Array.make db.n (-1) in
  let j = ref 0 in
  let lw = ref 0 in
  for cid = 0 to db.n - 1 do
    if db.flags.(cid) land f_active <> 0 then begin
      let nid = !j in
      reloc.(cid) <- nid;
      let s = db.start.(cid) and l = db.len.(cid) in
      (* destination never passes the source, so the overlapping blit
         is safe *)
      if !lw <> s then Array.blit db.lits s db.lits !lw l;
      db.start.(nid) <- !lw;
      lw := !lw + l;
      if nid <> cid then begin
        db.len.(nid) <- l;
        db.flags.(nid) <- db.flags.(cid);
        db.frame.(nid) <- db.frame.(cid);
        db.opens.(nid) <- db.opens.(cid);
        db.fixed.(nid) <- db.fixed.(cid);
        db.w1.(nid) <- db.w1.(cid);
        db.w2.(nid) <- db.w2.(cid);
        db.uq_mark.(nid) <- db.uq_mark.(cid);
        db.cq_mark.(nid) <- db.cq_mark.(cid);
        db.lbd.(nid) <- db.lbd.(cid);
        db.pid.(nid) <- db.pid.(cid);
        db.activity.(nid) <- db.activity.(cid)
      end;
      incr j
    end
  done;
  db.n <- !j;
  db.lits_len <- !lw;
  (* stable filter: the index keeps arena order *)
  let k = ref 0 in
  for i = 0 to db.norig - 1 do
    let nid = reloc.(db.orig.(i)) in
    if nid >= 0 then begin
      db.orig.(!k) <- nid;
      incr k
    end
  done;
  db.norig <- !k;
  reloc
