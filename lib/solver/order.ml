(* The branching order: a binary heap of variable ids, the best-ranked
   first, with lazy deletion (MiniSat's order heap).

   A variable ranks by [major] ascending, then [key] descending, then
   its block ascending, then its id ascending, so no two variables tie.
   Block ids are DFS preorder, so ancestors win ties: with the
   non-negative activities Heuristic's keys are built from, the first
   unassigned variable popped is available, and nothing is set aside.
   Heuristic writes the keys and calls {!rebuild} once per activity
   update; between updates the ranking is fixed, and a pick pops the
   heap instead of scanning every variable.  Assigned variables may
   stay in the heap (a pop drops them); State re-inserts a variable on
   unassign, so every unassigned variable is in the heap whenever the
   order is not [stale]. *)

type t = {
  heap : int array; (* variable ids; [heap.(0)] ranks first *)
  mutable size : int;
  index : int array; (* per var: its slot in [heap], -1 if out *)
  major : int array; (* per var: ranks ascending *)
  key : float array; (* per var: ranks descending *)
  block : int array; (* per var: its block, ranks ascending *)
  mutable stale : bool;
      (* the keys predate the activities or the prefix: nothing is
         inserted until the next {!rebuild} *)
}

let create n =
  {
    heap = Array.make n 0;
    size = 0;
    index = Array.make n (-1);
    major = Array.make n 0;
    key = Array.make n 0.;
    block = Array.make n 0;
    stale = true;
  }

let before t a b =
  let ma = t.major.(a) and mb = t.major.(b) in
  if ma <> mb then ma < mb
  else
    let ka = t.key.(a) and kb = t.key.(b) in
    if ka <> kb then ka > kb
    else
      let ba = t.block.(a) and bb = t.block.(b) in
      if ba <> bb then ba < bb else a < b

let place t i v =
  t.heap.(i) <- v;
  t.index.(v) <- i

let rec sift_up t i v =
  if i = 0 then place t 0 v
  else
    let p = (i - 1) / 2 in
    let pv = t.heap.(p) in
    if before t v pv then begin
      place t i pv;
      sift_up t p v
    end
    else place t i v

let rec sift_down t i v =
  let c = (2 * i) + 1 in
  if c >= t.size then place t i v
  else
    let c =
      if c + 1 < t.size && before t t.heap.(c + 1) t.heap.(c) then c + 1 else c
    in
    let cv = t.heap.(c) in
    if before t cv v then begin
      place t i cv;
      sift_down t c v
    end
    else place t i v

let insert t v =
  if t.index.(v) < 0 then begin
    t.size <- t.size + 1;
    sift_up t (t.size - 1) v
  end

(* Remove and return the best-ranked variable; the heap is non-empty. *)
let pop t =
  let top = t.heap.(0) in
  t.index.(top) <- -1;
  t.size <- t.size - 1;
  if t.size > 0 then sift_down t 0 t.heap.(t.size);
  top

(* Heapify the variables [0 .. n-1] that satisfy [keep], under the keys
   as they stand now. *)
let rebuild t n keep =
  for i = 0 to t.size - 1 do
    t.index.(t.heap.(i)) <- -1
  done;
  t.size <- 0;
  for v = 0 to n - 1 do
    if keep v then begin
      place t t.size v;
      t.size <- t.size + 1
    end
  done;
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i t.heap.(i)
  done;
  t.stale <- false
