(* The host's speed, sampled through every timed phase.

   On a shared virtual machine the speed a process gets moves as the
   host's other tenants come and go: a run of fixed work took 20 s or
   36 s within one set of ten, and one job's time moves by a quarter
   over a few seconds.  Code that misses in the caches slows most, so a
   pure arithmetic loop does not follow it, but any memory-bound loop
   does.  The benchmark therefore samples the host's speed with a fixed
   piece of its own work, the reference: a heap sort of 2^17 integers
   that allocates nothing on the OCaml heap (so no collection of the
   program's heap lands in it) and runs no program code.  Every timing
   it reports is scaled to the nominal host, on which the reference
   takes [nominal_s]: each stretch of work between two samples is
   multiplied by [nominal_s] over the median reference time of the four
   samples around it.  The reference's own time is left out of every
   timing, raw or scaled. *)

let nominal_s = 0.028
let interval_s = 0.5

let sort_n = 1 lsl 17

(* Off the OCaml heap, so that it does not raise the collector's heap
   target (and with it the peak RSS the benchmark reports). *)
let buffer = lazy Bigarray.(Array1.create int c_layout sort_n)

let rec sift (a : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t) i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && a.{l + 1} > a.{l} then l + 1 else l in
    if a.{c} > a.{i} then begin
      let x = a.{i} in
      a.{i} <- a.{c};
      a.{c} <- x;
      sift a c n
    end
  end

(* The same pseudo-random integers every time, then an in-place heap
   sort of them. *)
let reference () =
  let a = Lazy.force buffer in
  let x = ref 20061 in
  for i = 0 to sort_n - 1 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    a.{i} <- !x
  done;
  for i = (sort_n / 2) - 1 downto 0 do
    sift a i sort_n
  done;
  for k = sort_n - 1 downto 1 do
    let x = a.{0} in
    a.{0} <- a.{k};
    a.{k} <- x;
    sift a 0 k
  done

type sample = {
  at : float;  (** when the reference started *)
  ref_s : float;  (** its wall time *)
  cpu_s : float;  (** and its CPU *)
}

type t = {
  mutable samples : sample list;  (** newest first *)
  mutable last : float;  (** when the last sample ended *)
  mutable spent : float;  (** reference wall time so far *)
  mutable spent_cpu : float;  (** and its CPU *)
  within : bool;  (** whether [tick_within] samples *)
}

(* [within] lets samples be taken inside jobs (from the solver's
   [should_stop] poll, between a worker's answer and the next
   dispatch); a traced pass turns it off, so that no span holds a
   reference. *)
let create ?(within = true) () =
  { samples = []; last = neg_infinity; spent = 0.; spent_cpu = 0.; within }

let now = Unix.gettimeofday
let self_cpu () = fst (Host.cpu ())

let sample t =
  let c0 = self_cpu () and t0 = now () in
  reference ();
  let t1 = now () in
  let c1 = self_cpu () in
  t.samples <- { at = t0; ref_s = t1 -. t0; cpu_s = c1 -. c0 } :: t.samples;
  t.last <- t1;
  t.spent <- t.spent +. (t1 -. t0);
  t.spent_cpu <- t.spent_cpu +. (c1 -. c0)

(* Between jobs: sample when [interval_s] has passed since the last. *)
let tick t = if now () -. t.last >= interval_s then sample t

(* Inside a job. *)
let tick_within t = if t.within then tick t

let spent t = t.spent
let spent_cpu t = t.spent_cpu

type measure = {
  raw_s : float;  (** wall time of the window, the references left out *)
  scaled_s : float;  (** the same work at the nominal speed *)
  ref_cpu_s : float;  (** CPU the references inside the window took *)
  refs : int;  (** samples inside the window *)
}

let median_ref (a : sample array) lo hi =
  let xs = List.init (hi - lo + 1) (fun i -> a.(lo + i).ref_s) in
  Stat.median xs

(* The window [t0, t1]: the caller samples right before [t0] and right
   after [t1].  Work segments run between consecutive samples; segment
   [j] lies between samples [j] and [j + 1] of the window's run of
   samples, and its speed is the median of samples [j - 1 .. j + 2]. *)
let measure_samples (a : sample array) ~t0 ~t1 =
  let n = Array.length a in
  let inside s = s.at >= t0 && s.at +. s.ref_s <= t1 in
  let first = ref n and last = ref (-1) in
  Array.iteri
    (fun i s ->
      if inside s then begin
        if i < !first then first := i;
        last := i
      end)
    a;
  let m = if !last >= !first then !last - !first + 1 else 0 in
  (* samples on each side of the window: [before] precedes it *)
  let before =
    if m > 0 then !first - 1
    else begin
      let b = ref (-1) in
      Array.iteri (fun i s -> if s.at +. s.ref_s <= t0 then b := i) a;
      !b
    end
  in
  let raw = ref 0. and scaled = ref 0. and ref_cpu = ref 0. in
  for j = 0 to m do
    (* segment between sample [before + j] and [before + j + 1] *)
    let s0 = if j = 0 then t0 else a.(before + j).at +. a.(before + j).ref_s in
    let s1 = if j = m then t1 else a.(before + j + 1).at in
    let len = Float.max 0. (s1 -. s0) in
    let lo = max 0 (before + j - 1) and hi = min (n - 1) (before + j + 2) in
    let r = if n = 0 || hi < lo then nominal_s else median_ref a lo hi in
    raw := !raw +. len;
    scaled := !scaled +. (len *. nominal_s /. r)
  done;
  for i = 0 to m - 1 do
    ref_cpu := !ref_cpu +. a.(!first + i).cpu_s
  done;
  { raw_s = !raw; scaled_s = !scaled; ref_cpu_s = !ref_cpu; refs = m }

let measure t ~t0 ~t1 = measure_samples (Array.of_list (List.rev t.samples)) ~t0 ~t1

(* The median reference time over the whole run, for provenance. *)
let median_ref_s t =
  match t.samples with [] -> 0. | l -> Stat.median (List.map (fun s -> s.ref_s) l)

let count t = List.length t.samples
