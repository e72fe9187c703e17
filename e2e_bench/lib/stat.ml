(* Order statistics under the benchmark's percentile rule: a percentile
   is reported only when at least [min_beyond] samples lie beyond it, so
   p90 needs 100 samples and p50 needs 20.  Below that a single slow or
   fast job decides the value, which then moves from run to run. *)

let min_beyond = 10

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between the closest ranks, on sorted samples
   (the rule of Python's [statistics.quantiles(method="inclusive")]). *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.quantile: no samples";
  let h = q *. float_of_int (n - 1) in
  let lo = truncate h in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile_sorted (sorted xs) 0.5

(* Samples that lie beyond the [q] quantile of [n] samples. *)
let beyond ~q n = int_of_float (Float.of_int n *. (1. -. q) +. 1e-9)

type percentile = {
  value : float option;  (** [None] when the rule withholds it *)
  samples : int;
}

let percentile ~q xs =
  let n = List.length xs in
  {
    value =
      (if n > 0 && beyond ~q n >= min_beyond then
         Some (quantile_sorted (sorted xs) q)
       else None);
    samples = n;
  }
