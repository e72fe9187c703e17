(* Canonical formula hash — the memoisation key of the serving layer
   (the `ClauseHashes` idiom of ThQBF, lifted from clauses to whole
   instances).

   Two instances that differ only in presentation — clause order,
   literal order inside a clause (Clause.t is already sorted), duplicate
   or tautological clauses, universal literals a reduction removes —
   should hit the same cache line, so the hash is computed over
   [Formula.simplify] output (whose clause list is sorted), and over the
   normalised quantifier forest with each block's variable list sorted
   (block-internal order carries no semantics).

   FNV-1a over 64-bit ints: no dependencies, stable across runs and
   processes (unlike Hashtbl.hash, which is documented to vary), and 16
   hex characters is plenty for a per-process cache. *)

open Qbf_core

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let mix h byte =
  Int64.mul (Int64.logxor h (Int64.of_int (byte land 0xff))) fnv_prime

let mix_int h n =
  (* fold all 8 bytes so nearby ints do not collide *)
  let rec go h i =
    if i = 8 then h
    else go (mix h (n asr (8 * i))) (i + 1)
  in
  go h 0

let rec mix_tree h (Prefix.Node (q, vars, children)) =
  let h = mix h (match q with Quant.Exists -> 0xe | Quant.Forall -> 0xa) in
  let h = List.fold_left mix_int h (List.sort compare vars) in
  let h = mix h 0x28 (* '(' — separate siblings from nested blocks *) in
  let h = List.fold_left mix_tree h children in
  mix h 0x29

let formula f =
  let f = Formula.simplify f in
  let prefix = Formula.prefix f in
  let h = mix_int fnv_offset (Prefix.nvars prefix) in
  let h = List.fold_left mix_tree h (Prefix.roots prefix) in
  let h =
    List.fold_left
      (fun h c ->
        let h = Clause.fold (fun h l -> mix_int h (Lit.to_dimacs l)) h c in
        mix h 0x3b (* ';' between clauses *))
      h (Formula.matrix f)
  in
  Printf.sprintf "%016Lx" h
