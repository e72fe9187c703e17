(* The four prenex-optimal strategies of Egly, Seidl, Tompits, Woltran
   and Zolda ([12] in the paper): ∃↑∀↑, ∃↑∀↓, ∃↓∀↑, ∃↓∀↓.

   Each strategy maps every block of the quantifier tree to a slot of a
   linear alternating skeleton, such that the resulting total order
   extends the tree's partial order and the number of alternations
   equals the prefix level of the input (prenex-optimality).

   Placement is a two-pass slot assignment over the normalised block
   tree:

   - pass 1 (preorder): "up" quantifiers take the smallest skeleton slot
     of their parity compatible with their ancestors; "down" quantifiers
     get a *virtual* minimal slot used only to bound their descendants;
   - pass 2 (postorder): "down" quantifiers take the largest slot of
     their parity below all their children (at the skeleton bottom when
     childless).

   A same-quantifier ancestor pair may share a slot (those blocks are
   unordered); an opposite-quantifier child always lands strictly below.
   Both skeleton parities are tried and the shorter result kept, which
   reproduces eq. (10) of the paper exactly on formula (9). *)

open Qbf_core

type direction = Up | Down
type strategy = { ex : direction; fa : direction }

let e_up_a_up = { ex = Up; fa = Up }
let e_up_a_down = { ex = Up; fa = Down }
let e_down_a_up = { ex = Down; fa = Up }
let e_down_a_down = { ex = Down; fa = Down }

let all =
  [
    ("EupAup", e_up_a_up);
    ("EdownAdown", e_down_a_down);
    ("EdownAup", e_down_a_up);
    ("EupAdown", e_up_a_down);
  ]

let dir st q = match q with Quant.Exists -> st.ex | Quant.Forall -> st.fa

(* Place all blocks for skeleton starting with quantifier [s1]; returns
   (slot array indexed by block id, skeleton length). *)
let place strategy prefix s1 =
  let nb = Prefix.num_blocks prefix in
  let sigma = Array.make (max nb 1) (-1) in
  let virt = Array.make (max nb 1) (-1) in
  let parity_ok q slot = (slot land 1 = 1) = Quant.equal q s1 in
  let next_ge q slot = if parity_ok q slot then slot else slot + 1 in
  let prev_le q slot = if parity_ok q slot then slot else slot - 1 in
  (* Pass 1: minimal slots top-down. *)
  let rec down prev b =
    let q = Prefix.block_quant prefix b in
    let base =
      match prev with
      | None -> 1
      | Some (ps, pq) -> if Quant.equal pq q then ps else ps + 1
    in
    let slot = next_ge q base in
    virt.(b) <- slot;
    if dir strategy q = Up then sigma.(b) <- slot;
    Array.iter (down (Some (slot, q))) (Prefix.block_children prefix b)
  in
  Prefix.fold_blocks
    (fun () b -> if Prefix.block_parent prefix b = -1 then down None b)
    () prefix;
  let skeleton_len =
    let m = ref 0 in
    for b = 0 to nb - 1 do
      if virt.(b) > !m then m := virt.(b)
    done;
    !m
  in
  (* Pass 2: maximal slots bottom-up for Down blocks. *)
  let rec up b =
    Array.iter up (Prefix.block_children prefix b);
    let q = Prefix.block_quant prefix b in
    if dir strategy q = Down then begin
      let upper =
        Array.fold_left
          (fun acc c ->
            let cq = Prefix.block_quant prefix c in
            let bound = if Quant.equal cq q then sigma.(c) else sigma.(c) - 1 in
            min acc bound)
          skeleton_len
          (Prefix.block_children prefix b)
      in
      sigma.(b) <- prev_le q upper;
      assert (sigma.(b) >= virt.(b))
    end
  in
  Prefix.fold_blocks
    (fun () b -> if Prefix.block_parent prefix b = -1 then up b)
    () prefix;
  (sigma, skeleton_len)

(* Prenex the formula's prefix under [strategy]; the matrix is kept
   verbatim.  Both skeleton parities are tried and the shorter kept. *)
let apply strategy formula =
  let prefix = Formula.prefix formula in
  let nvars = Prefix.nvars prefix in
  if Prefix.num_blocks prefix = 0 then formula
  else begin
    let candidates =
      List.map
        (fun s1 ->
          let sigma, len = place strategy prefix s1 in
          (s1, sigma, len))
        [ Quant.Exists; Quant.Forall ]
    in
    let s1, sigma, len =
      match candidates with
      | [ (_, _, l1) as a; (_, _, l2) as b ] -> if l1 <= l2 then a else b
      | _ -> assert false
    in
    let slot_vars = Array.make (len + 1) [] in
    for b = Prefix.num_blocks prefix - 1 downto 0 do
      let slot = sigma.(b) in
      slot_vars.(slot) <-
        Array.to_list (Prefix.block_vars prefix b) @ slot_vars.(slot)
    done;
    let blocks = ref [] in
    for slot = len downto 1 do
      if slot_vars.(slot) <> [] then begin
        let q = if slot land 1 = 1 then s1 else Quant.flip s1 in
        blocks := (q, List.sort Int.compare slot_vars.(slot)) :: !blocks
      end
    done;
    Formula.make (Prefix.of_blocks ~nvars !blocks) (Formula.matrix formula)
  end

(* [extends p_orig p_new] checks the prenexing contract: the new prefix
   preserves quantifiers and every ordered opposite-quantifier pair of
   the original.  Only opposite-quantifier pairs are compared — the
   timestamp order is exact on those, while it may conservatively
   over-approximate same-quantifier ancestor pairs (see Prefix); true
   same-quantifier orderings always pass through an intervening
   opposite-quantifier block, so they are preserved transitively when
   every opposite pair is. *)
let extends p_orig p_new =
  let n = Prefix.nvars p_orig in
  let ok = ref (Prefix.nvars p_new = n) in
  for a = 0 to n - 1 do
    if not (Quant.equal (Prefix.quant p_orig a) (Prefix.quant p_new a)) then
      ok := false;
    for b = 0 to n - 1 do
      if
        (not (Quant.equal (Prefix.quant p_orig a) (Prefix.quant p_orig b)))
        && Prefix.precedes p_orig a b
        && not (Prefix.precedes p_new a b)
      then ok := false
    done
  done;
  !ok
