(* NQDIMACS writer: QDIMACS's matrix under a quantifier forest, for
   non-prenex QBFs; {!Load} reads it back. *)

open Qbf_core

let rec print_tree fmt (Prefix.Node (q, vars, children)) =
  Format.fprintf fmt "(%s" (Quant.symbol q);
  List.iter (fun v -> Format.fprintf fmt " %d" (v + 1)) vars;
  List.iter (fun c -> Format.fprintf fmt " %a" print_tree c) children;
  Format.fprintf fmt ")"

let print fmt formula =
  let prefix = Formula.prefix formula in
  let matrix = Formula.matrix formula in
  Format.fprintf fmt "p ncnf %d %d@\n" (Prefix.nvars prefix)
    (List.length matrix);
  Format.fprintf fmt "t";
  List.iter (fun r -> Format.fprintf fmt " %a" print_tree r) (Prefix.roots prefix);
  Format.fprintf fmt "@\n";
  Qdimacs.print_matrix fmt matrix

let to_string formula = Format.asprintf "%a" print formula
let write_file = Qdimacs.write_with print
