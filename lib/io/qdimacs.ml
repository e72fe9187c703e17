(* QDIMACS writer (prenex CNF); {!Load} reads it back.  The matrix
   printer and the file writer serve NQDIMACS too. *)

open Qbf_core

let print_matrix fmt matrix =
  List.iter
    (fun c ->
      Clause.iter (fun l -> Format.fprintf fmt "%d " (Lit.to_dimacs l)) c;
      Format.fprintf fmt "0@\n")
    matrix

let write_with print path formula =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let fmt = Format.formatter_of_out_channel oc in
      print fmt formula;
      Format.pp_print_flush fmt ())

let print fmt formula =
  let prefix = Formula.prefix formula in
  if not (Prefix.is_prenex prefix) then
    invalid_arg "Qdimacs.print: formula is not in prenex form";
  let matrix = Formula.matrix formula in
  Format.fprintf fmt "p cnf %d %d@\n" (Prefix.nvars prefix)
    (List.length matrix);
  List.iter
    (fun (q, vars) ->
      if vars <> [] then (
        Format.fprintf fmt "%s" (Quant.symbol q);
        List.iter (fun v -> Format.fprintf fmt " %d" (v + 1)) vars;
        Format.fprintf fmt " 0@\n"))
    (Prefix.blocks_outermost_first prefix);
  print_matrix fmt matrix

let to_string formula = Format.asprintf "%a" print formula
let write_file = write_with print
