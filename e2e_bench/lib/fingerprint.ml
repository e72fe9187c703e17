(* The work fingerprint: exact counts of the work a run did.  Node
   budgets, one configuration per job and no wall-clock limits make
   every count a function of the seed alone, so two runs of one seed
   must print the same digest: a difference shows that some work
   depends on timing, where a timing alone would pass it for noise.  A
   traced run fails when its two passes differ. *)

let names =
  [
    "bounds";
    "decisions";
    "propagations";
    "learned";
    "proof_records";
    "check_steps";
    "budget_stops";
    "dispatches";
    "spawns";
    "cache_hits";
    "failures";
  ]

type t = (string * int) list

(* Every name in [names] order; counts a workload does not produce are
   0. *)
let make counts =
  List.map
    (fun n ->
      (n, List.fold_left (fun acc (k, v) -> if k = n then acc + v else acc) 0 counts))
    names

let digest (fp : t) =
  String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) fp)
  |> Digest.string |> Digest.to_hex

let to_json (fp : t) =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%S:%d" k v) fp
      @ [ Printf.sprintf "\"digest\":%S" (digest fp) ])
  ^ "}"
