(* Independent Q-resolution / term-resolution proof checker.

   Replays a qproof trace (see lib/solver/proof.ml for the grammar)
   with its own minimal resolution rules, sharing nothing with the
   solver beyond the core formula types and the instance loader.  The
   checker works directly on DIMACS integers: a literal is a nonzero
   int, its variable the absolute value.

   Two modes:

   - {e formula mode} ([?formula] given, the CLI's only mode): every
     variable declaration is cross-checked against the formula's prefix
     (quantifier and DFS discovery/finish timestamps — the solver copies
     them verbatim from [Prefix], so equality is exact), every input
     clause must occur in the formula's matrix, and a [true] conclusion
     additionally requires every non-tautological matrix clause to be
     registered and alive (an axiom term must entail the {e whole}
     matrix, not a subset).
   - {e trust mode} (no formula): declarations and input clauses are
     taken at face value.  Only for white-box tests of incremental
     sessions, where no single QDIMACS file describes the final formula.

   Soundness rules enforced on every record:
   - resolution pivots carry the kind-appropriate quantifier
     (existential for clauses, universal for terms) and appear with
     opposite polarities in the two antecedents;
   - resolvents are recomputed — reduction after every resolution — and
     must equal the recorded literal set; tautological resolvents are
     rejected unless the clash is an admissible long-distance merge
     (reducible-kind variable that the step's pivot ≺-precedes, or a
     pair inherited whole from one antecedent); a surviving merge is
     recorded with both polarities and never serves as a pivot;
   - antecedents must be alive: retracted ids ([x] records) stay known
     but unusable, unknown ids are rejected;
   - an axiom term must be consistent and cover every alive input
     clause;
   - registering an input clause kills every alive term: terms certify
     the matrix {e as it stood}, and a grown matrix invalidates them
     (the solver retracts its learned cubes explicitly, but axiom terms
     have no database id, so the checker must expire them itself);
   - a conclusion needs an alive constraint of the right kind with an
     empty literal set. *)

open Qbf_core

type cinfo = {
  term : bool;
  input : bool;
  mutable alive : bool;
  lits : int array; (* sorted, duplicate-free DIMACS *)
  pairs : int array; (* ascending variables carried with both polarities *)
}

type verdict = { conclusions : bool list; steps : int }
type failure = { line : int; msg : string }

exception Fail of string

let failf fmt = Printf.ksprintf (fun m -> raise (Fail m)) fmt

let undeclared = 0
let existential = 1
let universal = 2

(* Every per-variable table is an array indexed by DIMACS variable (slot
   0 unused).  [quant.(v)] stays [undeclared] until a [v] record
   declares [v]; [d] and [f] hold its latest ≺-interval.  The working
   set of a resolution chain lives in the same index space: [v] is in
   it when [mem.(v)] equals the chain's epoch, with polarity [pol.(v)],
   and is a merged pair when [mrg.(v)] equals it too.  [members] lists
   the set's variables, plus a resolved pivot until the next reduction
   filters it out.  A fresh epoch empties the set in O(1); an axiom
   term's consistency check reuses [mem] and [pol] the same way. *)
type st = {
  mutable quant : int array;
  mutable d : int array;
  mutable f : int array;
  mutable pol : int array;
  mutable mem : int array;
  mutable mrg : int array;
  mutable members : int array;
  mutable nmembers : int;
  mutable epoch : int;
  cons : (int, cinfo) Hashtbl.t; (* proof id -> constraint *)
  alive_inputs : (int, int array) Hashtbl.t; (* pid -> lits, for coverage *)
  alive_terms : (int, unit) Hashtbl.t; (* expired wholesale on growth *)
  mutable steps : int;
  mutable concl_rev : bool list;
  formula : Formula.t option;
  fkeys : (int array, unit) Hashtbl.t; (* non-tautological matrix clauses *)
}

let clause_key c =
  Array.of_list
    (List.sort_uniq Int.compare (List.map Lit.to_dimacs (Clause.to_list c)))

(* Formula mode sizes the tables once, from the formula.  Trust mode
   starts empty and grows them on [v] records, up to the largest
   variable count the loader accepts. *)
let max_trust_var = Qbf_io.Load.max_declared_vars

let resize st n =
  let grow a = Array.append a (Array.make (n - Array.length a) 0) in
  st.quant <- grow st.quant;
  st.d <- grow st.d;
  st.f <- grow st.f;
  st.pol <- grow st.pol;
  st.mem <- grow st.mem;
  st.mrg <- grow st.mrg

let init formula =
  let fkeys = Hashtbl.create 256 in
  (match formula with
  | Some f ->
      List.iter
        (fun c ->
          if not (Clause.is_tautology c) then
            Hashtbl.replace fkeys (clause_key c) ())
        (Formula.matrix f)
  | None -> ());
  let n = match formula with Some f -> Formula.nvars f + 1 | None -> 1 in
  let table () = Array.make n 0 in
  {
    quant = table ();
    d = table ();
    f = table ();
    pol = table ();
    mem = table ();
    mrg = table ();
    members = Array.make 64 0;
    nmembers = 0;
    epoch = 0;
    cons = Hashtbl.create 1024;
    alive_inputs = Hashtbl.create 256;
    alive_terms = Hashtbl.create 64;
    steps = 0;
    concl_rev = [];
    formula;
    fkeys;
  }

(* The one bounds-checked way into the variable tables: every variable a
   record names passes here first, so 0, [abs min_int] (which is
   negative) and anything past the tables fail as that record's error,
   never as [Invalid_argument].  Tables never shrink and declarations
   are never withdrawn, so a variable that passed once — every literal
   of a registered constraint — stays a valid index. *)
let var st v =
  if v <= 0 || v >= Array.length st.quant || st.quant.(v) = undeclared then
    failf "variable %d not declared" v;
  v

let exist st v = st.quant.(v) = existential

(* z ≺ z' through DFS timestamps, eq. 13 of the paper. *)
let precedes st v v' = st.d.(v) < st.d.(v') && st.d.(v') <= st.f.(v)

let constr st pid =
  match Hashtbl.find_opt st.cons pid with
  | Some c -> c
  | None -> failf "unknown constraint id %d" pid

let alive_constr st pid =
  let c = constr st pid in
  if not c.alive then failf "constraint %d has been retracted" pid;
  c

(* Index of the first element of the ascending [a] above [x], or
   [Array.length a]. *)
let first_above a x =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) lsr 1 in
      if a.(mid) <= x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

(* [x], a declared variable or one of its literals (so [x - 1] cannot
   wrap), occurs in the ascending [a]. *)
let mem_sorted x a =
  let j = first_above a (x - 1) in
  j < Array.length a && a.(j) = x

let fresh_epoch st =
  st.epoch <- st.epoch + 1;
  st.epoch

let enter st e v l =
  st.mem.(v) <- e;
  st.mrg.(v) <- 0;
  st.pol.(v) <- l;
  if st.nmembers = Array.length st.members then
    st.members <- Array.append st.members st.members;
  st.members.(st.nmembers) <- v;
  st.nmembers <- st.nmembers + 1

(* Universal reduction of a clause / existential reduction of a term,
   on the working set of epoch [e]: a reducible-kind literal stays
   exactly when it ≺-precedes a kept-kind member.  By eq. 13, v ≺ v'
   when d(v) < d(v') <= f(v), so against the ascending d stamps of the
   kept-kind members it suffices to compare the first stamp above d(v)
   with f(v).  One pass suffices: blockers are kept-kind and never
   removed.  Both literals of a merged pair share one variable, so they
   stay or go together. *)
let reduce st ~term e =
  let live v = st.mem.(v) = e and kept v = exist st v <> term in
  let stamps = ref [] in
  for i = 0 to st.nmembers - 1 do
    let v = st.members.(i) in
    if live v && kept v then stamps := st.d.(v) :: !stamps
  done;
  let stamps = Array.of_list !stamps in
  Array.sort Int.compare stamps;
  let n = ref 0 in
  for i = 0 to st.nmembers - 1 do
    let v = st.members.(i) in
    if live v then
      if
        kept v
        ||
        let j = first_above stamps st.d.(v) in
        j < Array.length stamps && stamps.(j) <= st.f.(v)
      then begin
        st.members.(!n) <- v;
        incr n
      end
      else begin
        st.mem.(v) <- 0;
        st.mrg.(v) <- 0
      end
  done;
  st.nmembers <- !n

(* Replay a resolution chain and return the sorted resolvent.

   A clash of polarities while adding an antecedent's literals is
   admitted as a long-distance *merge* (Zhang-Malik; sound per
   Balabanov-Jiang, here with the quantifier tree as the dependency
   order) exactly when the clashing variable is of the reducible kind —
   universal in a clause chain, existential in a term chain — and the
   pivot of the current resolution step ≺-precedes it, so the merged
   variable's player sees the pivot.  Merged variables keep one polarity
   in the working set, reduce under the normal rule (both polarities go
   together), and surviving pairs appear in the resolvent with both
   polarities.  A registered constraint carrying such a pair re-enters a
   later chain as an *inherited* merge: its admissibility was
   established by the step that derived it, so only the reducible-kind
   restriction is re-checked.  Resolving on a merged variable stays
   forbidden without a check of its own: a merged variable is of the
   reducible kind, which the pivot's quantifier check rejects. *)
let resolve_chain st ~term ~first ~chain =
  let e = fresh_epoch st in
  st.nmembers <- 0;
  let member v = st.mem.(v) = e and merged v = st.mrg.(v) = e in
  (* [pivot] is 0 while adding the starting antecedent. *)
  let add ~pivot a l =
    let v = var st (abs l) in
    if mem_sorted v a.pairs then begin
      if exist st v <> term then failf "tautological resolvent on variable %d" v;
      if not (member v) then enter st e v l;
      st.mrg.(v) <- e
    end
    else if not (member v) then enter st e v l
    else if st.pol.(v) <> l && not (merged v) then
      if pivot > 0 && exist st v = term && precedes st pivot v then
        st.mrg.(v) <- e
      else failf "tautological resolvent on variable %d" v
  in
  let c0 = alive_constr st first in
  if c0.term <> term then failf "starting antecedent %d has the wrong kind" first;
  Array.iter (add ~pivot:0 c0) c0.lits;
  reduce st ~term e;
  List.iter
    (fun (pvar, ant) ->
      if exist st (var st pvar) = term then
        failf "pivot %d has the wrong quantifier for %s resolution" pvar
          (if term then "term" else "clause");
      let a = alive_constr st ant in
      if a.term <> term then failf "antecedent %d has the wrong kind" ant;
      if not (member pvar) then failf "pivot %d is not in the working set" pvar;
      if mem_sorted pvar a.pairs then
        failf "antecedent %d carries pivot %d as a merged pair" ant pvar;
      if not (mem_sorted (-st.pol.(pvar)) a.lits) then
        failf "antecedent %d lacks the opposite literal of pivot %d" ant pvar;
      st.mem.(pvar) <- 0;
      Array.iter (fun m -> if abs m <> pvar then add ~pivot:pvar a m) a.lits;
      reduce st ~term e)
    chain;
  let out = ref [] in
  for i = 0 to st.nmembers - 1 do
    let v = st.members.(i) in
    let l = st.pol.(v) in
    out := if merged v then l :: -l :: !out else l :: !out
  done;
  let r = Array.of_list !out in
  Array.sort Int.compare r;
  r

(* The variables carried with both polarities, found once per
   constraint: in the ascending [lits], the negative literals read right
   to left and the positive ones read left to right both ascend by
   variable, so one merge finds them. *)
let pairs_of lits =
  let n = Array.length lits in
  let rec merge i j acc =
    if i < 0 || j >= n then Array.of_list (List.rev acc)
    else
      let v = -lits.(i) and v' = lits.(j) in
      if v = v' then merge (i - 1) (j + 1) (v :: acc)
      else if v < v' then merge (i - 1) j acc
      else merge i (j + 1) acc
  in
  let p = first_above lits 0 in
  merge (p - 1) p []

let register st pid ~term ~input lits =
  if pid <= 0 then failf "invalid constraint id %d" pid;
  if Hashtbl.mem st.cons pid then failf "duplicate constraint id %d" pid;
  List.iter (fun l -> ignore (var st (abs l))) lits;
  let lits = Array.of_list (List.sort_uniq Int.compare lits) in
  Hashtbl.replace st.cons pid
    { term; input; alive = true; lits; pairs = pairs_of lits };
  if input then Hashtbl.replace st.alive_inputs pid lits;
  if term then Hashtbl.replace st.alive_terms pid ();
  lits

(* A grown matrix invalidates every term derived against the old one. *)
let expire_terms st =
  Hashtbl.iter (fun pid () -> (constr st pid).alive <- false) st.alive_terms;
  Hashtbl.reset st.alive_terms

let check_input st pid lits =
  let lits = register st pid ~term:false ~input:true lits in
  (match st.formula with
  | Some _ ->
      if not (Hashtbl.mem st.fkeys lits) then
        failf "input clause %d does not occur in the formula" pid
  | None -> ());
  expire_terms st

let check_axiom st pid lits =
  let e = fresh_epoch st in
  List.iter
    (fun l ->
      let v = var st (abs l) in
      if st.mem.(v) = e && st.pol.(v) <> l then
        failf "axiom term is inconsistent on variable %d" v;
      st.mem.(v) <- e;
      st.pol.(v) <- l)
    lits;
  Hashtbl.iter
    (fun ipid clits ->
      if
        not
          (Array.exists
             (fun m ->
               let v = abs m in
               st.mem.(v) = e && st.pol.(v) = m)
             clits)
      then failf "axiom term does not cover input clause %d" ipid)
    st.alive_inputs;
  ignore (register st pid ~term:true ~input:false lits)

let check_step st ~term pid ~first ~chain lits =
  let derived = resolve_chain st ~term ~first ~chain in
  let recorded = Array.of_list (List.sort_uniq Int.compare lits) in
  if derived <> recorded then
    failf "resolvent of constraint %d does not match the derivation" pid;
  ignore (register st pid ~term ~input:false lits)

let check_retract st pid =
  (* Retraction only ever weakens the prover, so retracting an already
     dead constraint (e.g. a term the checker expired on matrix growth
     before the solver's own retraction record arrived) is harmless. *)
  let c = constr st pid in
  c.alive <- false;
  Hashtbl.remove st.alive_inputs pid;
  Hashtbl.remove st.alive_terms pid

let check_final st ~outcome pid =
  let c = alive_constr st pid in
  if c.term <> outcome then
    failf "conclusion %s needs an empty %s, constraint %d is not one"
      (if outcome then "true" else "false")
      (if outcome then "term" else "clause")
      pid;
  if c.lits <> [||] then failf "conclusion constraint %d is not empty" pid;
  (match (st.formula, outcome) with
  | Some _, true ->
      (* The axiom terms behind an empty term only covered the clauses
         alive at the time; a true conclusion is sound only if those are
         all of the formula's (non-tautological) clauses. *)
      let alive_keys = Hashtbl.create 256 in
      Hashtbl.iter
        (fun _ lits -> Hashtbl.replace alive_keys lits ())
        st.alive_inputs;
      Hashtbl.iter
        (fun key () ->
          if not (Hashtbl.mem alive_keys key) then
            raise
              (Fail
                 "true conclusion with a formula clause never registered \
                  (or retracted)"))
        st.fkeys
  | _ -> ());
  st.concl_rev <- outcome :: st.concl_rev

let check_declare st v quant_char d f =
  if v <= 0 then failf "invalid variable %d" v;
  let exist =
    match quant_char with
    | "e" -> true
    | "a" -> false
    | q -> failf "invalid quantifier %S" q
  in
  (match st.formula with
  | Some fm ->
      let p = Formula.prefix fm in
      if v > Formula.nvars fm then
        failf "declared variable %d exceeds the formula's %d" v
          (Formula.nvars fm);
      if Prefix.is_exists p (v - 1) <> exist then
        failf "variable %d declared with the wrong quantifier" v;
      if Prefix.discovery p (v - 1) <> d || Prefix.finish p (v - 1) <> f then
        failf "variable %d declared with the wrong prefix position" v
  | None ->
      if v > max_trust_var then
        failf "declared variable %d exceeds the limit of %d" v max_trust_var;
      let n = Array.length st.quant in
      if v >= n then resize st (min (max_trust_var + 1) (max (v + 1) (2 * n))));
  st.quant.(v) <- (if exist then existential else universal);
  st.d.(v) <- d;
  st.f.(v) <- f

(* ---------- trace parsing ---------------------------------------------- *)

let int_of tok =
  match int_of_string_opt tok with
  | Some n -> n
  | None -> failf "malformed integer %S" tok

(* Split [toks] at the terminating "0" into literals (nonzero ints). *)
let rec lits_until_zero acc = function
  | [] -> failf "missing terminating 0"
  | "0" :: rest -> (List.rev acc, rest)
  | tok :: rest ->
      let l = int_of tok in
      if l = 0 then failf "malformed integer %S" tok;
      lits_until_zero (l :: acc) rest

(* The (PVAR ANT)* 0 chain section of an r record. *)
let rec chain_until_zero acc = function
  | [] -> failf "missing terminating 0 of the chain"
  | "0" :: rest -> (List.rev acc, rest)
  | pvar :: ant :: rest ->
      let pv = int_of pvar and a = int_of ant in
      if pv <= 0 then failf "invalid pivot variable %d" pv;
      chain_until_zero ((pv, a) :: acc) rest
  | [ _ ] -> failf "dangling pivot without an antecedent"

let expect_end = function
  | [] -> ()
  | tok :: _ -> failf "trailing token %S" tok

let check_record st tokens =
  match tokens with
  | [] -> ()
  | [ "v"; v; q; d; f ] -> check_declare st (int_of v) q (int_of d) (int_of f)
  | "i" :: pid :: rest ->
      let lits, rest = lits_until_zero [] rest in
      expect_end rest;
      st.steps <- st.steps + 1;
      check_input st (int_of pid) lits
  | "a" :: pid :: rest ->
      let lits, rest = lits_until_zero [] rest in
      expect_end rest;
      st.steps <- st.steps + 1;
      check_axiom st (int_of pid) lits
  | "r" :: kind :: pid :: first :: rest ->
      let term =
        match kind with
        | "c" -> false
        | "t" -> true
        | k -> failf "invalid resolution kind %S" k
      in
      let chain, rest = chain_until_zero [] rest in
      let lits, rest = lits_until_zero [] rest in
      expect_end rest;
      st.steps <- st.steps + 1;
      check_step st ~term (int_of pid) ~first:(int_of first) ~chain lits
  | [ "x"; pid ] -> check_retract st (int_of pid)
  | [ "f"; o; pid ] ->
      let outcome =
        match o with
        | "1" -> true
        | "0" -> false
        | _ -> failf "invalid conclusion flag %S" o
      in
      check_final st ~outcome (int_of pid)
  | tok :: _ -> failf "unrecognized record %S" tok

let tokens_of line =
  List.filter (fun t -> t <> "") (String.split_on_char ' ' line)

let check_channel ?formula ic =
  let st = init formula in
  let lineno = ref 0 in
  let fail_at msg = Error { line = !lineno; msg } in
  let next () =
    match input_line ic with
    | line ->
        incr lineno;
        Some line
    | exception End_of_file -> None
  in
  (* Header: the first non-comment, non-blank line. *)
  let rec header () =
    match next () with
    | None -> failf "empty trace (no header)"
    | Some line -> (
        match tokens_of line with
        | [] | "c" :: _ -> header ()
        | [ "p"; "qproof"; v ] ->
            if int_of v <> 1 then failf "unsupported trace version %s" v
        | _ -> failf "missing 'p qproof 1' header")
  in
  let rec body () =
    match next () with
    | None -> Ok { conclusions = List.rev st.concl_rev; steps = st.steps }
    | Some line -> (
        match tokens_of line with
        | "c" :: _ -> body ()
        | tokens ->
            check_record st tokens;
            body ())
  in
  match
    header ();
    body ()
  with
  | r -> r
  | exception Fail msg -> fail_at msg

let check_file ?formula path =
  match open_in path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> check_channel ?formula ic)
  | exception Sys_error msg -> Error { line = 0; msg }

(* The formula goes through the one loader the solver's front ends use,
   so a bad formula reads the same diagnostic as under [qube]. *)
let check_against ~formula_path proof_path =
  match Qbf_io.Load.of_file formula_path with
  | Error e -> Error { line = 0; msg = Qbf_io.Load.error_to_string e }
  | Ok formula -> check_file ~formula proof_path
