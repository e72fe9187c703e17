(* Metrics registry: the distributions of a search, with O(1)
   hot-path updates.  The engine's event counts live in its own stats
   record, which a collector reads when a snapshot is taken (see
   Obs.counters); this registry holds only what that record cannot: four
   log2 histograms and the per-prefix-level decision counts.  The hot
   path works on a preallocated record — no closures, no hashing, no
   allocation per event; the *registry* view (stable names, snapshot,
   JSON) is only materialised when a snapshot is taken.

   Histograms use log2 buckets: an observation [x >= 0] lands in bucket
   [bits x] (the position of its highest set bit, 0 for x = 0), so the
   update is a handful of instructions and the memory footprint is one
   small int array per histogram. *)

type hist = {
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_max : int;
  h_buckets : int array; (* log2 buckets *)
}

let hist_buckets = 32

let hist_create () =
  { h_count = 0; h_sum = 0; h_max = 0; h_buckets = Array.make hist_buckets 0 }

let bits x =
  let rec go n x = if x = 0 then n else go (n + 1) (x lsr 1) in
  if x <= 0 then 0 else go 0 x

let hist_add h x =
  let x = if x < 0 then 0 else x in
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + x;
  if x > h.h_max then h.h_max <- x;
  let b = bits x in
  let b = if b >= hist_buckets then hist_buckets - 1 else b in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1

let hist_mean h =
  if h.h_count = 0 then 0. else float_of_int h.h_sum /. float_of_int h.h_count

type t = {
  backjump_length : hist; (* levels undone per learning backjump *)
  decision_level : hist; (* decision level at each branching step *)
  learned_clause_size : hist;
  learned_cube_size : hist;
  (* per-prefix-level decision counts, grown on demand (prefix levels
     are small: the paper's suites stay under a few dozen) *)
  mutable per_level : int array;
}

let create () =
  {
    backjump_length = hist_create ();
    decision_level = hist_create ();
    learned_clause_size = hist_create ();
    learned_cube_size = hist_create ();
    per_level = Array.make 16 0;
  }

(* ---------- hot-path updates ------------------------------------------- *)

let[@inline] ensure_level m lvl =
  if lvl >= Array.length m.per_level then begin
    let bigger = Array.make (max (lvl + 1) (2 * Array.length m.per_level)) 0 in
    Array.blit m.per_level 0 bigger 0 (Array.length m.per_level);
    m.per_level <- bigger
  end

(* [plevel] is the prefix level of the branching variable, [dlevel] the
   decision level being opened. *)
let on_decision m ~plevel ~dlevel =
  hist_add m.decision_level dlevel;
  ensure_level m plevel;
  m.per_level.(plevel) <- m.per_level.(plevel) + 1

let on_learn_clause m ~size = hist_add m.learned_clause_size size
let on_learn_cube m ~size = hist_add m.learned_cube_size size

let on_backjump m ~from_level ~to_level =
  hist_add m.backjump_length (from_level - to_level)

(* ---------- snapshot ---------------------------------------------------- *)

type hist_snapshot = {
  count : int;
  sum : int;
  max_value : int;
  mean : float;
  buckets : (int * int) list; (* (inclusive lower bound, count), non-empty *)
}

let hist_snapshot h =
  let buckets = ref [] in
  for b = hist_buckets - 1 downto 0 do
    if h.h_buckets.(b) > 0 then
      let lo = if b = 0 then 0 else 1 lsl (b - 1) in
      buckets := (lo, h.h_buckets.(b)) :: !buckets
  done;
  {
    count = h.h_count;
    sum = h.h_sum;
    max_value = h.h_max;
    mean = hist_mean h;
    buckets = !buckets;
  }

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist_snapshot) list;
  per_level_decisions : int list; (* index = prefix level *)
}

(* The gauges that are ratios of counters.  A snapshot and a merge
   both derive them from their counters (a mean of means would depend on
   grouping). *)
let ratio_gauges counters =
  let c name = Option.value ~default:0 (List.assoc_opt name counters) in
  let ratio num den =
    if den = 0 then 0. else float_of_int num /. float_of_int den
  in
  [
    ("propagations_per_conflict", ratio (c "propagations") (c "conflicts"));
    ( "decisions_per_leaf",
      ratio (c "decisions") (c "conflicts" + c "solutions") );
  ]

(* [counters] are the engine's event counts (Obs.counters), which the
   registry does not keep itself. *)
let snapshot ~counters m =
  let gauges =
    ("max_decision_level", float_of_int m.decision_level.h_max)
    :: ratio_gauges counters
  in
  let histograms =
    [
      ("backjump_length", hist_snapshot m.backjump_length);
      ("decision_level", hist_snapshot m.decision_level);
      ("learned_clause_size", hist_snapshot m.learned_clause_size);
      ("learned_cube_size", hist_snapshot m.learned_cube_size);
    ]
  in
  (* trim trailing zero levels but keep level 0 so the list is total *)
  let last = ref 0 in
  Array.iteri (fun i n -> if n > 0 then last := i) m.per_level;
  let per_level_decisions =
    List.init (!last + 1) (fun i -> m.per_level.(i))
  in
  { counters; gauges; histograms; per_level_decisions }

(* ---------- snapshot merge ---------------------------------------------- *)

(* Merging cross-process snapshots (the serving supervisor folds one
   snapshot per worker attempt into a service-level view).  The merge is
   associative and commutative by construction: counters, histogram
   buckets and per-level decisions add; maxima take max; derived gauges
   are recomputed from the merged counters; and every association list
   in the result is sorted by key so grouping order cannot leak into the
   merged artifact. *)

let merge_hist_snapshot (a : hist_snapshot) (b : hist_snapshot) =
  let rec buckets xs ys =
    match (xs, ys) with
    | [], r | r, [] -> r
    | (lo1, n1) :: xs', (lo2, n2) :: ys' ->
        if lo1 < lo2 then (lo1, n1) :: buckets xs' ys
        else if lo2 < lo1 then (lo2, n2) :: buckets xs ys'
        else (lo1, n1 + n2) :: buckets xs' ys'
  in
  let count = a.count + b.count in
  let sum = a.sum + b.sum in
  {
    count;
    sum;
    max_value = max a.max_value b.max_value;
    mean = (if count = 0 then 0. else float_of_int sum /. float_of_int count);
    buckets = buckets a.buckets b.buckets;
  }

(* Sorted-by-key union of two association lists, combining duplicates. *)
let merge_assoc combine a b =
  let sorted l = List.sort (fun (k1, _) (k2, _) -> compare k1 k2) l in
  let rec go xs ys =
    match (xs, ys) with
    | [], r | r, [] -> r
    | (k1, v1) :: xs', (k2, v2) :: ys' ->
        if k1 < k2 then (k1, v1) :: go xs' ys
        else if k2 < k1 then (k2, v2) :: go xs ys'
        else (k1, combine v1 v2) :: go xs' ys'
  in
  go (sorted a) (sorted b)

(* Gauges that are ratios of counters are recomputed from the merged
   counters; anything else is a high-water mark and takes the max. *)
let merge_snapshot (a : snapshot) (b : snapshot) =
  let counters = merge_assoc ( + ) a.counters b.counters in
  let ratios = ratio_gauges counters in
  let gauges =
    merge_assoc Float.max a.gauges b.gauges
    |> List.map (fun (k, v) ->
           (k, Option.value ~default:v (List.assoc_opt k ratios)))
  in
  let histograms = merge_assoc merge_hist_snapshot a.histograms b.histograms in
  let rec add_levels xs ys =
    match (xs, ys) with
    | [], r | r, [] -> r
    | x :: xs', y :: ys' -> (x + y) :: add_levels xs' ys'
  in
  {
    counters;
    gauges;
    histograms;
    per_level_decisions = add_levels a.per_level_decisions b.per_level_decisions;
  }

(* Approximate percentile ([q] in 0..1) from the log2 buckets: the
   inclusive upper bound of the bucket holding the q-th observation.
   Bucket [lo] covers [lo .. 2*lo - 1] (and bucket 0 is exactly 0). *)
let hist_percentile (h : hist_snapshot) q =
  if h.count = 0 then 0
  else
    let target =
      let t = int_of_float (Float.round (q *. float_of_int h.count)) in
      max 1 (min h.count t)
    in
    let rec go cum = function
      | [] -> h.max_value
      | (lo, n) :: rest ->
          if cum + n >= target then
            if lo = 0 then 0 else min h.max_value ((2 * lo) - 1)
          else go (cum + n) rest
    in
    go 0 h.buckets

(* ---------- JSON --------------------------------------------------------- *)

let hist_to_json (h : hist_snapshot) =
  Json.Obj
    [
      ("count", Json.Int h.count);
      ("sum", Json.Int h.sum);
      ("max", Json.Int h.max_value);
      ("mean", Json.Float h.mean);
      ( "buckets",
        Json.List
          (List.map
             (fun (lo, n) -> Json.List [ Json.Int lo; Json.Int n ])
             h.buckets) );
    ]

let snapshot_to_json (s : snapshot) =
  Json.Obj
    [
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.counters) );
      ( "gauges",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) s.gauges) );
      ( "histograms",
        Json.Obj
          (List.map (fun (k, h) -> (k, hist_to_json h)) s.histograms) );
      ( "per_level_decisions",
        Json.List (List.map (fun n -> Json.Int n) s.per_level_decisions) );
    ]

(* Readers for what [snapshot_to_json]/[hist_to_json] write — the
   supervisor parses worker-shipped snapshots back before merging. *)

let hist_of_json j =
  let int k = Option.bind (Json.member k j) Json.to_int_opt in
  let flo k = Option.bind (Json.member k j) Json.to_float_opt in
  let buckets =
    match Json.member "buckets" j with
    | Some (Json.List bs) ->
        List.fold_left
          (fun acc b ->
            match (acc, b) with
            | Some acc, Json.List [ Json.Int lo; Json.Int n ] ->
                Some ((lo, n) :: acc)
            | _ -> None)
          (Some []) bs
        |> Option.map List.rev
    | _ -> None
  in
  match (int "count", int "sum", int "max", flo "mean", buckets) with
  | Some count, Some sum, Some max_value, Some mean, Some buckets ->
      Ok { count; sum; max_value; mean; buckets }
  | _ -> Error "histogram snapshot missing count/sum/max/mean/buckets"

let snapshot_of_json j =
  let obj_fields k conv =
    match Json.member k j with
    | Some (Json.Obj kvs) ->
        List.fold_left
          (fun acc (name, v) ->
            match (acc, conv v) with
            | Ok acc, Ok x -> Ok ((name, x) :: acc)
            | (Error _ as e), _ -> e
            | Ok _, Error m ->
                Error (Printf.sprintf "field %S of %S: %s" name k m)
          )
          (Ok []) kvs
        |> Result.map List.rev
    | _ -> Error (Printf.sprintf "snapshot has no %S object" k)
  in
  let int_field = function
    | Json.Int i -> Ok i
    | _ -> Error "expected an integer"
  in
  let float_field v =
    match Json.to_float_opt v with
    | Some f -> Ok f
    | None -> Error "expected a number"
  in
  let per_level =
    match Json.member "per_level_decisions" j with
    | Some (Json.List xs) ->
        List.fold_left
          (fun acc x ->
            match (acc, x) with
            | Ok acc, Json.Int n -> Ok (n :: acc)
            | _ -> Error "per_level_decisions must be a list of integers")
          (Ok []) xs
        |> Result.map List.rev
    | _ -> Error "snapshot has no per_level_decisions list"
  in
  match
    ( obj_fields "counters" int_field,
      obj_fields "gauges" float_field,
      obj_fields "histograms" hist_of_json,
      per_level )
  with
  | Ok counters, Ok gauges, Ok histograms, Ok per_level_decisions ->
      Ok { counters; gauges; histograms; per_level_decisions }
  | Error m, _, _, _ | _, Error m, _, _ | _, _, Error m, _ | _, _, _, Error m
    ->
      Error m

(* ---------- Prometheus text exposition ----------------------------------- *)

(* Encoders for the Prometheus text format (one metric family per
   block: a # TYPE line then samples), plus a line-grammar validator so
   tests and qtop --check can verify any produced exposition without a
   real Prometheus around.  Histograms render the log2 buckets as the
   cumulative le-labelled series Prometheus expects: bucket [lo] covers
   [lo .. 2*lo - 1], so its upper bound is [2*lo - 1] (0 for the zero
   bucket). *)

let prom_escape_label v =
  let buf = Buffer.create (String.length v + 4) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let prom_labels = function
  | [] -> ""
  | kvs ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape_label v))
             kvs)
      ^ "}"

let prom_value f =
  if Float.is_integer f && Float.abs f < 1e15 then
    string_of_int (int_of_float f)
  else Printf.sprintf "%.6g" f

let prom_sample buf ~name ?(labels = []) v =
  Buffer.add_string buf name;
  Buffer.add_string buf (prom_labels labels);
  Buffer.add_char buf ' ';
  Buffer.add_string buf (prom_value v);
  Buffer.add_char buf '\n'

let prom_family buf ~name ~typ samples =
  Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name typ);
  List.iter (fun (labels, v) -> prom_sample buf ~name ~labels v) samples

let prom_hist buf ~name ?(labels = []) (h : hist_snapshot) =
  Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" name);
  let cum = ref 0 in
  List.iter
    (fun (lo, n) ->
      cum := !cum + n;
      let le = if lo = 0 then 0 else (2 * lo) - 1 in
      prom_sample buf ~name:(name ^ "_bucket")
        ~labels:(labels @ [ ("le", string_of_int le) ])
        (float_of_int !cum))
    h.buckets;
  prom_sample buf ~name:(name ^ "_bucket")
    ~labels:(labels @ [ ("le", "+Inf") ])
    (float_of_int h.count);
  prom_sample buf ~name:(name ^ "_sum") ~labels (float_of_int h.sum);
  prom_sample buf ~name:(name ^ "_count") ~labels (float_of_int h.count)

(* Render an engine-metrics snapshot as Prometheus text.  Counter names
   get the conventional _total suffix; per-level decision counts become
   one labelled family. *)
let snapshot_to_prometheus ?(prefix = "qube_engine_") ?(labels = []) s =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (k, v) ->
      prom_family buf ~name:(prefix ^ k ^ "_total") ~typ:"counter"
        [ (labels, float_of_int v) ])
    s.counters;
  List.iter
    (fun (k, v) -> prom_family buf ~name:(prefix ^ k) ~typ:"gauge" [ (labels, v) ])
    s.gauges;
  List.iter
    (fun (k, h) -> prom_hist buf ~name:(prefix ^ k) ~labels h)
    s.histograms;
  (match s.per_level_decisions with
  | [] -> ()
  | levels ->
      prom_family buf
        ~name:(prefix ^ "decisions_by_prefix_level_total")
        ~typ:"counter"
        (List.mapi
           (fun i n -> (labels @ [ ("plevel", string_of_int i) ], float_of_int n))
           levels));
  Buffer.contents buf

(* ---------- Prometheus line grammar -------------------------------------- *)

(* Validates one line of text exposition:
     line      := comment | sample | blank
     comment   := '#' ...                  (TYPE comments checked strictly)
     sample    := name labels? ' ' value (' ' timestamp)?
     name      := [a-zA-Z_:][a-zA-Z0-9_:]*
     labels    := '{' name '="' escaped '"' (',' ...)* '}'
     value     := float | '+Inf' | '-Inf' | 'NaN'
   Returns [Error] with a position-bearing message on the first
   violation; used by the telemetry tests and qtop --check. *)
let prom_check_line line =
  let n = String.length line in
  let name_start c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'
  in
  let name_char c = name_start c || (c >= '0' && c <= '9') in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if n = 0 then Ok ()
  else if line.[0] = '#' then
    if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then
      match String.split_on_char ' ' line with
      | [ "#"; "TYPE"; name; typ ]
        when name <> ""
             && name_start name.[0]
             && String.for_all name_char name
             && List.mem typ [ "counter"; "gauge"; "histogram"; "summary"; "untyped" ]
        -> Ok ()
      | _ -> fail "malformed # TYPE line"
    else Ok () (* free-form comment / HELP *)
  else begin
    let i = ref 0 in
    if not (name_start line.[0]) then fail "metric name must start [a-zA-Z_:]"
    else begin
      while !i < n && name_char line.[!i] do incr i done;
      let labels_ok =
        if !i < n && line.[!i] = '{' then begin
          incr i;
          let ok = ref true and closed = ref false in
          while !ok && not !closed && !i < n do
            (* label name *)
            let s = !i in
            while !i < n && name_char line.[!i] do incr i done;
            if !i = s || !i + 1 >= n || line.[!i] <> '=' || line.[!i + 1] <> '"'
            then ok := false
            else begin
              i := !i + 2;
              (* quoted value with escapes *)
              let in_str = ref true in
              while !in_str && !i < n do
                if line.[!i] = '\\' then i := !i + 2
                else if line.[!i] = '"' then begin
                  in_str := false;
                  incr i
                end
                else incr i
              done;
              if !in_str then ok := false
              else if !i < n && line.[!i] = ',' then incr i
              else if !i < n && line.[!i] = '}' then begin
                closed := true;
                incr i
              end
              else ok := false
            end
          done;
          !ok && !closed
        end
        else true
      in
      if not labels_ok then fail "malformed label set"
      else if !i >= n || line.[!i] <> ' ' then
        fail "expected space before value at column %d" !i
      else begin
        let rest = String.sub line (!i + 1) (n - !i - 1) in
        let parts = String.split_on_char ' ' rest in
        let value_ok v =
          v = "+Inf" || v = "-Inf" || v = "NaN" || float_of_string_opt v <> None
        in
        match parts with
        | [ v ] when value_ok v -> Ok ()
        | [ v; ts ] when value_ok v && int_of_string_opt ts <> None -> Ok ()
        | _ -> fail "malformed value %S" rest
      end
    end
  end

(* Whole-exposition check: every line must pass the grammar, a family
   has at most one # TYPE line, before its first sample, and its
   samples are contiguous.  The _bucket/_sum/_count samples of a
   histogram belong to its family. *)
let prom_check_text text =
  let typed = Hashtbl.create 64 and begun = Hashtbl.create 64 in
  let current = ref "" in
  let family_of name =
    let of_suffix sfx =
      let n = String.length name and k = String.length sfx in
      if n > k && String.sub name (n - k) k = sfx then
        let base = String.sub name 0 (n - k) in
        match Hashtbl.find_opt typed base with
        | Some ("histogram" | "summary") -> Some base
        | _ -> None
      else None
    in
    Option.value ~default:name
      (List.find_map of_suffix [ "_bucket"; "_sum"; "_count" ])
  in
  let enter family =
    if family = !current then Ok ()
    else if Hashtbl.mem begun family then
      Error
        (Printf.sprintf "samples of %s resume after another family began"
           family)
    else begin
      Hashtbl.replace begun family ();
      current := family;
      Ok ()
    end
  in
  let structure l =
    match String.split_on_char ' ' l with
    | [ "#"; "TYPE"; name; typ ] ->
        if Hashtbl.mem typed name then
          Error (Printf.sprintf "second # TYPE line for %s" name)
        else if Hashtbl.mem begun name then
          Error (Printf.sprintf "# TYPE line for %s after its samples" name)
        else begin
          Hashtbl.replace typed name typ;
          enter name
        end
    | _ when l = "" || l.[0] = '#' -> Ok ()
    | _ ->
        let stop =
          match String.index_opt l '{' with
          | Some i -> i
          | None -> String.index l ' '
        in
        enter (family_of (String.sub l 0 stop))
  in
  let rec go lineno = function
    | [] -> Ok ()
    | l :: rest -> (
        match Result.bind (prom_check_line l) (fun () -> structure l) with
        | Ok () -> go (lineno + 1) rest
        | Error m -> Error (Printf.sprintf "line %d: %s" lineno m))
  in
  go 1 (String.split_on_char '\n' text)
