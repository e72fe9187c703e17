(* The traced run's span recorder.  Spans are taken in the benchmark's
   own code, around its calls into each layer of the program; none is
   added inside the program.  They stay in memory and are written out
   when the run ends.

   A span has a name (a layer, or "job" for the root of one job), start
   and end times, the span it nests in, and the id of the job it belongs
   to.  A span's self time is its duration minus the part of its
   interval that its children cover; the self time of the "job" roots
   is the job time no layer accounts for. *)

type span = {
  id : int;
  name : string;
  job : int;  (** shared by all spans of one job; -1 outside jobs *)
  parent : int;  (** -1 for a root *)
  t0 : float;
  t1 : float;
}

type t = {
  clock : unit -> float;
  mutable next_id : int;
  mutable open_ : int list;  (** open spans, innermost first *)
  mutable job : int;
  mutable closed : span list;  (** newest first *)
}

let create ?(clock = Unix.gettimeofday) () =
  { clock; next_id = 0; open_ = []; job = -1; closed = [] }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let parent t = match t.open_ with p :: _ -> p | [] -> -1

(* A span timed elsewhere (for instance from a phase timing the program
   reports), placed under the innermost open span. *)
let record t ~name ~t0 ~t1 =
  t.closed <-
    { id = fresh_id t; name; job = t.job; parent = parent t; t0; t1 }
    :: t.closed

(* A job timed elsewhere: its root span and its children, each given as
   [(name, t0, t1)]. *)
let record_job t ~job ~t0 ~t1 children =
  let root = fresh_id t in
  t.closed <- { id = root; name = "job"; job; parent = -1; t0; t1 } :: t.closed;
  List.iter
    (fun (name, t0, t1) ->
      t.closed <- { id = fresh_id t; name; job; parent = root; t0; t1 } :: t.closed)
    children

let span t name f =
  let id = fresh_id t in
  let parent = parent t in
  t.open_ <- id :: t.open_;
  let t0 = t.clock () in
  let close () =
    let t1 = t.clock () in
    t.open_ <- List.tl t.open_;
    t.closed <- { id; name; job = t.job; parent; t0; t1 } :: t.closed
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

let job t id f =
  let outer = t.job in
  t.job <- id;
  Fun.protect ~finally:(fun () -> t.job <- outer) (fun () -> span t "job" f)

(* The untraced run passes [None] and pays one match per layer call. *)
let wrap tr name f = match tr with None -> f () | Some t -> span t name f
let in_job tr id f = match tr with None -> f () | Some t -> job t id f

let spans t = List.rev t.closed

(* ------------------------------------------------------------------ *)
(* Self time and reconciliation                                        *)

let duration s = s.t1 -. s.t0

(* Length of the union of intervals [ivs], clipped to [lo, hi]. *)
let covered ~lo ~hi ivs =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  let rec go acc = function
    | (a, b) :: (a', b') :: rest when a' <= b ->
        go acc ((a, Float.max b b') :: rest)
    | (a, b) :: rest -> go (acc +. (b -. a)) rest
    | [] -> acc
  in
  go 0. clipped

let self_times spans =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent (s.t0, s.t1))
    spans;
  List.map
    (fun s ->
      (s, duration s -. covered ~lo:s.t0 ~hi:s.t1 (Hashtbl.find_all children s.id)))
    spans

(* Total self time per span name. *)
let self_by_name spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (prev +. self))
    (self_times spans);
  tbl

let self_of tbl name = Option.value ~default:0. (Hashtbl.find_opt tbl name)

(* Job time outside every layer span: the self time of the job roots. *)
let unaccounted spans = self_of (self_by_name spans) "job"

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

(* One JSON object per span, times in seconds from the first span. *)
let write_jsonl path spans =
  let epoch = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun (s, self) ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"job\":%d,\"parent\":%d,\"start\":%.9f,\"end\":%.9f,\"self\":%.9f}\n"
            s.id s.name s.job s.parent (s.t0 -. epoch) (s.t1 -. epoch) self)
        (self_times spans))
