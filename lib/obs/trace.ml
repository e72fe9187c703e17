(* Trace emitter: a typed event stream buffered in a fixed-size ring of
   preallocated slots and drained to a JSONL sink.

   The hot path ([emit]) costs a sampling check, a clock read and a few
   stores into a preallocated slot — no allocation.  Two draining
   regimes:
   - with a [sink], a full ring flushes itself, so no event is lost;
   - without one, the ring wraps around and keeps the *latest*
     [capacity] events ([dropped] counts the overwritten ones) — the
     flight-recorder mode used by tests and post-mortem inspection.

   Sampling ([every = n]) records every n-th offered event, counted
   globally over the stream, so a sampled trace is a deterministic
   function of the event sequence (and of the injected clock). *)

type kind =
  | Decision (* branching step, first branch or flip; arg = literal *)
  | Propagation (* unit assignment, clause or cube; arg = literal *)
  | Pure (* pure-literal fixing; arg = literal *)
  | Conflict (* falsified-clause leaf; arg = clause id *)
  | Solution (* solution leaf; arg = cube id, or -1 for a matrix cover *)
  | Learn_clause (* arg = size of the learned clause *)
  | Learn_cube (* arg = size of the learned cube *)
  | Backjump (* learning-driven jump; arg = target level *)
  | Restart (* arg = restart count so far *)
  | Delete (* constraint deactivated; arg = constraint id *)
  | Fallback
      (* analysis abandoned for a chronological flip; arg = 0 after a
         conflict, 1 after a solution *)
  (* Serving-supervisor events (Qbf_serve): for these, [dlevel] carries
     the worker pid (0 if none), [plevel] the attempt number within the
     job, and [arg] the job id. *)
  | Serve_spawn (* worker process forked *)
  | Serve_dispatch (* job attempt handed to a worker *)
  | Serve_result (* a worker answered (any outcome) *)
  | Serve_retry (* job re-queued after a transient failure *)
  | Serve_kill (* worker signalled (cancellation, hang, garbage) *)

let kind_to_string = function
  | Decision -> "decision"
  | Propagation -> "propagation"
  | Pure -> "pure"
  | Conflict -> "conflict"
  | Solution -> "solution"
  | Learn_clause -> "learn-clause"
  | Learn_cube -> "learn-cube"
  | Backjump -> "backjump"
  | Restart -> "restart"
  | Delete -> "constraint-delete"
  | Fallback -> "fallback"
  | Serve_spawn -> "serve-spawn"
  | Serve_dispatch -> "serve-dispatch"
  | Serve_result -> "serve-result"
  | Serve_retry -> "serve-retry"
  | Serve_kill -> "serve-kill"

let kind_of_string = function
  | "decision" -> Some Decision
  | "propagation" -> Some Propagation
  | "pure" -> Some Pure
  | "conflict" -> Some Conflict
  | "solution" -> Some Solution
  | "learn-clause" -> Some Learn_clause
  | "learn-cube" -> Some Learn_cube
  | "backjump" -> Some Backjump
  | "restart" -> Some Restart
  | "constraint-delete" -> Some Delete
  | "fallback" -> Some Fallback
  | "serve-spawn" -> Some Serve_spawn
  | "serve-dispatch" -> Some Serve_dispatch
  | "serve-result" -> Some Serve_result
  | "serve-retry" -> Some Serve_retry
  | "serve-kill" -> Some Serve_kill
  | _ -> None

let all_kinds =
  [
    Decision; Propagation; Pure; Conflict; Solution; Learn_clause;
    Learn_cube; Backjump; Restart; Delete; Fallback; Serve_spawn;
    Serve_dispatch; Serve_result; Serve_retry; Serve_kill;
  ]

let kind_index = function
  | Decision -> 0
  | Propagation -> 1
  | Pure -> 2
  | Conflict -> 3
  | Solution -> 4
  | Learn_clause -> 5
  | Learn_cube -> 6
  | Backjump -> 7
  | Restart -> 8
  | Delete -> 9
  | Fallback -> 10
  | Serve_spawn -> 11
  | Serve_dispatch -> 12
  | Serve_result -> 13
  | Serve_retry -> 14
  | Serve_kill -> 15

let num_kinds = 16

(* An emitted event.  [seq] numbers *offered* events (pre-sampling), so
   consumers of a sampled trace can see the gaps; [t] is seconds since
   the trace was created, by the trace's (injectable, monotonic-enough)
   clock. *)
type event = {
  seq : int;
  t : float;
  kind : kind;
  dlevel : int; (* decision level when the event fired *)
  plevel : int; (* prefix level of the variable involved, or 0 *)
  arg : int; (* kind-specific payload, see {!kind} *)
}

type slot = {
  mutable s_seq : int;
  mutable s_t : float;
  mutable s_kind : int;
  mutable s_dlevel : int;
  mutable s_plevel : int;
  mutable s_arg : int;
}

type t = {
  slots : slot array;
  cap : int;
  mutable start : int; (* ring start index *)
  mutable len : int;
  mutable offered : int; (* events offered to [emit] *)
  mutable recorded : int; (* events that passed sampling *)
  mutable dropped : int; (* recorded events overwritten by wraparound *)
  every : int;
  clock : unit -> float;
  t0 : float;
  sink : (string -> unit) option; (* one JSONL line per call *)
  scratch : Buffer.t;
}

let create ?(capacity = 4096) ?(every = 1) ?(clock = Unix.gettimeofday) ?sink
    () =
  let capacity = max 1 capacity in
  {
    slots =
      Array.init capacity (fun _ ->
          { s_seq = 0; s_t = 0.; s_kind = 0; s_dlevel = 0; s_plevel = 0;
            s_arg = 0 });
    cap = capacity;
    start = 0;
    len = 0;
    offered = 0;
    recorded = 0;
    dropped = 0;
    every = max 1 every;
    clock;
    t0 = clock ();
    sink;
    scratch = Buffer.create 128;
  }

let offered t = t.offered
let recorded t = t.recorded
let dropped t = t.dropped
let every t = t.every

let kind_of_index i = List.nth all_kinds i

(* Render one slot as a JSONL line (no trailing newline). *)
let render_slot t s =
  let buf = t.scratch in
  Buffer.clear buf;
  Buffer.add_string buf "{\"v\":1,\"seq\":";
  Buffer.add_string buf (string_of_int s.s_seq);
  Buffer.add_string buf ",\"t\":";
  Buffer.add_string buf (Printf.sprintf "%.6f" s.s_t);
  Buffer.add_string buf ",\"kind\":\"";
  Buffer.add_string buf (kind_to_string (kind_of_index s.s_kind));
  Buffer.add_string buf "\",\"dlevel\":";
  Buffer.add_string buf (string_of_int s.s_dlevel);
  Buffer.add_string buf ",\"plevel\":";
  Buffer.add_string buf (string_of_int s.s_plevel);
  Buffer.add_string buf ",\"arg\":";
  Buffer.add_string buf (string_of_int s.s_arg);
  Buffer.add_char buf '}';
  Buffer.contents buf

(* Drain the buffered events, oldest first, to the sink (no-op without
   one: flight-recorder contents stay available via [to_list]). *)
let flush t =
  match t.sink with
  | None -> ()
  | Some write ->
      for i = 0 to t.len - 1 do
        let s = t.slots.((t.start + i) mod t.cap) in
        write (render_slot t s)
      done;
      t.start <- 0;
      t.len <- 0

let emit t kind ~dlevel ~plevel ~arg =
  let n = t.offered in
  t.offered <- n + 1;
  if n mod t.every = 0 then begin
    (if t.len = t.cap then
       match t.sink with
       | Some _ -> flush t
       | None ->
           (* wraparound: forget the oldest recorded event *)
           t.start <- (t.start + 1) mod t.cap;
           t.len <- t.len - 1;
           t.dropped <- t.dropped + 1);
    let s = t.slots.((t.start + t.len) mod t.cap) in
    s.s_seq <- n;
    s.s_t <- t.clock () -. t.t0;
    s.s_kind <- kind_index kind;
    s.s_dlevel <- dlevel;
    s.s_plevel <- plevel;
    s.s_arg <- arg;
    t.len <- t.len + 1;
    t.recorded <- t.recorded + 1
  end

(* Buffered (not yet drained) events, oldest first. *)
let to_list t =
  List.init t.len (fun i ->
      let s = t.slots.((t.start + i) mod t.cap) in
      {
        seq = s.s_seq;
        t = s.s_t;
        kind = kind_of_index s.s_kind;
        dlevel = s.s_dlevel;
        plevel = s.s_plevel;
        arg = s.s_arg;
      })

(* ---------- reading traces back ---------------------------------------- *)

let event_to_line e =
  Printf.sprintf
    "{\"v\":1,\"seq\":%d,\"t\":%.6f,\"kind\":\"%s\",\"dlevel\":%d,\"plevel\":%d,\"arg\":%d}"
    e.seq e.t (kind_to_string e.kind) e.dlevel e.plevel e.arg

(* Parse one JSONL line into an event, validating the schema: all six
   fields present with the right types, a known kind, version 1. *)
let parse_line line =
  match Json.of_string_res line with
  | Error m -> Error m
  | Ok j -> (
      match
        ( Json.member_int "v" j,
          Json.member_int "seq" j,
          Json.member_float "t" j,
          Json.member_string "kind" j,
          Json.member_int "dlevel" j,
          Json.member_int "plevel" j,
          Json.member_int "arg" j )
      with
      | Some 1, Some seq, Some t, Some kind_s, Some dlevel, Some plevel,
        Some arg -> (
          match kind_of_string kind_s with
          | Some kind -> Ok { seq; t; kind; dlevel; plevel; arg }
          | None -> Error (Printf.sprintf "unknown kind %S" kind_s))
      | Some v, _, _, _, _, _, _ when v <> 1 ->
          Error (Printf.sprintf "unsupported trace version %d" v)
      | _ -> Error "missing or ill-typed field (need v,seq,t,kind,dlevel,plevel,arg)")

(* Per-kind counts over a parsed trace. *)
let counts events =
  let a = Array.make num_kinds 0 in
  List.iter (fun e -> a.(kind_index e.kind) <- a.(kind_index e.kind) + 1) events;
  List.map (fun k -> (k, a.(kind_index k))) all_kinds

(* Per-prefix-level decision histogram of a parsed trace: index = prefix
   level, value = number of decision events at that level. *)
let decision_levels events =
  let top =
    List.fold_left
      (fun acc e -> if e.kind = Decision then max acc e.plevel else acc)
      0 events
  in
  let a = Array.make (top + 1) 0 in
  List.iter
    (fun e -> if e.kind = Decision then a.(e.plevel) <- a.(e.plevel) + 1)
    events;
  a
