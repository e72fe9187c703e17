(* The observability collector threaded through the engine: one
   preallocated record bundling the metrics registry, the trace emitter
   and the phase profiler, with one boolean flag per component, plus the
   readers of the event counters of every engine state that uses it.

   The contract with the hot path is: every instrumentation site is
   guarded by a single flag read ([metrics_on] / [trace_on] /
   [profile_on]); when a flag is false the component is never touched,
   so a disabled collector costs one load and one branch per site and
   allocates nothing.  The event counts are not instrumented at all: the
   engine keeps them in its own stats record, and a collector reads them
   through [counters] when asked.  [none] is the shared all-off
   collector installed when a solve is run without observability. *)

type t = {
  metrics_on : bool;
  trace_on : bool;
  profile_on : bool;
  metrics : Metrics.t;
  trace : Trace.t;
  profile : Profile.t;
  mutable readers : (unit -> (string * int) list) list;
      (* live counters of the engine states attached to this collector,
         newest first (see [attach]) *)
}

(* Missing components get minimal placeholders (a 1-slot ring, empty
   accumulators): they exist only to fill the record and are never
   touched, because their flags are off. *)
let make ?metrics ?trace ?profile () =
  {
    metrics_on = metrics <> None;
    trace_on = trace <> None;
    profile_on = profile <> None;
    metrics =
      (match metrics with Some m -> m | None -> Metrics.create ());
    trace =
      (match trace with
      | Some t -> t
      | None -> Trace.create ~capacity:1 ());
    profile =
      (match profile with Some p -> p | None -> Profile.create ());
    readers = [];
  }

let none = make ()

(* Attach a reader of one engine state's live counters (the engine does
   this when a state is created with this collector).  Every reader names
   the same counters in the same order.  [none] is shared by every
   unobserved solve and is never attached to. *)
let attach t read = if t != none then t.readers <- read :: t.readers

(* The attached counters summed by name, in the order of the first
   reader; [] when nothing is attached. *)
let counters t =
  let add more (k, v) =
    (k, v + Option.value ~default:0 (List.assoc_opt k more))
  in
  match List.rev t.readers with
  | [] -> []
  | first :: rest ->
      List.fold_left
        (fun sum read -> List.map (add (read ())) sum)
        (first ()) rest

(* Flush any buffered trace events to the sink (call once at the end of
   a traced run). *)
let flush t = if t.trace_on then Trace.flush t.trace
