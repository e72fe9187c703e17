(* Resource limits for a solver run: wall-clock deadlines over an
   injectable clock, cooperative interrupts driven by POSIX signals, and
   a Gc-alarm memory watchdog.  All three funnel into the two budget
   hooks of {!Qbf_solver.Solver_types.config}: deadlines become an
   amortized [should_stop] poll, interrupts and the memory guard set a
   [stop_flag] that the engine reads on every budget check. *)

type clock = unit -> float

let wall_clock : clock = Unix.gettimeofday

module Deadline = struct
  type t = { clock : clock; until : float }

  let never = { clock = (fun () -> 0.); until = infinity }

  let after ?(clock = wall_clock) seconds =
    { clock; until = clock () +. seconds }

  let expired t = t.until < infinity && t.clock () > t.until
end

module Interrupt = struct
  type reason =
    | Signal of int (* a caught POSIX signal number, e.g. Sys.sigint *)
    | Memory (* the memory watchdog tripped *)
    | Manual (* trip () from code, e.g. another thread or a test *)

  type t = { flag : bool ref; mutable reason : reason option }

  let create () = { flag = ref false; reason = None }
  let flag t = t.flag
  let triggered t = !(t.flag)
  let reason t = t.reason

  let trip ?(reason = Manual) t =
    (* Keep the first reason: a SIGINT arriving after the memory guard
       tripped should not masquerade as the cause. *)
    if not !(t.flag) then t.reason <- Some reason;
    t.flag := true

  let clear t =
    t.flag := false;
    t.reason <- None

  (* Install handlers that trip [t]; returns a restore function.  The
     handler only flips a ref, so it is async-signal-safe for the
     engine: the search loop notices the flag at its next budget check
     and returns [Unknown] with the statistics gathered so far. *)
  let install ?(signals = [ Sys.sigint; Sys.sigterm ]) t =
    let saved =
      List.filter_map
        (fun sg ->
          match
            Sys.signal sg
              (Sys.Signal_handle (fun sg -> trip ~reason:(Signal sg) t))
          with
          | old -> Some (sg, old)
          | exception (Sys_error _ | Invalid_argument _) ->
              (* unsupported signal on this platform; skip it *)
              None)
        signals
    in
    fun () -> List.iter (fun (sg, old) -> Sys.set_signal sg old) saved
end

module Mem_guard = struct
  type t = Gc.alarm

  let words_per_mb = 1024 * 1024 / (Sys.word_size / 8)

  (* Trip [interrupt] when the major heap outgrows [limit_mb].  Gc
     alarms run at the end of major collections, so the check costs
     nothing on the search path and fires within one major cycle of the
     limit being crossed. *)
  let install ~limit_mb interrupt =
    let limit_words = limit_mb * words_per_mb in
    Gc.create_alarm (fun () ->
        let st = Gc.quick_stat () in
        if st.Gc.heap_words > limit_words then
          Interrupt.trip ~reason:Interrupt.Memory interrupt)

  let remove t = Gc.delete_alarm t
end

type t = {
  timeout_s : float option; (* wall-clock budget *)
  mem_mb : int option; (* major-heap cap in MiB *)
  max_nodes : int option; (* search-leaf budget *)
  clock : clock; (* injectable for tests *)
  poll_interval : int; (* budget checks between deadline polls *)
}

let none =
  {
    timeout_s = None;
    mem_mb = None;
    max_nodes = None;
    clock = wall_clock;
    poll_interval = 1;
  }

(* Polling the clock every 64 budget checks keeps deadline overhead
   three orders of magnitude below a per-check [gettimeofday] while
   bounding the overshoot to a fraction of a millisecond of search. *)
let default = { none with poll_interval = 64 }

let make ?timeout_s ?mem_mb ?max_nodes ?(clock = wall_clock)
    ?(poll_interval = 64) () =
  { timeout_s; mem_mb; max_nodes; clock; poll_interval }
