(* Failure classes of a supervised solving attempt; see failure.mli.

   The classification is deliberately coarse: the supervisor only needs
   to know (a) which counter to bump, (b) whether to retry, and
   (c) whether the retry should escalate the budget.  Everything else
   (the exact signal, the exit code) is preserved inside the class for
   the report. *)

type t =
  | Timeout
  | Resource
  | Oom
  | Crash of int
  | Signalled of int
  | Garbage
  | Truncated
  | Hang
  | Spawn
  | Input of string

let to_string = function
  | Timeout -> "timeout"
  | Resource -> "resource"
  | Oom -> "oom"
  | Crash _ -> "crash"
  | Signalled _ -> "signal"
  | Garbage -> "garbage"
  | Truncated -> "truncated"
  | Hang -> "hang"
  | Spawn -> "spawn"
  | Input _ -> "input"

let all_labels =
  [
    "timeout"; "resource"; "oom"; "crash"; "signal"; "garbage"; "truncated";
    "hang"; "spawn"; "input";
  ]

let is_transient = function Input _ -> false | _ -> true

let escalates_budget = function
  | Timeout | Resource -> true
  | Oom | Crash _ | Signalled _ | Garbage | Truncated | Hang | Spawn | Input _
    ->
      false

(* SIGKILL is how the kernel's OOM killer (and our own last-resort
   escalation) ends a process, so it gets its own class: a worker that
   was KILLed very likely outgrew memory, and the retry policy treats it
   as transient but does not grow the budget. *)
let of_process_status = function
  | Unix.WEXITED 0 -> None
  | Unix.WEXITED c -> Some (Crash c)
  | Unix.WSIGNALED s when s = Sys.sigkill -> Some Oom
  | Unix.WSIGNALED s -> Some (Signalled s)
  | Unix.WSTOPPED s -> Some (Signalled s)

(* The wire carries a worker's Run.stop_reason as its rendering
   (Run.string_of_stop_reason): the deadline and the memory guard have
   their own classes, every other budget or interrupt is [Resource]. *)
let of_stopped = function
  | "timeout" -> Timeout
  | "memory" -> Oom
  | _ -> Resource
