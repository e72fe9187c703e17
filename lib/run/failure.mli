(** Failure classes of a supervised solving attempt.

    The serving supervisor (Qbf_serve) runs each attempt in a forked
    worker; everything that can go wrong with one attempt — from a clean
    "budget ran out" to a segfaulting or garbage-emitting worker — is
    one of these classes.  The class drives the retry policy: transient
    failures are retried with budget escalation and backoff, permanent
    ones are reported as-is. *)

type t =
  | Timeout  (** the attempt's wall budget expired (clean [Unknown]) *)
  | Resource
      (** another budget or an interrupt ended it in-process, such as
          the node cap (clean [Unknown] with a stop reason other than
          the deadline or the memory guard) *)
  | Oom
      (** the worker was SIGKILLed — the OOM killer's signature — or
          its memory guard stopped the attempt *)
  | Crash of int  (** the worker exited with this nonzero code *)
  | Signalled of int
      (** the worker died on a signal other than KILL/TERM (segfault,
          abort, stack overflow...) *)
  | Garbage  (** the worker's output stream could not be decoded *)
  | Truncated  (** the stream ended mid-frame *)
  | Hang  (** no heartbeat or answer within the supervision deadline *)
  | Spawn
      (** no worker could be started for the attempt (pipe or fork
          failed, or the runtime has no fork) *)
  | Input of string  (** the instance itself is unreadable — permanent *)

val to_string : t -> string
(** Stable lowercase label, used as a JSON counter key:
    ["timeout"], ["resource"], ["oom"], ["crash"], ["signal"],
    ["garbage"], ["truncated"], ["hang"], ["spawn"], ["input"]. *)

val all_labels : string list
(** Every label {!to_string} can produce, for exhaustive reporting. *)

val is_transient : t -> bool
(** Whether a retry can plausibly succeed: true for everything except
    {!Input} (a malformed instance stays malformed). *)

val escalates_budget : t -> bool
(** Whether the retry should also scale the attempt budget up:
    true for {!Timeout} and {!Resource} (the attempt was healthy but
    under-provisioned), false for process deaths. *)

val of_process_status : Unix.process_status -> t option
(** Classify a [waitpid] status: [None] for a clean exit 0,
    [Some Oom] for SIGKILL, [Some (Crash c)] / [Some (Signalled s)]
    otherwise.  A worker we ourselves SIGTERMed also comes back as
    [Signalled]; the supervisor filters cancellations before calling
    this. *)

val of_stopped : string -> t
(** Classify an [Unknown] answer by its stop reason as the wire carries
    it ({!Run.string_of_stop_reason}): [Timeout] for ["timeout"], [Oom]
    for ["memory"] (the memory guard), [Resource] for every other
    budget or interrupt. *)
