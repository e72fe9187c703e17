(** Resource limits for a solver run.

    Wall-clock deadlines over an injectable clock, cooperative
    interrupts driven by POSIX signals, and a Gc-alarm memory watchdog.
    All three funnel into the budget hooks of
    {!Qbf_solver.Solver_types.config}: deadlines become an amortized
    [should_stop] poll, interrupts and the memory guard set a
    [stop_flag] the engine reads on every budget check. *)

type clock = unit -> float

val wall_clock : clock
(** [Unix.gettimeofday]. *)

(** A wall-clock deadline over an arbitrary clock. *)
module Deadline : sig
  type t

  val never : t
  val after : ?clock:clock -> float -> t
  val expired : t -> bool
end

(** A cooperative interrupt: a flag flipped asynchronously (signal
    handler, Gc alarm, another thread) and read by the engine on every
    budget check. *)
module Interrupt : sig
  type reason =
    | Signal of int  (** a caught POSIX signal, e.g. [Sys.sigint] *)
    | Memory  (** the memory watchdog tripped *)
    | Manual  (** {!trip} called from code *)

  type t

  val create : unit -> t
  val flag : t -> bool ref
  val triggered : t -> bool

  val reason : t -> reason option
  (** First cause only: later trips do not overwrite it. *)

  val trip : ?reason:reason -> t -> unit
  val clear : t -> unit

  val install : ?signals:int list -> t -> unit -> unit
  (** Install handlers (default SIGINT and SIGTERM) that {!trip} the
      interrupt; returns a restore function re-establishing the previous
      handlers.  Unsupported signals are skipped. *)
end

(** Major-heap watchdog: trips an {!Interrupt.t} with reason
    {!Interrupt.Memory} from a Gc alarm, so the check costs nothing on
    the search path. *)
module Mem_guard : sig
  type t

  val install : limit_mb:int -> Interrupt.t -> t
  val remove : t -> unit
end

type t = {
  timeout_s : float option;  (** wall-clock budget *)
  mem_mb : int option;  (** major-heap cap in MiB *)
  max_nodes : int option;  (** search-leaf budget *)
  clock : clock;  (** injectable for tests *)
  poll_interval : int;  (** budget checks between deadline polls *)
}

val none : t
(** No limits; deadline polls (if any) on every check. *)

val default : t
(** No limits, [poll_interval = 64]. *)

val make :
  ?timeout_s:float ->
  ?mem_mb:int ->
  ?max_nodes:int ->
  ?clock:clock ->
  ?poll_interval:int ->
  unit ->
  t
