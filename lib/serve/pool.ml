(* Worker-process pool: fork-based spawn, fd bookkeeping, reaping.

   Fork (not OCaml-5 domains) is the isolation boundary on purpose: a
   segfault, a stack overflow, an OOM kill or a runaway loop in one
   attempt must take down one worker process, never the supervisor.
   The pool owns the mechanics — pipe pairs, forking into Worker.main,
   SIGTERM/SIGKILL escalation, waitpid reaping — and leaves policy
   (scheduling, retries, racing) to the supervisor.

   When [fork] is unavailable (non-Unix runtime) or a pipe or fork
   fails (EMFILE or EAGAIN under pressure), [spawn] returns [Error]
   rather than raising: the supervisor counts it, tries again on a
   later round, and fails the attempts of an empty pool as [spawn]
   failures. *)

type state =
  | Idle
  | Busy of Protocol.dispatch * float (* dispatch, last heartbeat time *)
  | Dying of float (* SIGTERM sent; SIGKILL due at this time *)

type worker = {
  pid : int;
  to_worker : Unix.file_descr;
  from_worker : Unix.file_descr;
  decoder : Protocol.decoder;
  mutable state : state;
  mutable cancelled : Protocol.dispatch option;
      (* the assignment whose answer we no longer want (race loser /
         hang victim); kept so its late frames can be recognised *)
  mutable eof : bool; (* result pipe hit EOF; stop selecting on it *)
}

let fork_available = not Sys.win32

(* Flush anything buffered before forking: the child shares the file
   table and a duplicated stdio buffer would print twice. *)
let spawn ?(stats = true) ~fault_p ~seed () =
  if not fork_available then Error "fork unavailable on this platform"
  else begin
    flush stdout;
    flush stderr;
    match Unix.pipe ~cloexec:false () with
    | exception Unix.Unix_error (e, _, _) ->
        Error (Unix.error_message e)
    | job_r, job_w -> (
        match Unix.pipe ~cloexec:false () with
        | exception Unix.Unix_error (e, _, _) ->
            Unix.close job_r;
            Unix.close job_w;
            Error (Unix.error_message e)
        | res_r, res_w -> (
            match Unix.fork () with
            | exception Unix.Unix_error (e, _, _) ->
                List.iter Unix.close [ job_r; job_w; res_r; res_w ];
                Error (Unix.error_message e)
            | 0 ->
                (* child: keep only its two pipe ends *)
                Unix.close job_w;
                Unix.close res_r;
                Worker.main ~input:job_r ~output:res_w ~stats ~fault_p ~seed ()
            | pid ->
                Unix.close job_r;
                Unix.close res_w;
                Ok
                  {
                    pid;
                    to_worker = job_w;
                    from_worker = res_r;
                    decoder = Protocol.decoder ();
                    state = Idle;
                    cancelled = None;
                    eof = false;
                  }))
  end

(* ------------------------------------------------------------------ *)
(* Signalling and reaping                                              *)

let send_signal w signal =
  try Unix.kill w.pid signal with Unix.Unix_error _ -> ()

(* Begin cancellation: SIGTERM now, SIGKILL after [grace_s] if the
   worker has not died by then (the supervisor polls [overdue]). *)
let terminate ~now ~grace_s w =
  (match w.state with
  | Busy (d, _) -> w.cancelled <- Some d
  | Idle | Dying _ -> ());
  send_signal w Sys.sigterm;
  w.state <- Dying (now +. grace_s)

let kill_now w =
  send_signal w Sys.sigkill

let overdue ~now w =
  match w.state with Dying deadline -> now >= deadline | _ -> false

(* Non-blocking reap: [Some status] once the worker is actually gone.
   ECHILD (already reaped elsewhere, or signals got there first) counts
   as an exit-0 so callers can always close fds and move on. *)
let try_reap w =
  match Unix.waitpid [ Unix.WNOHANG ] w.pid with
  | 0, _ -> None
  | _, status -> Some status
  | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
      Some (Unix.WEXITED 0)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> None

(* Blocking reap, for shutdown. *)
let reap w =
  match Unix.waitpid [] w.pid with
  | _, status -> status
  | exception Unix.Unix_error _ -> Unix.WEXITED 0

let close_fds w =
  (try Unix.close w.to_worker with Unix.Unix_error _ -> ());
  try Unix.close w.from_worker with Unix.Unix_error _ -> ()

(* Close the job pipe so an idle worker sees EOF and exits cleanly;
   used for orderly shutdown. *)
let close_jobs w =
  try Unix.close w.to_worker with Unix.Unix_error _ -> ()
