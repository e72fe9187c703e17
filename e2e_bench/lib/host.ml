(* Resource readings and provenance of the host. *)

external maxrss_kb : unit -> int * int = "perf_e2e_maxrss_kb"

(* User plus system CPU of this process and of its reaped children. *)
let cpu () =
  let t = Unix.times () in
  (t.Unix.tms_utime +. t.Unix.tms_stime, t.Unix.tms_cutime +. t.Unix.tms_cstime)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []

let field_after_colon line =
  match String.index_opt line ':' with
  | Some i -> String.trim (String.sub line (i + 1) (String.length line - i - 1))
  | None -> ""

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Peak RSS in MB: the larger of this process's and that of its largest
   reaped child.  This process's peak comes from VmHWM, which an exec
   resets, so the process that launched it is not counted. *)
let peak_rss_mb () =
  let self_kb, children_kb = maxrss_kb () in
  let self_kb =
    match
      List.find_opt (starts_with ~prefix:"VmHWM:") (read_lines "/proc/self/status")
    with
    | Some l -> (
        match String.split_on_char ' ' (field_after_colon l) with
        | kb :: _ -> Option.value ~default:self_kb (int_of_string_opt kb)
        | [] -> self_kb)
    | None -> self_kb
  in
  float_of_int (max self_kb children_kb) /. 1024.

let nproc () =
  List.length
    (List.filter (starts_with ~prefix:"processor") (read_lines "/proc/cpuinfo"))

let cpu_model () =
  match
    List.find_opt (starts_with ~prefix:"model name") (read_lines "/proc/cpuinfo")
  with
  | Some l -> field_after_colon l
  | None -> "unknown"

(* The commit under test, as the launcher found it (run.py reads it from
   git when the checkout is a repository). *)
let git_commit () = Option.value ~default:"unknown" (Sys.getenv_opt "BENCH_COMMIT")
