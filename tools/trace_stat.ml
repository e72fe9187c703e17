(* Offline trace summarizer for qube's --trace JSONL output.

   Usage:
     trace_stat.exe [--check] [--telemetry FILE] FILE...

   Default mode prints, per file: event/kind counts, the per-prefix-level
   decision histogram, a backjump-length summary, and the wall-clock
   span of the trace.  [--check] only validates — every line must parse
   against the v1 schema and seq numbers must be strictly increasing —
   and exits nonzero on the first violation, which is what CI runs.

   [--telemetry FILE] adds a cross-file correlation check against a
   qubed telemetry document: every serve-dispatch event in the given
   traces (dlevel = worker pid, plevel = attempt, arg = job id) must
   appear as a (id, attempt, pid) correlation in the telemetry stream —
   the link that lets an aggregate number be traced back to the worker
   JSONL that produced it. *)

module Trace = Qbf_obs.Trace
module Json = Qbf_obs.Json

let read_events file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go lineno acc =
        match input_line ic with
        | exception End_of_file -> Ok (List.rev acc)
        | line when String.trim line = "" -> go (lineno + 1) acc
        | line -> (
            match Trace.parse_line line with
            | Ok e -> go (lineno + 1) (e :: acc)
            | Error m -> Error (Printf.sprintf "%s:%d: %s" file lineno m))
      in
      go 1 [])

let check_monotone file events =
  let rec go last = function
    | [] -> Ok ()
    | e :: rest ->
        if e.Trace.seq <= last then
          Error
            (Printf.sprintf "%s: seq %d after %d (not strictly increasing)"
               file e.Trace.seq last)
        else go e.Trace.seq rest
  in
  go (-1) events

let summarize file events =
  Printf.printf "%s: %d events\n" file (List.length events);
  (match events with
  | [] -> ()
  | first :: _ ->
      let last = List.fold_left (fun _ e -> e) first events in
      Printf.printf "  span: seq %d..%d, %.6f s\n" first.Trace.seq
        last.Trace.seq
        (last.Trace.t -. first.Trace.t));
  Printf.printf "  by kind:\n";
  List.iter
    (fun (k, n) ->
      if n > 0 then
        Printf.printf "    %-17s %8d\n" (Trace.kind_to_string k) n)
    (Trace.counts events);
  let dl = Trace.decision_levels events in
  if Array.exists (fun n -> n > 0) dl then begin
    Printf.printf "  decisions by prefix level:\n";
    Array.iteri
      (fun lvl n -> if n > 0 then Printf.printf "    level %-3d %8d\n" lvl n)
      dl
  end;
  let jumps =
    List.filter_map
      (fun e ->
        if e.Trace.kind = Trace.Backjump then
          (* dlevel = level the conflict/solution was analyzed at,
             arg = target level after the jump *)
          Some (max 0 (e.Trace.dlevel - e.Trace.arg))
        else None)
      events
  in
  if jumps <> [] then begin
    let n = List.length jumps in
    let total = List.fold_left ( + ) 0 jumps in
    let mx = List.fold_left max 0 jumps in
    Printf.printf "  backjumps: %d, mean length %.2f, max %d\n" n
      (float_of_int total /. float_of_int n)
      mx
  end

(* ------------------------------------------------------------------ *)
(* Correlation-id consistency against a qubed telemetry stream *)

let telemetry_correlations file =
  match open_in file with
  | exception Sys_error m -> Error m
  | ic -> (
      let n = in_channel_length ic in
      let text = really_input_string ic n in
      close_in_noerr ic;
      match Json.of_string_res text with
      | Error m -> Error (Printf.sprintf "%s: %s" file m)
      | Ok j -> (
          match Json.member "correlations" j with
          | Some (Json.List cs) ->
              Ok
                (List.filter_map
                   (fun c ->
                     match
                       ( Json.member_int "id" c,
                         Json.member_int "attempt" c,
                         Json.member_int "pid" c )
                     with
                     | Some id, Some at, Some pid -> Some (id, at, pid)
                     | _ -> None)
                   cs)
          | _ ->
              Error
                (Printf.sprintf "%s: no correlations list (not a telemetry \
                                 file?)" file)))

(* Every dispatch the supervisor traced must be linkable in telemetry.
   Only serve-dispatch events carry the full (pid, attempt, id) triple;
   serve-result events are settlement records (cached and input-error
   jobs settle with no pid), so they are not checked. *)
let check_correlations tel_file traces_events =
  match telemetry_correlations tel_file with
  | Error m -> Error m
  | Ok correlations ->
      let missing = ref [] in
      List.iter
        (fun (file, events) ->
          List.iter
            (fun e ->
              if e.Trace.kind = Trace.Serve_dispatch then
                let key = (e.Trace.arg, e.Trace.plevel, e.Trace.dlevel) in
                if not (List.mem key correlations) then
                  missing :=
                    Printf.sprintf
                      "%s: dispatch (id %d, attempt %d, pid %d) absent from %s"
                      file e.Trace.arg e.Trace.plevel e.Trace.dlevel tel_file
                    :: !missing)
            events)
        traces_events;
      (match !missing with
      | [] -> Ok (List.length correlations)
      | ms -> Error (String.concat "\n" (List.rev ms)))

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse check telemetry files = function
    | [] -> (check, telemetry, List.rev files)
    | "--check" :: rest -> parse true telemetry files rest
    | "--telemetry" :: f :: rest -> parse check (Some f) files rest
    | "--telemetry" :: [] ->
        prerr_endline "trace_stat: --telemetry wants a file";
        exit 2
    | a :: rest -> parse check telemetry (a :: files) rest
  in
  let check, telemetry, files = parse false None [] args in
  if files = [] then begin
    prerr_endline "usage: trace_stat [--check] [--telemetry FILE] FILE...";
    exit 2
  end;
  let failed = ref false in
  let parsed = ref [] in
  List.iter
    (fun file ->
      match Result.bind (read_events file) (fun evs ->
                Result.map (fun () -> evs) (check_monotone file evs))
      with
      | Error m ->
          Printf.eprintf "%s\n" m;
          failed := true
      | Ok events ->
          parsed := (file, events) :: !parsed;
          if check then
            Printf.printf "%s: OK (%d events)\n" file (List.length events)
          else summarize file events)
    files;
  (match telemetry with
  | None -> ()
  | Some tel_file -> (
      match check_correlations tel_file (List.rev !parsed) with
      | Ok n ->
          Printf.printf "correlations: OK (every dispatch linked; %d in %s)\n"
            n tel_file
      | Error m ->
          Printf.eprintf "%s\n" m;
          failed := true));
  exit (if !failed then 1 else 0)
