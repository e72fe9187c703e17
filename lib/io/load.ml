(* The one loader: read a file or take a text, sniff its format, run
   the grammar, and report every failure as one structured error. *)

type format = Qdimacs | Nqdimacs

type error =
  | Io of { file : string; msg : string }
  | Parse of { file : string; line : int; col : int; msg : string }
  | Invalid of { file : string; msg : string }

let error_to_string = function
  | Io { file; msg } | Invalid { file; msg } -> Printf.sprintf "%s: %s" file msg
  | Parse { file; line; col; msg } ->
      Printf.sprintf "%s:%d:%d: %s" file line col msg

(* Walk the text in place up to the first line that is neither blank
   nor a comment (leading whitespace skipped, as [String.trim] does);
   the rest of the text is never looked at. *)
let sniff text =
  let n = String.length text in
  let rec scan i =
    if i >= n then Qdimacs
    else
      match text.[i] with
      | ' ' | '\t' | '\r' | '\n' | '\012' -> scan (i + 1)
      | 'c' -> (
          match String.index_from_opt text i '\n' with
          | Some j -> scan (j + 1)
          | None -> Qdimacs)
      | _ ->
          if i + 6 <= n && String.sub text i 6 = "p ncnf" then Nqdimacs
          else Qdimacs
  in
  scan 0

let of_string ?(file = "<string>") ?format text =
  let format = match format with Some f -> f | None -> sniff text in
  let parse =
    match format with Qdimacs -> Qdimacs.parse | Nqdimacs -> Nqdimacs.parse
  in
  match parse text with
  | Ok f -> Ok f
  (* an unknown position (line 0) marks a whole-formula validation
     failure, not a syntax error *)
  | Error { Syntax.line = 0; msg; _ } -> Error (Invalid { file; msg })
  | Error { Syntax.line; col; msg } -> Error (Parse { file; line; col; msg })

(* Read the whole file once, to end of file, so a pipe or a terminal
   ([/dev/stdin], a process substitution) reads like a regular file;
   every failure mode (missing file, directory, permission) becomes an
   [Io] error. *)
let of_file ?format path =
  match
    if Sys.file_exists path && Sys.is_directory path then
      raise (Sys_error (path ^ ": is a directory"));
    In_channel.with_open_bin path In_channel.input_all
  with
  | text -> of_string ~file:path ?format text
  | exception Sys_error msg ->
      (* Sys_error messages already lead with the path; drop it so the
         rendered diagnostic doesn't repeat it. *)
      let p = path ^ ": " in
      let lp = String.length p in
      let msg =
        if String.length msg > lp && String.sub msg 0 lp = p then
          String.sub msg lp (String.length msg - lp)
        else msg
      in
      Error (Io { file = path; msg })
