(* Minimal JSON support for the observability layer: an allocation-light
   writer used by snapshots and the trace sink, plus a small recursive
   parser sufficient for reading back JSONL trace lines and snapshot
   records (objects, arrays, strings, numbers, booleans, null).  Kept
   dependency-free on purpose: the solver links this library, and the
   hot path must not pull a full JSON stack. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---------- writing ---------------------------------------------------- *)

let escape_to buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else Buffer.add_string buf (Printf.sprintf "%.6g" f)
  | String s ->
      Buffer.add_char buf '"';
      escape_to buf s;
      Buffer.add_char buf '"'
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape_to buf k;
          Buffer.add_string buf "\":";
          write buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  write buf j;
  Buffer.contents buf

(* ---------- parsing ----------------------------------------------------- *)

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

type cursor = { s : string; mutable i : int }

let peek c = if c.i < String.length c.s then Some c.s.[c.i] else None

let skip_ws c =
  while
    c.i < String.length c.s
    && match c.s.[c.i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.i <- c.i + 1
  done

let expect c ch =
  if c.i < String.length c.s && c.s.[c.i] = ch then c.i <- c.i + 1
  else parse_error "expected %c at offset %d" ch c.i

let parse_literal c word v =
  let n = String.length word in
  if c.i + n <= String.length c.s && String.sub c.s c.i n = word then begin
    c.i <- c.i + n;
    v
  end
  else parse_error "bad literal at offset %d" c.i

let parse_string_body c =
  let buf = Buffer.create 16 in
  let rec go () =
    if c.i >= String.length c.s then parse_error "unterminated string"
    else
      match c.s.[c.i] with
      | '"' -> c.i <- c.i + 1
      | '\\' ->
          if c.i + 1 >= String.length c.s then
            parse_error "unterminated escape"
          else begin
            (match c.s.[c.i + 1] with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                if c.i + 5 >= String.length c.s then
                  parse_error "truncated \\u escape"
                else begin
                  let code =
                    int_of_string ("0x" ^ String.sub c.s (c.i + 2) 4)
                  in
                  (* ASCII-range escapes only; enough for our own output *)
                  if code < 0x80 then Buffer.add_char buf (Char.chr code)
                  else Buffer.add_char buf '?';
                  c.i <- c.i + 4
                end
            | ch -> parse_error "bad escape \\%c" ch);
            c.i <- c.i + 2;
            go ()
          end
      | ch ->
          Buffer.add_char buf ch;
          c.i <- c.i + 1;
          go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.i in
  let is_num ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while c.i < String.length c.s && is_num c.s.[c.i] do
    c.i <- c.i + 1
  done;
  let text = String.sub c.s start (c.i - start) in
  match int_of_string_opt text with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> parse_error "bad number %S" text)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> parse_error "unexpected end of input"
  | Some '{' ->
      expect c '{';
      skip_ws c;
      if peek c = Some '}' then begin
        expect c '}';
        Obj []
      end
      else
        let rec members acc =
          skip_ws c;
          expect c '"';
          let k = parse_string_body c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              expect c ',';
              members ((k, v) :: acc)
          | Some '}' ->
              expect c '}';
              List.rev ((k, v) :: acc)
          | _ -> parse_error "expected , or } at offset %d" c.i
        in
        Obj (members [])
  | Some '[' ->
      expect c '[';
      skip_ws c;
      if peek c = Some ']' then begin
        expect c ']';
        List []
      end
      else
        let rec elems acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              expect c ',';
              elems (v :: acc)
          | Some ']' ->
              expect c ']';
              List.rev (v :: acc)
          | _ -> parse_error "expected , or ] at offset %d" c.i
        in
        List (elems [])
  | Some '"' ->
      expect c '"';
      String (parse_string_body c)
  | Some 't' -> parse_literal c "true" (Bool true)
  | Some 'f' -> parse_literal c "false" (Bool false)
  | Some 'n' -> parse_literal c "null" Null
  | Some _ -> parse_number c

let of_string s =
  let c = { s; i = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.i <> String.length s then
    parse_error "trailing garbage at offset %d" c.i;
  v

let of_string_res s =
  match of_string s with v -> Ok v | exception Parse_error m -> Error m

(* ---------- accessors --------------------------------------------------- *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_int_opt = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None

(* Typed field readers: [None] when the key is absent or holds a value
   of another type. *)
let member_int k j = Option.bind (member k j) to_int_opt
let member_float k j = Option.bind (member k j) to_float_opt
let member_string k j = Option.bind (member k j) to_string_opt
