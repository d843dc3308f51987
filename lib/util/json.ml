(* The one JSON value type, printer and reader of the repo.  The reader
   is dependency-free recursive descent: the container bakes in no JSON
   library, and the artefacts it reads (plim-bench result files, horizon
   rows) are small. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
  | Lit of string

let fixed fmt x = if Float.is_finite x then Lit (Printf.sprintf fmt x) else Null

(* --- printer ------------------------------------------------------------ *)

(* Bytes >= 0x20 other than '"' and '\' pass through verbatim: labels
   are treated as UTF-8 and JSON does not require escaping non-ASCII.
   Control characters use the short escapes where JSON has them and
   \u00XX otherwise, which is exactly the input language of the reader
   below. *)
let escape_into b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
    if Float.is_finite f then Printf.bprintf b "%.6g" f
    else Buffer.add_string b "null"
  | Lit s -> Buffer.add_string b s
  | Str s ->
    Buffer.add_char b '"';
    escape_into b s;
    Buffer.add_char b '"'
  | Arr l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        write b v)
      l;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        write b (Str k);
        Buffer.add_char b ':';
        write b v)
      kvs;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

let to_string_rows = function
  | Obj fields ->
    let field (k, v) =
      to_string (Str k) ^ ":"
      ^
      match v with
      | Arr rows ->
        "[" ^ String.concat "," (List.map (fun row -> "\n" ^ to_string row) rows) ^ "\n]"
      | v -> to_string v
    in
    "{" ^ String.concat "," (List.map field fields) ^ "}"
  | v -> to_string v

(* --- reader ------------------------------------------------------------- *)

exception Parse_error of string

let parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal w v =
    String.iter expect w;
    v
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> advance (); Buffer.add_char b '"'; go ()
        | Some '\\' -> advance (); Buffer.add_char b '\\'; go ()
        | Some '/' -> advance (); Buffer.add_char b '/'; go ()
        | Some 'b' -> advance (); Buffer.add_char b '\b'; go ()
        | Some 'f' -> advance (); Buffer.add_char b '\012'; go ()
        | Some 'n' -> advance (); Buffer.add_char b '\n'; go ()
        | Some 'r' -> advance (); Buffer.add_char b '\r'; go ()
        | Some 't' -> advance (); Buffer.add_char b '\t'; go ()
        | Some 'u' ->
          advance ();
          let code = ref 0 in
          for _ = 1 to 4 do
            (match peek () with
            | Some ('0' .. '9' as c) -> code := (!code * 16) + (Char.code c - 48)
            | Some ('a' .. 'f' as c) -> code := (!code * 16) + (Char.code c - 87)
            | Some ('A' .. 'F' as c) -> code := (!code * 16) + (Char.code c - 55)
            | _ -> fail "bad \\u escape");
            advance ()
          done;
          (* UTF-8 encode the BMP code point; plim-bench files are ASCII,
             this is completeness only *)
          let c = !code in
          if c < 0x80 then Buffer.add_char b (Char.chr c)
          else if c < 0x800 then begin
            Buffer.add_char b (Char.chr (0xC0 lor (c lsr 6)));
            Buffer.add_char b (Char.chr (0x80 lor (c land 0x3F)))
          end
          else begin
            Buffer.add_char b (Char.chr (0xE0 lor (c lsr 12)));
            Buffer.add_char b (Char.chr (0x80 lor ((c lsr 6) land 0x3F)));
            Buffer.add_char b (Char.chr (0x80 lor (c land 0x3F)))
          end;
          go ()
        | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "control character in string"
      | Some c ->
        advance ();
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    (match peek () with Some '-' -> advance () | _ -> ());
    let digits () =
      let d0 = !pos in
      let rec go () =
        match peek () with Some '0' .. '9' -> advance (); go () | _ -> ()
      in
      go ();
      if !pos = d0 then fail "expected digits"
    in
    digits ();
    let fractional = ref false in
    (match peek () with
    | Some '.' ->
      advance ();
      fractional := true;
      digits ()
    | _ -> ());
    (match peek () with
    | Some ('e' | 'E') ->
      advance ();
      fractional := true;
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    let lit = String.sub s start (!pos - start) in
    (* integer literals stay exact; one too large for an int is a float *)
    match int_of_string_opt lit with
    | Some i when not !fractional -> Int i
    | _ -> (
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> fail "bad number")
  in
  (* The reader recurses once per nesting level, so an adversarial (or
     merely corrupted) input of a few hundred kilobytes of '[' would
     blow the OCaml stack with a Stack_overflow the caller cannot
     distinguish from a bug.  Bound the depth explicitly and fail with
     a regular Parse_error instead; no plim-bench artefact nests more
     than a dozen levels deep. *)
  let max_depth = 256 in
  let rec value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    let v =
      match peek () with
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = string_lit () in
            skip_ws ();
            expect ':';
            let v = value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              members ((key, v) :: acc)
            | Some '}' ->
              advance ();
              List.rev ((key, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let v = value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              elements (v :: acc)
            | Some ']' ->
              advance ();
              List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Arr (elements [])
        end
      | Some '"' -> Str (string_lit ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> number ()
      | _ -> fail "unexpected token"
    in
    skip_ws ();
    v
  in
  let v = value 0 in
  if !pos <> n then fail "trailing garbage";
  v

let parse s =
  match parse_exn s with v -> Ok v | exception Parse_error msg -> Error msg

let parse_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | s -> (
    match parse s with
    | Ok v -> Ok v
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let to_str = function
  | Str s -> Some s
  | _ -> None

let to_list = function
  | Arr l -> Some l
  | _ -> None
