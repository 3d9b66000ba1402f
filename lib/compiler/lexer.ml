type token =
  | INT of int64
  | FLOAT of float
  | IDENT of string
  | KW of string
  | PUNCT of string
  | EOF

exception Lex_error of string * int

type t = {
  src : string;
  mutable pos : int;
  mutable line_no : int;
  mutable tok : token;
  mutable tok_line : int;
  mutable tok2 : token option;
  mutable tok2_line : int;
  mutable prev_line : int;  (* start line of the token [next] returned last *)
}

let is_digit c = c >= '0' && c <= '9'

let is_hex c =
  match c with '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false

(* whitespace and comments, counting newlines *)
let rec skip_ws t =
  let src = t.src in
  let len = String.length src in
  let p = ref t.pos in
  while
    !p < len
    &&
    match String.unsafe_get src !p with
    | ' ' | '\t' | '\r' -> true
    | '\n' ->
      t.line_no <- t.line_no + 1;
      true
    | _ -> false
  do
    incr p
  done;
  t.pos <- !p;
  if !p + 1 < len && src.[!p] = '/' then
    match src.[!p + 1] with
    | '/' ->
      while t.pos < len && src.[t.pos] <> '\n' do
        t.pos <- t.pos + 1
      done;
      skip_ws t
    | '*' ->
      let rec go i =
        if i + 1 >= len then raise (Lex_error ("unterminated comment", t.line_no))
        else if src.[i] = '*' && src.[i + 1] = '/' then t.pos <- i + 2
        else begin
          if src.[i] = '\n' then t.line_no <- t.line_no + 1;
          go (i + 1)
        end
      in
      go (t.pos + 2);
      skip_ws t
    | _ -> ()

(* advance past a [pred] run *)
let skip_while t pred =
  while t.pos < String.length t.src && pred t.src.[t.pos] do
    t.pos <- t.pos + 1
  done

let int_literal t text =
  match Int64.of_string text with
  | n -> INT n
  | exception Failure _ -> raise (Lex_error ("integer literal out of range", t.line_no))

let number t =
  let start = t.pos in
  skip_while t is_digit;
  let more = t.pos < String.length t.src in
  if more && (t.src.[t.pos] = 'x' || t.src.[t.pos] = 'X') && t.pos = start + 1
     && t.src.[start] = '0'
  then begin
    t.pos <- t.pos + 1;
    let hstart = t.pos in
    skip_while t is_hex;
    if t.pos = hstart then raise (Lex_error ("bad hex literal", t.line_no));
    int_literal t ("0x" ^ String.sub t.src hstart (t.pos - hstart))
  end
  else if more && t.src.[t.pos] = '.' then begin
    t.pos <- t.pos + 1;
    skip_while t is_digit;
    FLOAT (float_of_string (String.sub t.src start (t.pos - start)))
  end
  else int_literal t (String.sub t.src start (t.pos - start))

let word t =
  let src = t.src in
  let start = t.pos in
  let p = ref (start + 1) in
  while
    !p < String.length src
    && match String.unsafe_get src !p with
       | 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' -> true
       | _ -> false
  do
    incr p
  done;
  t.pos <- !p;
  match String.sub src start (!p - start) with
  | ( "struct" | "global" | "legacy" | "let" | "var" | "if" | "else" | "while"
    | "return" | "break" | "continue" | "free" | "malloc" | "malloc_bytes"
    | "null" | "sizeof" | "i8" | "i16" | "i32" | "i64" | "f64" | "void"
    | "cast" ) as s ->
    KW s
  | s -> IDENT s

(* one shared token per single-character operator *)
let single = Array.init 128 (fun c -> PUNCT (String.make 1 (Char.chr c)))

let next_is t c = t.pos + 1 < String.length t.src && t.src.[t.pos + 1] = c

let adv t n tok =
  t.pos <- t.pos + n;
  tok

(* [two] when the next character is [c2], else the current character *)
let pair t c2 two =
  if next_is t c2 then adv t 2 two else adv t 1 single.(Char.code t.src.[t.pos])

(* one dispatch on the first character per token *)
let scan t =
  skip_ws t;
  if t.pos >= String.length t.src then EOF
  else
    match t.src.[t.pos] with
    | '0' .. '9' -> number t
    | 'a' .. 'z' | 'A' .. 'Z' | '_' -> word t
    | '<' -> if next_is t '<' then adv t 2 (PUNCT "<<") else pair t '=' (PUNCT "<=")
    | '>' -> if next_is t '>' then adv t 2 (PUNCT ">>") else pair t '=' (PUNCT ">=")
    | '=' -> pair t '=' (PUNCT "==")
    | '!' -> pair t '=' (PUNCT "!=")
    | '&' -> pair t '&' (PUNCT "&&")
    | '|' -> pair t '|' (PUNCT "||")
    | '-' -> pair t '>' (PUNCT "->")
    | ( '+' | '*' | '/' | '%' | '^' | '~' | '(' | ')' | '{' | '}' | '[' | ']' | ';'
      | ',' | '.' | ':' ) as c ->
      adv t 1 single.(Char.code c)
    | c -> raise (Lex_error (Printf.sprintf "unexpected character %c" c, t.line_no))

(* No token spans a newline, so the line count right after [scan] is
   the scanned token's start line. *)
let create src =
  let t =
    { src; pos = 0; line_no = 1; tok = EOF; tok_line = 1; tok2 = None;
      tok2_line = 1; prev_line = 1 }
  in
  t.tok <- scan t;
  t.tok_line <- t.line_no;
  t

let peek t = t.tok

let peek2 t =
  match t.tok2 with
  | Some tok -> tok
  | None ->
    let tok = scan t in
    t.tok2 <- Some tok;
    t.tok2_line <- t.line_no;
    tok

let next t =
  let cur = t.tok in
  t.prev_line <- t.tok_line;
  (match t.tok2 with
  | Some tok ->
    t.tok <- tok;
    t.tok_line <- t.tok2_line;
    t.tok2 <- None
  | None ->
    t.tok <- scan t;
    t.tok_line <- t.line_no);
  cur

let line t = t.tok_line
let prev_line t = t.prev_line

let token_to_string = function
  | INT x -> Int64.to_string x
  | FLOAT f -> string_of_float f
  | IDENT s -> s
  | KW s -> s
  | PUNCT s -> Printf.sprintf "'%s'" s
  | EOF -> "<eof>"
