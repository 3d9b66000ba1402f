(** Hand-written lexer for the MiniC surface syntax (see {!Parser}).

    One dispatch on the first character per token: two-character
    operators look one character further ([<<] [>>] [<=] [>=] [==] [!=]
    [&&] [||] [->]) and take the longest match; keywords are told from
    identifiers by one [match] on the word. Operator tokens are shared
    constants. [//] and [/* */] comments and whitespace are skipped.
    Each token carries the line it starts on: {!line} is the
    lookahead's, {!prev_line} the last consumed token's.

    Every failure is a {!Lex_error}: an unexpected character, an
    unterminated block comment, a [0x] with no digits, or an integer
    literal out of range: decimal above [2^63-1], hex above [2^64-1]
    (hex from [2^63] up wraps to a negative [int64]). *)

type token =
  | INT of int64
  | FLOAT of float
  | IDENT of string
  | KW of string  (** keyword: struct, global, legacy, let, var, if, … *)
  | PUNCT of string  (** operator or punctuation, longest match *)
  | EOF

type t

val create : string -> t
val peek : t -> token
val peek2 : t -> token
val next : t -> token
val line : t -> int
(** Start line of the lookahead token ({!peek}). *)

val prev_line : t -> int
(** Start line of the token {!next} returned last; 1 before the first
    [next]. Parse errors are reported here: the parser raises them after
    consuming the offending token. *)

exception Lex_error of string * int  (** message, line *)

val token_to_string : token -> string
