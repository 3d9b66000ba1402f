(* Unit tests for the MiniC lexer. *)

module L = Ifp_compiler.Lexer

let toks src =
  let lx = L.create src in
  let rec go acc =
    match L.next lx with L.EOF -> List.rev acc | t -> go (t :: acc)
  in
  go []

let tok = Alcotest.testable (fun fmt t -> Format.pp_print_string fmt (L.token_to_string t)) ( = )

let test_basic () =
  Alcotest.(check (list tok)) "idents + punct"
    [ L.KW "i64"; L.IDENT "main"; L.PUNCT "("; L.PUNCT ")" ]
    (toks "i64 main()");
  Alcotest.(check (list tok)) "numbers"
    [ L.INT 42L; L.FLOAT 1.5; L.INT 255L ]
    (toks "42 1.5 0xFF")

let test_longest_match () =
  Alcotest.(check (list tok)) "multi-char operators"
    [ L.PUNCT "<<"; L.PUNCT "<="; L.PUNCT "<"; L.PUNCT "->"; L.PUNCT "-";
      L.PUNCT "&&"; L.PUNCT "&" ]
    (toks "<< <= < -> - && &")

let test_comments () =
  Alcotest.(check (list tok)) "comments stripped"
    [ L.INT 1L; L.INT 2L ]
    (toks "1 // x\n/* y\n z */ 2")

let test_line_tracking () =
  let lx = L.create "a\nb\n\nc" in
  ignore (L.next lx);
  ignore (L.next lx);
  ignore (L.next lx);
  Alcotest.(check int) "line 4 after c" 4 (L.line lx);
  (* each token carries its start line: [line] is the lookahead's,
     [prev_line] the consumed token's, whatever peek2 scanned *)
  let lx = L.create "a\nb\n\nc" in
  Alcotest.(check int) "prev_line before next" 1 (L.prev_line lx);
  ignore (L.next lx);
  ignore (L.peek2 lx);
  Alcotest.(check int) "lookahead b on line 2" 2 (L.line lx);
  Alcotest.(check int) "a on line 1" 1 (L.prev_line lx);
  ignore (L.next lx);
  Alcotest.(check int) "b on line 2" 2 (L.prev_line lx);
  Alcotest.(check int) "lookahead c on line 4" 4 (L.line lx)

let test_peek2 () =
  let lx = L.create "a b c" in
  Alcotest.(check tok) "peek" (L.IDENT "a") (L.peek lx);
  Alcotest.(check tok) "peek2" (L.IDENT "b") (L.peek2 lx);
  Alcotest.(check tok) "next still a" (L.IDENT "a") (L.next lx);
  Alcotest.(check tok) "then b" (L.IDENT "b") (L.next lx)

let test_errors () =
  (match toks "@" with
  | exception L.Lex_error _ -> ()
  | _ -> Alcotest.fail "expected lex error");
  match toks "/* unterminated" with
  | exception L.Lex_error _ -> ()
  | _ -> Alcotest.fail "expected unterminated-comment error"

let test_keywords_vs_idents () =
  Alcotest.(check (list tok)) "keyword recognition"
    [ L.KW "struct"; L.IDENT "structx"; L.IDENT "mystruct"; L.KW "malloc" ]
    (toks "struct structx mystruct malloc")

(* ---- differential test against the original scanner ----------------- *)

(* The scanner the char-dispatch lexer replaced, kept as a reference:
   linear search of a keyword list and a longest-match-first punctuator
   list. Returns the tokens, each with the line after it was scanned, up
   to EOF or the first lex error. *)
let keywords =
  [ "struct"; "global"; "legacy"; "let"; "var"; "if"; "else"; "while";
    "return"; "break"; "continue"; "free"; "malloc"; "malloc_bytes"; "null";
    "sizeof"; "i8"; "i16"; "i32"; "i64"; "f64"; "void"; "cast" ]

let puncts =
  [ "<<"; ">>"; "<="; ">="; "=="; "!="; "&&"; "||"; "->"; "+"; "-"; "*"; "/";
    "%"; "&"; "|"; "^"; "!"; "~"; "<"; ">"; "="; "("; ")"; "{"; "}"; "[";
    "]"; ";"; ","; "."; ":" ]

let ref_scan src =
  let n = String.length src and pos = ref 0 and line = ref 1 in
  let at i = if i < n then src.[i] else '\000' in
  let fail m = raise (L.Lex_error (m, !line)) in
  let span p =
    let s = !pos in
    while !pos < n && p src.[!pos] do incr pos done;
    String.sub src s (!pos - s)
  in
  let low c lo hi = Char.lowercase_ascii c >= lo && Char.lowercase_ascii c <= hi in
  let digit c = c >= '0' && c <= '9' and alpha c = low c 'a' 'z' || c = '_' in
  let hex c = digit c || low c 'a' 'f' in
  let int s =
    try L.INT (Int64.of_string s) with Failure _ -> fail "integer literal out of range"
  in
  let rec skip () =
    match at !pos with
    | ' ' | '\t' | '\r' -> incr pos; skip ()
    | '\n' -> incr pos; incr line; skip ()
    | '/' when at (!pos + 1) = '/' -> ignore (span (( <> ) '\n')); skip ()
    | '/' when at (!pos + 1) = '*' ->
      let rec go p =
        if p + 1 >= n then fail "unterminated comment"
        else if src.[p] = '*' && src.[p + 1] = '/' then pos := p + 2
        else (if src.[p] = '\n' then incr line; go (p + 1))
      in
      go (!pos + 2); skip ()
    | _ -> ()
  in
  let scan () =
    skip ();
    if !pos >= n then L.EOF
    else if digit src.[!pos] then
      let d = span digit in
      if d = "0" && (at !pos = 'x' || at !pos = 'X') then begin
        incr pos;
        let h = span hex in
        if h = "" then fail "bad hex literal" else int ("0x" ^ h)
      end
      else if at !pos = '.' then begin
        incr pos;
        L.FLOAT (float_of_string (d ^ "." ^ span digit))
      end
      else int d
    else if alpha src.[!pos] then
      let s = span (fun c -> alpha c || digit c) in
      if List.mem s keywords then L.KW s else L.IDENT s
    else
      let fits p =
        let k = String.length p in
        !pos + k <= n && String.sub src !pos k = p
      in
      match List.find_opt fits puncts with
      | Some p -> pos := !pos + String.length p; L.PUNCT p
      | None -> fail (Printf.sprintf "unexpected character %c" src.[!pos])
  in
  let rec go acc =
    match scan () with
    | L.EOF -> (List.rev ((L.EOF, !line) :: acc), None)
    | tok -> go ((tok, !line) :: acc)
    | exception L.Lex_error (m, l) -> (List.rev acc, Some (m, l))
  in
  go []

(* the same shape from [Lexer]: the line after a token is scanned is
   [L.line] while that token is the lookahead *)
let lexer_scan src =
  let rec go lx acc =
    let tok = L.peek lx and line = L.line lx in
    if tok = L.EOF then (List.rev ((tok, line) :: acc), None)
    else
      match L.next lx with
      | _ -> go lx ((tok, line) :: acc)
      | exception L.Lex_error (m, l) ->
        (List.rev ((tok, line) :: acc), Some (m, l))
  in
  match L.create src with
  | lx -> go lx []
  | exception L.Lex_error (m, l) -> ([], Some (m, l))

let agree src =
  let show (toks, e) =
    String.concat " "
      (List.map (fun (t, l) -> Printf.sprintf "%s@%d" (L.token_to_string t) l) toks)
    ^ match e with None -> "" | Some (m, l) -> Printf.sprintf " !%s@%d" m l
  in
  let want = ref_scan src and got = lexer_scan src in
  if want <> got then
    Alcotest.failf "lexer differs from reference on %S:\n want %s\n got  %s" src
      (show want) (show got)

let test_differential_puncts () =
  let chars =
    List.concat_map (fun p -> List.of_seq (String.to_seq p)) puncts
    |> List.sort_uniq compare |> List.map (String.make 1)
  in
  List.iter agree puncts;
  List.iter
    (fun set ->
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              agree (a ^ b);
              agree (a ^ " " ^ b))
            set)
        set)
    [ puncts; chars ]

let test_differential_edges () =
  List.iter agree
    [ ""; "/**/"; "/*/"; "/* */x"; "1/**/2"; "/*\n*/a"; "//"; "a//b\nc"; "/"; "*/";
      "0x"; "0X1f"; "0xg"; "00x1"; "1x2"; "1."; "1.2.3"; "0.5x"; ".5"; "x1_y2";
      "_"; "i64x"; "malloc_bytes"; "cast("; "\t\r\n\n;"; "a\000b" ]

let test_differential_generated () =
  for i = 0 to 255 do
    agree (Ifp_fuzz.Gen.source ~knobs:Ifp_fuzz.Gen.default ~seed:(Int64.of_int i) ())
  done

let test_differential_random () =
  let g = Ifp_util.Prng.create 0x1e8L in
  for _ = 1 to 2000 do
    let len = Ifp_util.Prng.int g 24 in
    agree
      (String.init len (fun _ ->
           if Ifp_util.Prng.int g 10 = 0 then '\n'
           else Char.chr (Ifp_util.Prng.int_in g 32 126)))
  done

let test_int_range () =
  let err src =
    match toks src with
    | exception L.Lex_error (m, l) -> (m, l)
    | _ -> Alcotest.failf "%S lexed" src
  in
  let pinned = Alcotest.(pair string int) in
  Alcotest.(check (list tok)) "largest literals"
    [ L.INT Int64.max_int; L.INT (-1L) ]
    (toks "9223372036854775807 0xFFFFFFFFFFFFFFFF");
  Alcotest.check pinned "decimal" ("integer literal out of range", 2)
    (err "return\n 99999999999999999999;");
  Alcotest.check pinned "hex" ("integer literal out of range", 1)
    (err "0x11112222333344445")

let tests =
  [
    Alcotest.test_case "basic tokens" `Quick test_basic;
    Alcotest.test_case "longest match" `Quick test_longest_match;
    Alcotest.test_case "comments" `Quick test_comments;
    Alcotest.test_case "line tracking" `Quick test_line_tracking;
    Alcotest.test_case "peek2" `Quick test_peek2;
    Alcotest.test_case "lex errors" `Quick test_errors;
    Alcotest.test_case "keywords vs idents" `Quick test_keywords_vs_idents;
    Alcotest.test_case "integer literal range" `Quick test_int_range;
    Alcotest.test_case "same as reference: punctuators" `Quick
      test_differential_puncts;
    Alcotest.test_case "same as reference: edge cases" `Quick
      test_differential_edges;
    Alcotest.test_case "same as reference: generated" `Quick
      test_differential_generated;
    Alcotest.test_case "same as reference: random text" `Quick
      test_differential_random;
  ]
