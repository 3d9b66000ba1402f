(* Tests for the textual MiniC frontend: lexing, parsing, local type
   inference, and end-to-end runs of parsed programs under the VM. *)

open Core

let parse = Ifp_compiler.Parser.parse

let run ?(config = Vm.baseline) src = Vm.run ~config (parse src)

let ret ?config src =
  match (run ?config src).Vm.outcome with
  | Vm.Finished x -> x
  | Vm.Trapped t -> Alcotest.fail ("trapped: " ^ Trap.to_string t)
  | Vm.Aborted m -> Alcotest.fail ("aborted: " ^ Vm.abort_reason_string m)

let test_arith_and_control () =
  let src =
    {|
    i64 main() {
      let s: i64 = 0;
      let k: i64 = 0;
      while (k < 10) {
        if (k % 2 == 0) { s = s + k; } else { s = s - 1; }
        k = k + 1;
      }
      return s * 2 + (1 << 4) - 0x10;
    }
    |}
  in
  (* s = (0+2+4+6+8) - 5 = 15 *)
  Alcotest.(check int64) "value" 30L (ret src)

let test_structs_and_heap () =
  let src =
    {|
    struct node { i64 value; node* next; };

    i64 sum(node* p) {
      let acc: i64 = 0;
      while (p != null(node)) {
        acc = acc + p->value;
        p = p->next;
      }
      return acc;
    }

    i64 main() {
      let head: node* = null(node);
      let k: i64 = 0;
      while (k < 10) {
        let n: node* = malloc(node);
        n->value = k;
        n->next = head;
        head = n;
        k = k + 1;
      }
      return sum(head);
    }
    |}
  in
  Alcotest.(check int64) "list sum" 45L (ret src);
  Alcotest.(check int64) "list sum (ifp)" 45L (ret ~config:Vm.ifp_subheap src)

let test_stack_arrays_and_address_of () =
  let src =
    {|
    void fill(i64* p, i64 n) {
      let k: i64 = 0;
      while (k < n) { p[k] = k * k; k = k + 1; }
    }

    i64 main() {
      var buf: i64[8];
      fill(&buf[0], 8);
      return buf[7] + buf[2];
    }
    |}
  in
  Alcotest.(check int64) "49+4" 53L (ret src);
  Alcotest.(check int64) "same under ifp" 53L (ret ~config:Vm.ifp_wrapped src)

let test_globals () =
  let src =
    {|
    global i64 counter;
    global i64* gp;

    void bump() { counter = counter + 1; }

    i64 main() {
      bump(); bump(); bump();
      let a: i64* = malloc(i64, 4);
      a[2] = 40;
      gp = a;
      return gp[2] + counter;
    }
    |}
  in
  Alcotest.(check int64) "43" 43L (ret src);
  Alcotest.(check int64) "43 under ifp" 43L (ret ~config:Vm.ifp_subheap src)

let test_floats () =
  let src =
    {|
    i64 main() {
      let x: f64 = 1.5;
      let y: f64 = x * 4.0 + 1.0;
      if (y < 6.9) { return 0; }
      return cast(i64, y);
    }
    |}
  in
  Alcotest.(check int64) "7" 7L (ret src)

let test_struct_member_arrays () =
  let src =
    {|
    struct S { i8 vulnerable[12]; i8 sensitive[12]; };

    i64 main() {
      var boo: S;
      let p: S* = &boo;
      let k: i64 = 0;
      while (k < 12) { p->vulnerable[k] = k; k = k + 1; }
      p->sensitive[0] = 99;
      return cast(i64, p->vulnerable[5]) + cast(i64, p->sensitive[0]);
    }
    |}
  in
  Alcotest.(check int64) "104" 104L (ret src);
  Alcotest.(check int64) "104 under ifp" 104L (ret ~config:Vm.ifp_subheap src)

let test_parsed_overflow_detected () =
  (* the paper's Listing 1/2 written as source text: the intra-object
     overflow must trap under IFP and pass silently under baseline *)
  let src =
    {|
    struct S { i8 vulnerable[12]; i8 sensitive[12]; };
    global S* gv_ptr;

    void foo(i64 off) {
      let p: S* = gv_ptr;
      p->vulnerable[off] = 65;
    }

    i64 main() {
      var boo: S;
      gv_ptr = &boo;
      foo(12);
      return cast(i64, boo.sensitive[0]);
    }
    |}
  in
  (match (run src).Vm.outcome with
  | Vm.Finished x -> Alcotest.(check int64) "baseline silent corruption" 65L x
  | _ -> Alcotest.fail "baseline should finish");
  match (run ~config:Vm.ifp_wrapped src).Vm.outcome with
  | Vm.Trapped _ -> ()
  | _ -> Alcotest.fail "ifp should trap the intra-object overflow"

let test_legacy_functions () =
  let src =
    {|
    legacy i64* lib_pass(i64* p) { return p; }

    i64 main() {
      let a: i64* = malloc(i64, 4);
      let q: i64* = lib_pass(a);
      q[9] = 1;   // out of bounds, but unchecked: bounds cleared at boundary
      return 0;
    }
    |}
  in
  match (run ~config:Vm.ifp_subheap src).Vm.outcome with
  | Vm.Finished _ -> ()
  | _ -> Alcotest.fail "legacy-returned pointer should be unchecked"

let test_malloc_bytes_and_sizeof () =
  let src =
    {|
    struct pair { i64 a; i64 b; };

    i64 main() {
      let p: pair* = cast(pair*, malloc_bytes(sizeof(pair)));
      p->a = 20;
      p->b = 22;
      return p->a + p->b;
    }
    |}
  in
  Alcotest.(check int64) "42" 42L (ret src);
  Alcotest.(check int64) "42 ifp" 42L (ret ~config:Vm.ifp_subheap src)

let test_comments_and_hex () =
  let src =
    {|
    // line comment
    i64 main() {
      /* block
         comment */
      return 0xFF & 0x0F;
    }
    |}
  in
  Alcotest.(check int64) "15" 15L (ret src)

(* the error a source is rejected with: "parse"/"lex", message, line *)
let parse_error src =
  match parse src with
  | exception Ifp_compiler.Parser.Parse_error (m, l) -> ("parse", m, l)
  | exception Ifp_compiler.Lexer.Lex_error (m, l) -> ("lex", m, l)
  | _ -> Alcotest.fail ("parsed invalid program: " ^ src)

let error = Alcotest.(triple string string int)

let test_parse_errors () =
  List.iter
    (fun (src, want) -> Alcotest.check error src want (parse_error src))
    [
      ("i64 main( { return 0; }", ("parse", "expected a type, got '{'", 1));
      ( "i64 main() { return unknown_var; }",
        ("parse", "unknown identifier unknown_var", 1) );
      ( "i64 main() { let x: nosuchtype = 1; return x; }",
        ("parse", "expected a type, got nosuchtype", 1) );
      ("i64 main() { return 1 + ; }", ("parse", "unexpected ';' in expression", 1));
      ( "struct S { i64 }; i64 main() { return 0; }",
        ("parse", "expected identifier, got '}'", 1) );
      ("i64 main() { @ }", ("lex", "unexpected character @", 1));
      (* the same errors further down a source carry the offending
         token's line *)
      ("i64 main() {\n  return 1 +\n ;\n}", ("parse", "unexpected ';' in expression", 3));
      ( "struct S { i64 a; };\nstruct S { i64 b; };\n\ni64 main() { return 0; }",
        ("parse", "duplicate struct S", 2) );
      ("i64 main() {\n\n  @ }", ("lex", "unexpected character @", 3));
      ( "i64 main() {\n  let x: f64 = 1.0;\n  return x % 2;\n}",
        ("parse", "operator % not defined on f64", 3) );
      ( "i64 main() {\n  let x: f64 = 1.0;\n  return x != 2.0;\n}",
        ("parse", "comparison not defined on f64", 3) );
    ]

(* ---- binary operator precedence ----------------------------------------- *)

(* each case is [return <expr>;] evaluated by the VM; pairs of adjacent
   levels are written both ways round, so binding either level too
   tightly changes the value *)
let precedence_cases =
  [
    (* || vs && *)
    ("1 || 0 && 0", 1L); ("0 && 0 || 1", 1L);
    (* && vs | *)
    ("1 && 0 | 2", 1L); ("2 | 0 && 0", 0L);
    (* | vs ^ *)
    ("1 | 3 ^ 3", 1L); ("3 ^ 3 | 1", 1L);
    (* ^ vs & *)
    ("1 ^ 3 & 2", 3L); ("2 & 3 ^ 1", 3L);
    (* & vs == *)
    ("1 & 2 == 2", 1L); ("2 == 2 & 1", 1L);
    (* == vs < *)
    ("2 == 1 < 2", 0L); ("1 < 2 == 1", 1L);
    (* < vs << *)
    ("1 < 1 << 1", 1L); ("1 << 1 < 1", 0L);
    (* << vs + *)
    ("1 << 1 + 1", 4L); ("1 + 1 << 1", 4L);
    (* + vs * *)
    ("1 + 2 * 3", 7L); ("2 * 3 + 1", 7L);
    (* unary binds tighter than every binary level *)
    ("-2 * 3 + 7", 1L); ("!0 + ~0", 0L);
    (* left associativity, one case per level *)
    ("0 || 0 || 1", 1L); ("1 && 1 && 0", 0L); ("1 | 2 | 4", 7L);
    ("7 ^ 1 ^ 2", 4L); ("7 & 6 & 3", 2L); ("5 == 5 == 1", 1L); ("3 < 2 < 1", 1L);
    ("1 << 2 << 3", 32L); ("8 >> 1 >> 1", 2L); ("10 - 2 + 3", 11L);
    ("10 - 3 - 2", 5L); ("12 / 2 * 3", 18L); ("100 / 10 / 5", 2L);
    ("7 % 4 % 2", 1L);
    (* > and >= are < and <= with the operands swapped *)
    ("3 > 2", 1L); ("2 > 3", 0L); ("2 > 2", 0L); ("2 >= 2", 1L); ("1 >= 2", 0L);
    ("3 >= 2", 1L); ("2.5 > 1", 1L); ("1 >= 1.0", 1L); ("1.0 > 2.0", 0L);
    (* mixed i64/f64: an f64 operand makes the operation f64 *)
    ("cast(i64, (1 + 2.5) * 2)", 7L); ("cast(i64, 7 / 2.0 * 2)", 7L);
    ("cast(i64, 10 - 2.5 * 2)", 5L); ("cast(i64, 1.5 * 2 + 1)", 4L);
    ("cast(i64, -0.5 * 4 + 3)", 1L); ("1 < 1.5", 1L); ("2.0 == 2", 1L);
    ("1.5 <= 1", 0L); ("7 / 2 * 2", 6L);
  ]

let test_precedence () =
  List.iter
    (fun (e, want) ->
      Alcotest.(check int64) e want (ret (Printf.sprintf "i64 main() { return %s; }" e)))
    precedence_cases

let test_swapped_operands () =
  (* a > b is built as b < a, a >= b as b <= a *)
  let returned src =
    match (parse src).Ir.funcs with
    | [ { Ir.body; _ } ] -> (
      match List.rev body with
      | Ir.Return (Some e) :: _ -> e
      | _ -> Alcotest.fail "no return")
    | _ -> Alcotest.fail "one function expected"
  in
  let cmp_of op ty =
    returned
      (Printf.sprintf "i64 main() { let a: %s = 1; let b: %s = 2; return a %s b; }" ty
         ty op)
  in
  let a = Ir.Var "a" and b = Ir.Var "b" in
  List.iter
    (fun (op, ty, want) ->
      Alcotest.(check bool) (Printf.sprintf "a %s b on %s" op ty) true
        (cmp_of op ty = want))
    [
      (">", "i64", Ir.Binop (Ir.Lt, b, a));
      (">=", "i64", Ir.Binop (Ir.Le, b, a));
      ("<", "i64", Ir.Binop (Ir.Lt, a, b));
      (">", "f64", Ir.Binop (Ir.FLt, b, a));
      (">=", "f64", Ir.Binop (Ir.FLe, b, a));
    ]

(* ---- totality ----------------------------------------------------------- *)

(* what parse + typecheck make of a source; anything but the documented
   exceptions fails the test *)
let front_end src =
  match parse src with
  | exception Ifp_compiler.Parser.Parse_error _ -> `Rejected
  | exception Ifp_compiler.Lexer.Lex_error _ -> `Rejected
  | exception e ->
    Alcotest.failf "Parser.parse raised %s on:\n%s" (Printexc.to_string e) src
  | prog -> (
    match Typecheck.check_program prog with
    | () -> `Accepted
    | exception Typecheck.Type_error _ -> `Rejected
    | exception e ->
      Alcotest.failf "Typecheck.check_program raised %s on:\n%s"
        (Printexc.to_string e) src)

let test_front_end_regressions () =
  List.iter
    (fun (src, want) -> Alcotest.check error src want (parse_error src))
    [
      ("i64 main() {\n  return 99999999999999999999;\n}",
        ("lex", "integer literal out of range", 2));
      ("i64 main() { return 0x11112222333344445; }",
        ("lex", "integer literal out of range", 1));
      ("i64 main() { return sizeof(struct Q); }", ("parse", "unknown struct Q", 1));
      ( "struct A { A a; };\ni64 main() { return sizeof(A); }",
        ("parse", "struct A contains itself", 1) );
      ( "struct S { i64 a; };\nstruct S { i64 b; };\ni64 main() { return 0; }",
        ("parse", "duplicate struct S", 2) );
      (* a struct without a layout is reported at its declaration *)
      ( "struct S { i64 a; };\nstruct T { struct Q q; };\ni64 main() { return 0; }",
        ("parse", "unknown struct Q", 2) );
      ( "struct A { B b; };\nstruct B { A a[2]; };\ni64 main() { return 0; }",
        ("parse", "struct A contains itself", 1) );
      (* a fuzz mutant: the '*' of a list link flipped to a newline *)
      ( "struct S0 { i64 v; S0\n next; };\ni64 main() { let p: S0* = null(S0); return p->v; }",
        ("parse", "struct S0 contains itself", 1) );
    ];
  let type_error src =
    match Typecheck.check_program (parse src) with
    | exception Typecheck.Type_error m -> m
    | () -> Alcotest.fail ("typechecked: " ^ src)
  in
  List.iter
    (fun (src, want) -> Alcotest.(check string) src want (type_error src))
    [
      ("i64 main() { var s: struct Q; return 0; }", "main: unknown struct Q");
      ("i64 main() { var s: struct Q[4]; return 0; }", "main: unknown struct Q");
      ( "i64 main() { let p: struct Q* = malloc(struct Q); return 0; }",
        "main: unknown struct Q" );
      ( "i64 main() { let p: struct Q* = malloc(struct Q, 4); return 0; }",
        "main: unknown struct Q" );
      ("global struct Q g;\ni64 main() { return 0; }", "global g: unknown struct Q");
      ("i64 main() { cast(struct Q, 0); return 0; }", "main: unknown struct Q");
      ( "i64 main() { let p: struct Q* = null(struct Q); return cast(i64, &p[1]); }",
        "main: unknown struct Q" );
    ];
  (* programs built without the parser get the same struct checks *)
  let main = Ir.func "main" [] Ctype.I64 [ Ir.Return (Some (Ir.Int 0L)) ] in
  List.iter
    (fun (fields, want) ->
      let tenv = Ctype.declare Ctype.empty_tenv { Ctype.sname = "A"; fields } in
      match Typecheck.check_program (Ir.program ~tenv ~globals:[] [ main ]) with
      | exception Typecheck.Type_error m -> Alcotest.(check string) want want m
      | () -> Alcotest.fail ("typechecked: " ^ want))
    [
      ([ { Ctype.fname = "q"; fty = Ctype.Struct "Q" } ], "unknown struct Q");
      ([ { Ctype.fname = "a"; fty = Ctype.Array (Ctype.Struct "A", 2) } ],
        "struct A contains itself");
    ];
  (* pointers to an undeclared struct stay legal *)
  Alcotest.(check bool) "struct Q* is legal" true
    (front_end
       {|i64 main() {
           let p: struct Q* = null(struct Q);
           if (p == null(struct Q)) { return 1; }
           return 0;
         }|}
     = `Accepted)

(* seeded mutants of generated sources: a flipped bit, a truncation or an
   inserted run of digits *)
let mutant g src =
  let module P = Ifp_util.Prng in
  let n = String.length src in
  let at = P.int g (n + 1) in
  match P.int g 3 with
  | 0 ->
    let b = Bytes.of_string src in
    for _ = 0 to P.int g 3 do
      let i = P.int g n in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl P.int g 8)))
    done;
    Bytes.to_string b
  | 1 -> String.sub src 0 at
  | _ ->
    String.sub src 0 at
    ^ String.init (P.int_in g 1 24) (fun _ -> Char.chr (P.int_in g 48 57))
    ^ String.sub src at (n - at)

let test_totality () =
  let g = Ifp_util.Prng.create 0x707aL in
  let rejected = ref 0 and total = ref 0 in
  for i = 0 to 127 do
    let src = Ifp_fuzz.Gen.source ~knobs:Ifp_fuzz.Gen.default ~seed:(Int64.of_int i) () in
    for _ = 1 to 6 do
      incr total;
      if front_end (mutant g src) = `Rejected then incr rejected
    done
  done;
  (* the mutants exercise the error paths, not only the happy one *)
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d mutants rejected" !rejected !total)
    true
    (!rejected > !total / 4 && !rejected < !total)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.equal (String.sub hay i nn) needle then true
    else go (i + 1)
  in
  nn = 0 || go 0

let test_pp_roundtrip () =
  (* parse -> pretty-print -> still contains the expected constructs *)
  let src =
    {|
    struct node { i64 value; node* next; };
    i64 main() {
      let n: node* = malloc(node);
      n->value = 1;
      n->next = null(node);
      let m: node* = n->next;    // pointer load: needs a promote
      if (m != null(node)) { return 1; }
      return n->value;
    }
    |}
  in
  let printed = Ir_pp.program_to_string (parse src) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains printed needle))
    [ "malloc"; "->value"; "struct node" ];
  (* the instrumented program shows the inserted IFP forms *)
  let instr, _ = Instrument.run (parse src) in
  Alcotest.(check bool) "instrumented shows promote" true
    (contains (Ir_pp.program_to_string instr) "IFP_Promote")

let tests =
  [
    Alcotest.test_case "arith + control" `Quick test_arith_and_control;
    Alcotest.test_case "structs + heap" `Quick test_structs_and_heap;
    Alcotest.test_case "stack arrays + &" `Quick test_stack_arrays_and_address_of;
    Alcotest.test_case "globals" `Quick test_globals;
    Alcotest.test_case "floats" `Quick test_floats;
    Alcotest.test_case "struct member arrays" `Quick test_struct_member_arrays;
    Alcotest.test_case "parsed overflow detected" `Quick
      test_parsed_overflow_detected;
    Alcotest.test_case "legacy functions" `Quick test_legacy_functions;
    Alcotest.test_case "malloc_bytes + sizeof" `Quick test_malloc_bytes_and_sizeof;
    Alcotest.test_case "comments + hex" `Quick test_comments_and_hex;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "operator precedence" `Quick test_precedence;
    Alcotest.test_case "> and >= swap operands" `Quick test_swapped_operands;
    Alcotest.test_case "front-end regressions" `Quick test_front_end_regressions;
    Alcotest.test_case "front end is total" `Quick test_totality;
    Alcotest.test_case "pretty-printer" `Quick test_pp_roundtrip;
  ]
