(* Tests for the mini-C frontend: lexer, declarators, statements,
   expressions, typedef expansion, struct tables. *)

open Cfront
open Cast

let parse src =
  match Support.parse_partial src with
  | { Cparse.pr_prog; pr_diags = []; _ } -> pr_prog
  | { pr_diags; _ } ->
      Alcotest.failf "C parse error: %s\nin:\n%s"
        (String.concat "; " (List.map Diag.to_string pr_diags))
        src

let parse_err src =
  if not (List.exists Diag.is_error (Support.parse_partial src).Cparse.pr_diags)
  then Alcotest.failf "expected C parse error for:\n%s" src

(* the tokens of [src], EOF included, with their spans *)
let tokens src =
  let tb, _ = Clexer.tokenize_buf src in
  List.init (Tokbuf.length tb) (fun i -> (Tokbuf.tok tb i, Tokbuf.span tb i))

let first_var src =
  match List.find_opt (function GVar _ -> true | _ -> false) (parse src) with
  | Some (GVar d) -> d
  | _ -> Alcotest.fail "no variable parsed"

let type_str src = ctype_to_string (first_var src).d_type

let test_lexer () =
  let toks = tokens "int x = 0x1f + 017; /* c */ // line\n\"a\\nb\" 'c' $tainted" in
  let tts = List.map fst toks in
  Alcotest.(check bool) "has hex" true (List.mem (Ctoken.INT_LIT 31) tts);
  Alcotest.(check bool) "has octal" true (List.mem (Ctoken.INT_LIT 15) tts);
  Alcotest.(check bool) "has string" true
    (List.mem (Ctoken.STRING_LIT "a\nb") tts);
  Alcotest.(check bool) "has char" true (List.mem (Ctoken.CHAR_LIT 'c') tts);
  Alcotest.(check bool) "has qualname" true
    (List.mem (Ctoken.QUALNAME "tainted") tts)

let test_simple_decls () =
  Alcotest.(check string) "int" "int" (type_str "int x;");
  Alcotest.(check string) "const int" "const int" (type_str "const int x;");
  Alcotest.(check string) "int const (postfix)" "const int"
    (type_str "int const x;");
  Alcotest.(check string) "unsigned" "unsigned int" (type_str "unsigned x;");
  Alcotest.(check string) "implicit-sign char" "char" (type_str "char x;")

let test_pointer_decls () =
  (match (first_var "int *p;").d_type with
  | TPtr (TInt (IInt, []), []) -> ()
  | t -> Alcotest.failf "int*: %s" (ctype_to_string t));
  (* const int *p : pointer to const int *)
  (match (first_var "const int *p;").d_type with
  | TPtr (TInt (IInt, [ "const" ]), []) -> ()
  | t -> Alcotest.failf "const int*: %s" (ctype_to_string t));
  (* int * const p : const pointer to int *)
  (match (first_var "int * const p;").d_type with
  | TPtr (TInt (IInt, []), [ "const" ]) -> ()
  | t -> Alcotest.failf "int* const: %s" (ctype_to_string t));
  (* int * const * p : pointer to const pointer to int *)
  match (first_var "int * const * p;").d_type with
  | TPtr (TPtr (TInt (IInt, []), [ "const" ]), []) -> ()
  | t -> Alcotest.failf "int*const*: %s" (ctype_to_string t)

let test_array_and_funptr () =
  (match (first_var "int a[10];").d_type with
  | TArray (TInt _, Some 10, _) -> ()
  | t -> Alcotest.failf "array: %s" (ctype_to_string t));
  (match (first_var "int a[2][3];").d_type with
  | TArray (TArray (TInt _, Some 3, _), Some 2, _) -> ()
  | t -> Alcotest.failf "2d array: %s" (ctype_to_string t));
  (match (first_var "int *a[4];").d_type with
  | TArray (TPtr (TInt _, _), Some 4, _) -> ()
  | t -> Alcotest.failf "array of ptr: %s" (ctype_to_string t));
  (match (first_var "int (*a)[4];").d_type with
  | TPtr (TArray (TInt _, Some 4, _), _) -> ()
  | t -> Alcotest.failf "ptr to array: %s" (ctype_to_string t));
  (* function pointer *)
  match (first_var "int (*f)(int, char *);").d_type with
  | TPtr (TFun (TInt _, [ (_, TInt _); (_, TPtr (TInt (IChar, _), _)) ], false), _)
    -> ()
  | t -> Alcotest.failf "funptr: %s" (ctype_to_string t)

let test_fundef () =
  let p = parse "int add(int a, int b) { return a + b; }" in
  match p with
  | [ GFun f ] ->
      Alcotest.(check string) "name" "add" f.f_name;
      Alcotest.(check int) "params" 2 (List.length f.f_params);
      Alcotest.(check bool) "not varargs" false f.f_varargs;
      (match f.f_body with
      | [ SReturn (Some (EBinop (Add, EVar "a", EVar "b"))) ] -> ()
      | _ -> Alcotest.fail "body shape")
  | _ -> Alcotest.fail "expected one function"

let test_varargs_proto () =
  let p = parse "int printf(const char *fmt, ...);" in
  match p with
  | [ GProto ("printf", TFun (TInt _, [ _ ], true), _) ] -> ()
  | _ -> Alcotest.fail "printf proto"

let test_struct_def () =
  let p = parse "struct st { int x; char *name; } a, b;" in
  let comps = List.filter_map (function GComp (t, u, fs, _) -> Some (t, u, fs) | _ -> None) p in
  (match comps with
  | [ ("st", false, [ ("x", TInt _); ("name", TPtr (TInt (IChar, _), _)) ]) ] -> ()
  | _ -> Alcotest.fail "struct fields");
  let vars = List.filter_map (function GVar d -> Some d.d_name | _ -> None) p in
  Alcotest.(check (list string)) "two vars" [ "a"; "b" ] vars

let test_typedef () =
  let p = parse "typedef int *ip; ip c, d;" in
  let prog = Cprog.build p in
  let c = List.find (fun d -> d.d_name = "c") (Cprog.global_vars prog) in
  match Cprog.expand prog c.d_type with
  | TPtr (TInt _, _) -> ()
  | t -> Alcotest.failf "typedef expansion: %s" (ctype_to_string t)

let test_typedef_quals_merge () =
  let p = parse "typedef char *str; const str s;" in
  let prog = Cprog.build p in
  let s = List.find (fun d -> d.d_name = "s") (Cprog.global_vars prog) in
  (* const str = char * const (const applies to the pointer) *)
  match Cprog.expand prog s.d_type with
  | TPtr (TInt (IChar, _), q) -> Alcotest.(check bool) "const on ptr" true (is_const q)
  | t -> Alcotest.failf "const typedef: %s" (ctype_to_string t)

let test_expr_precedence () =
  let p = parse "int f(void) { return 1 + 2 * 3 < 4 && 5 || 6; }" in
  match p with
  | [ GFun { f_body = [ SReturn (Some e) ]; _ } ] -> (
      match e with
      | EBinop (LOr, EBinop (LAnd, EBinop (Lt, EBinop (Add, EInt 1, EBinop (Mul, EInt 2, EInt 3)), EInt 4), EInt 5), EInt 6)
        -> ()
      | _ -> Alcotest.fail "precedence shape")
  | _ -> Alcotest.fail "no function"

let test_cast_vs_paren () =
  let body src =
    match parse src with
    | [ GFun { f_body = [ SReturn (Some e) ]; _ } ] -> e
    | [ _; GFun { f_body = [ SReturn (Some e) ]; _ } ] -> e
    | _ -> Alcotest.fail "no function"
  in
  (match body "int f(int x) { return (int)x; }" with
  | ECast (TInt _, EVar "x") -> ()
  | _ -> Alcotest.fail "cast");
  (match body "int f(int x) { return (x); }" with
  | EVar "x" -> ()
  | _ -> Alcotest.fail "paren");
  (* typedef name makes it a cast *)
  match body "typedef int T; int f(int x) { return (T)x; }" with
  | ECast (TNamed ("T", _), EVar "x") -> ()
  | _ -> Alcotest.fail "typedef cast"

let test_statements () =
  let src =
    "int f(int n) {\n\
     int i, s = 0;\n\
     for (i = 0; i < n; i++) { s += i; }\n\
     while (s > 100) s--;\n\
     do { s++; } while (s < 10);\n\
     switch (n) { case 1: s = 1; break; default: s = 2; }\n\
     if (s) return s; else return -s;\n\
     }"
  in
  match parse src with
  | [ GFun f ] -> Alcotest.(check int) "stmt count" 6 (List.length f.f_body)
  | _ -> Alcotest.fail "statements"

let test_member_access () =
  let src =
    "struct p { int x; struct p *next; };\n\
     int f(struct p *l) { return l->next->x + (*l).x; }"
  in
  match parse src with
  | [ GComp _; GFun { f_body = [ SReturn (Some e) ]; _ } ] -> (
      match e with
      | EBinop (Add, EArrow (EArrow (EVar "l", "next"), "x"), EMember (EDeref (EVar "l"), "x"))
        -> ()
      | _ -> Alcotest.fail "member shape")
  | _ -> Alcotest.fail "member parse"

let test_enum () =
  let p = parse "enum color { RED, GREEN = 5, BLUE }; int f(void) { return BLUE; }" in
  (* enum constants substitute as integers *)
  match p with
  | [ GEnum ("color", items, _); GFun { f_body = [ SReturn (Some (EInt 6)) ]; _ } ]
    ->
      Alcotest.(check (list (pair string int)))
        "items"
        [ ("RED", 0); ("GREEN", 5); ("BLUE", 6) ]
        items
  | _ -> Alcotest.fail "enum"

let test_string_concat_and_escape () =
  let p = parse "char *s = \"ab\" \"cd\";" in
  match p with
  | [ GVar { d_init = Some (EString "abcd"); _ } ] -> ()
  | _ -> Alcotest.fail "string concat"

let test_init_list () =
  let p = parse "int a[3] = {1, 2, 3}; struct s { int x; int y; } v = { .x = 1, .y = 2 };" in
  let inits =
    List.filter_map (function GVar { d_init = Some i; _ } -> Some i | _ -> None) p
  in
  match inits with
  | [ EInitList [ EInt 1; EInt 2; EInt 3 ]; EInitList [ EInt 1; EInt 2 ] ] -> ()
  | _ -> Alcotest.fail "init lists"

let test_user_qualifier () =
  (* Section 2.5: $-prefixed user qualifiers in declarations *)
  let d = first_var "$tainted char *input;" in
  match d.d_type with
  | TPtr (TInt (IChar, q), _) ->
      Alcotest.(check bool) "tainted recorded" true (has_qual "tainted" q)
  | t -> Alcotest.failf "user qual: %s" (ctype_to_string t)

let test_preprocessor_skipped () =
  let p = parse "#include <stdio.h>\n#define X 3\nint x;" in
  Alcotest.(check int) "one global" 1 (List.length p)

let test_parse_errors () =
  parse_err "int x";
  parse_err "int f( {";
  parse_err "struct { int; } x;";
  parse_err "int 3x;"

let test_bitfields_and_unions () =
  let p = parse "union u { int flags : 4; char c; }; union u v;" in
  match p with
  | [ GComp ("u", true, fields, _); GVar _ ] ->
      Alcotest.(check int) "fields" 2 (List.length fields)
  | _ -> Alcotest.fail "union/bitfield"

let test_static_and_extern () =
  let p = parse "static int hidden(void) { return 1; } extern int g;" in
  match p with
  | [ GFun f; GVar _ ] -> Alcotest.(check bool) "static" true f.f_static
  | _ -> Alcotest.fail "static/extern"

let test_comma_and_ternary () =
  match parse "int f(int a) { return a ? 1 : (a = 2, 3); }" with
  | [ GFun { f_body = [ SReturn (Some (ECond (EVar "a", EInt 1, EComma (EAssign _, EInt 3)))) ]; _ } ]
    -> ()
  | _ -> Alcotest.fail "comma/ternary"

let test_sizeof () =
  match parse "int f(int *p) { return sizeof(int) + sizeof p; }" with
  | [ GFun { f_body = [ SReturn (Some (EBinop (Add, ESizeofT (TInt _), ESizeofE (EVar "p")))) ]; _ } ]
    -> ()
  | _ -> Alcotest.fail "sizeof"

let tests =
  [
    Alcotest.test_case "lexer" `Quick test_lexer;
    Alcotest.test_case "simple declarations" `Quick test_simple_decls;
    Alcotest.test_case "pointer declarators with const" `Quick
      test_pointer_decls;
    Alcotest.test_case "arrays and function pointers" `Quick
      test_array_and_funptr;
    Alcotest.test_case "function definition" `Quick test_fundef;
    Alcotest.test_case "varargs prototype" `Quick test_varargs_proto;
    Alcotest.test_case "struct definition" `Quick test_struct_def;
    Alcotest.test_case "typedef expansion" `Quick test_typedef;
    Alcotest.test_case "typedef qualifier merge" `Quick
      test_typedef_quals_merge;
    Alcotest.test_case "expression precedence" `Quick test_expr_precedence;
    Alcotest.test_case "cast vs parenthesis" `Quick test_cast_vs_paren;
    Alcotest.test_case "statements" `Quick test_statements;
    Alcotest.test_case "member access" `Quick test_member_access;
    Alcotest.test_case "enums substitute" `Quick test_enum;
    Alcotest.test_case "string concat/escapes" `Quick
      test_string_concat_and_escape;
    Alcotest.test_case "initializer lists" `Quick test_init_list;
    Alcotest.test_case "$user qualifiers" `Quick test_user_qualifier;
    Alcotest.test_case "preprocessor lines skipped" `Quick
      test_preprocessor_skipped;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "unions and bitfields" `Quick
      test_bitfields_and_unions;
    Alcotest.test_case "static and extern" `Quick test_static_and_extern;
    Alcotest.test_case "comma and ternary" `Quick test_comma_and_ternary;
    Alcotest.test_case "sizeof" `Quick test_sizeof;
  ]

(* ---------------- additional robustness ---------------- *)

let test_comma_decls () =
  let p = parse "int a = 1, *b, c[3];" in
  let names = List.filter_map (function GVar d -> Some d.d_name | _ -> None) p in
  Alcotest.(check (list string)) "names" [ "a"; "b"; "c" ] names;
  match p with
  | [ GVar { d_init = Some (EInt 1); _ }; GVar { d_type = TPtr _; _ };
      GVar { d_type = TArray (_, Some 3, _); _ } ] -> ()
  | _ -> Alcotest.fail "comma decl shapes"

let test_nested_struct () =
  let p =
    parse
      "struct inner { int x; };\n\
       struct outer { struct inner i; struct inner *pi; };\n\
       int f(struct outer *o) { return o->i.x + o->pi->x; }"
  in
  Alcotest.(check int) "globals" 3 (List.length p)

let test_array_of_funptr () =
  match (first_var "int (*handlers[4])(char *);").d_type with
  | TArray (TPtr (TFun (TInt _, [ _ ], false), _), Some 4, _) -> ()
  | t -> Alcotest.failf "array of funptr: %s" (ctype_to_string t)

let test_funptr_returning_funptr () =
  (* "int ( *f(void) )(int)": function returning pointer to function *)
  match parse "int (*f(void))(int);" with
  | [ GProto ("f", TFun (TPtr (TFun (TInt _, [ _ ], false), _), [], false), _) ]
    -> ()
  | _ -> Alcotest.fail "function returning function pointer"

let test_shift_and_mod_precedence () =
  let body src =
    match parse src with
    | [ GFun { f_body = [ SReturn (Some e) ]; _ } ] -> e
    | _ -> Alcotest.fail "no function"
  in
  (match body "int f(int a) { return a << 2 + 1; }" with
  | EBinop (Shl, EVar "a", EBinop (Add, EInt 2, EInt 1)) -> ()
  | _ -> Alcotest.fail "shift binds looser than +");
  match body "int f(int a) { return a % 3 * 2; }" with
  | EBinop (Mul, EBinop (Mod, EVar "a", EInt 3), EInt 2) -> ()
  | _ -> Alcotest.fail "% and * same level, left assoc"

let test_unary_chain () =
  match parse "int f(int *p) { return -*p + !*p + ~*p; }" with
  | [ GFun _ ] -> ()
  | _ -> Alcotest.fail "unary chain"

let test_assignment_ops () =
  let src =
    "void f(int x) { x += 1; x -= 2; x *= 3; x /= 4; x %= 5; x &= 6; x |= 7; x ^= 8; x <<= 1; x >>= 1; }"
  in
  match parse src with
  | [ GFun { f_body; _ } ] -> Alcotest.(check int) "10 stmts" 10 (List.length f_body)
  | _ -> Alcotest.fail "assign ops"

let test_char_escapes () =
  let toks = tokens {|'\n' '\t' '\\' '\'' '\0'|} in
  let cs = List.filter_map (function Ctoken.CHAR_LIT c, _ -> Some c | _ -> None) toks in
  Alcotest.(check (list char)) "escapes" [ '\n'; '\t'; '\\'; '\''; '\000' ] cs

let test_hex_and_suffixes () =
  let toks = tokens "0xFF 10L 20UL 077" in
  let ns = List.filter_map (function Ctoken.INT_LIT n, _ -> Some n | _ -> None) toks in
  Alcotest.(check (list int)) "values" [ 255; 10; 20; 63 ] ns

let test_empty_function_and_void () =
  match parse "void f(void) { }" with
  | [ GFun { f_params = []; f_body = []; _ } ] -> ()
  | _ -> Alcotest.fail "empty fn"

let test_lines_counted () =
  Alcotest.(check int) "lines" 3 (Cprog.count_lines "a\nb\nc")

let test_const_in_cast () =
  match parse "char *f(const char *s) { return (char *)s; }" with
  | [ GFun { f_body = [ SReturn (Some (ECast (TPtr (TInt (IChar, []), []), EVar "s"))) ]; _ } ]
    -> ()
  | _ -> Alcotest.fail "cast type"

let test_forward_struct_ref () =
  (* a struct can reference itself and a not-yet-defined struct through a
     pointer *)
  let p =
    parse
      "struct a;\n\
       struct b { struct a *pa; struct b *next; };\n\
       struct a { struct b inner; };\n\
       int f(struct b *x) { return 0; }"
  in
  Alcotest.(check bool) "parsed" true (List.length p >= 3)

let extra_tests =
  [
    Alcotest.test_case "comma declarations" `Quick test_comma_decls;
    Alcotest.test_case "nested structs" `Quick test_nested_struct;
    Alcotest.test_case "array of function pointers" `Quick
      test_array_of_funptr;
    Alcotest.test_case "function returning function pointer" `Quick
      test_funptr_returning_funptr;
    Alcotest.test_case "shift/mod precedence" `Quick
      test_shift_and_mod_precedence;
    Alcotest.test_case "unary chains" `Quick test_unary_chain;
    Alcotest.test_case "compound assignment operators" `Quick
      test_assignment_ops;
    Alcotest.test_case "char escapes" `Quick test_char_escapes;
    Alcotest.test_case "hex/octal/suffixed literals" `Quick
      test_hex_and_suffixes;
    Alcotest.test_case "empty void function" `Quick
      test_empty_function_and_void;
    Alcotest.test_case "line counting" `Quick test_lines_counted;
    Alcotest.test_case "const in cast" `Quick test_const_in_cast;
    Alcotest.test_case "forward struct references" `Quick
      test_forward_struct_ref;
  ]

(* ---------------- golden token streams ---------------- *)

(* Each corpus's token stream, every token with its span and then every
   diagnostic, rendered and digested. The digests were recorded from the
   ocamllex lexer this hand-written one replaced, so they pin its exact
   tokens, spans, diagnostics and recovery (bad characters, unterminated
   constructs, the error cap). None of these corpora has an input that
   lexer got wrong; test_resilience covers those (newlines inside
   literals, integer literals too large for an int). *)
let stream_digest ?max_errors units =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, src) ->
      Printf.bprintf b "== %s\n" name;
      let tb, diags = Clexer.tokenize_buf ?max_errors src in
      for i = 0 to Tokbuf.length tb - 1 do
        let sp = Tokbuf.span tb i in
        Printf.bprintf b "%s %d:%d-%d:%d\n"
          (Ctoken.to_string (Tokbuf.tok tb i))
          sp.Diag.sl sp.Diag.sc sp.Diag.el sp.Diag.ec
      done;
      List.iter (fun d -> Printf.bprintf b "%s\n" (Diag.to_string d)) diags)
    units;
  Digest.to_hex (Digest.string (Buffer.contents b))

let check_golden label ?max_errors units expected =
  Alcotest.(check string) label expected (stream_digest ?max_errors units)

let test_golden_clean () =
  check_golden "programs" Cbench.Programs.all
    "d7ed941fcec3a3831df03f56bc5e5cae";
  check_golden "miniproject" Cbench.Programs.miniproject
    "0ba012c2a65fd5cd6c022677df63fd69";
  List.iter
    (fun (seed, expected) ->
      check_golden
        (Printf.sprintf "gen seed %d" seed)
        [
          ( Printf.sprintf "gen%d" seed,
            Cbench.Gen.generate ~seed ~target_lines:500 () );
        ]
        expected)
    [
      (41, "299d1d4debca38b2d25899de18d11714");
      (42, "d7a3076246e9759408b6aa4494ea283b");
    ]

let lexical_corners =
  "0x1f 0xg 0xFFUL 017 0778 017L 08 0128 1.5e3 1. 1.e5 1e5 1e 1e+ 10UL 10Lu \
   1.5f 1..2 .5 0x1.5 12abc 4611686018427387903 0x7FFFFFFFFFFFFFFF 077777\n\
   a->b ++ -- <<= >>= << >> <= >= == != && || += -= *= /= %= &= |= ^= ... .. \
   ? : ~ ! ^ ; , ( ) [ ] { } * / % + - & | < > = .\n\
   $tainted $ x 'a' '\\n' '\\'' 'ab' '' # pragma\n\
   // c\n/* a\n b */ _x1 x_y Z9 int intx\n\t\r\011\012\195\169\n"

let test_golden_errors () =
  List.iter
    (fun (label, src, expected) -> check_golden label [ ("s", src) ] expected)
    [
      ( "stray chars",
        "int a;\n@\nint b;\n`\nint c;\n",
        "63f0b41b779f797d82fbe6ee34e897b3" );
      ( "unterminated string",
        "int a;\nchar *s = \"oops;\nint b;\n",
        "c1f7ad5079af9969b53e40fed538fa65" );
      ( "unterminated comment",
        "int a;\n/* never closed\nint b;\n",
        "0bf705582947fa69441e1241c94cfe22" );
      ( "string with escapes",
        "char *s = \"a\\t\\\"b\\n\";\nint x;\n",
        "4b500901193b78a62c84983f6028ba02" );
      ( "string ending in a backslash",
        "int a;\nchar *s = \"ab\\",
        "016e8a12e04bed33bdbba679717b6287" );
      ( "crlf and mid-line hash",
        "int a;\r\nint b; # junk\r\n\tint c;\r\n",
        "e58a150b49e3ec513142e98acb6a7025" );
      ("empty", "", "02dfd59f1bdf9160e507fad88f5bff41");
      ("lexical corners", lexical_corners, "236dcef514c59f66190f0cbcd65e3ab4");
    ];
  (* the lex-error cap: the stream stops at the diagnostic that reaches
     it *)
  let flood = String.concat "" (List.init 40 (fun _ -> "@\n")) in
  check_golden "error cap" ~max_errors:5 [ ("s", flood) ]
    "472cf28c36b71939036036c97ee9afae";
  check_golden "error cap default" [ ("s", flood) ]
    "4217da5308e385137b7962a6aa5f086e"

let test_tokbuf_interns () =
  let tb, _ = Clexer.tokenize_buf "int foo; int bar; foo_t baz; foo = bar;\n" in
  let t = Tokbuf.tok tb in
  (* int foo ; int bar ; foo_t baz ; foo = bar ; EOF *)
  Alcotest.(check bool) "a keyword lexes to its keyword token" true
    (t 0 = Ctoken.KW_INT && t 3 = Ctoken.KW_INT);
  Alcotest.(check bool) "one IDENT per name: foo" true (t 1 == t 9);
  Alcotest.(check bool) "one IDENT per name: bar" true (t 4 == t 11);
  Alcotest.(check bool) "distinct names, distinct tokens" true
    (t 1 <> t 4 && t 6 <> t 7);
  Alcotest.(check bool) "identifiers lex to IDENT" true
    (t 1 = Ctoken.IDENT "foo" && t 6 = Ctoken.IDENT "foo_t")

(* ---------------- frontend fuzzer ---------------- *)

(* Random bytes, and corpus units truncated or with bytes overwritten:
   lexing and parsing never raise, the stream ends in exactly one EOF,
   token starts strictly increase, a one-line token ends at or after its
   start, and neither the lexer nor the parser reports more errors than
   [max_errors]. *)
let fuzz_corpus =
  Array.of_list (List.map snd (Cbench.Programs.all @ Cbench.Programs.miniproject))

let gen_fuzz_source =
  let open QCheck2.Gen in
  let unit = map (Array.get fuzz_corpus) (int_bound (Array.length fuzz_corpus - 1)) in
  oneof
    [
      string_size ~gen:char (int_bound 300);
      map2 (fun src k -> String.sub src 0 (k mod (String.length src + 1))) unit nat;
      map2
        (fun src flips ->
          let b = Bytes.of_string src in
          List.iter
            (fun (at, c) -> if Bytes.length b > 0 then Bytes.set b (at mod Bytes.length b) c)
            flips;
          Bytes.to_string b)
        unit
        (list_size (int_range 1 8) (pair nat char));
    ]

let check_stream max_errors src =
  let fail fmt = QCheck2.Test.fail_reportf fmt in
  match Clexer.tokenize_buf ~max_errors src with
  | exception e -> fail "tokenize_buf raised %s" (Printexc.to_string e)
  | tb, lex_diags ->
      let n = Tokbuf.length tb in
      if n = 0 || Tokbuf.tok tb (n - 1) <> Ctoken.EOF then fail "no final EOF";
      for i = 0 to n - 1 do
        let sp = Tokbuf.span tb i in
        if i < n - 1 && Tokbuf.tok tb i = Ctoken.EOF then fail "EOF at token %d of %d" i n;
        if sp.Diag.el < sp.Diag.sl || (sp.Diag.sl = sp.Diag.el && sp.Diag.ec < sp.Diag.sc)
        then fail "token %d ends before it starts" i;
        if i > 0 then begin
          let prev = Tokbuf.span tb (i - 1) in
          if compare (prev.Diag.sl, prev.Diag.sc) (sp.Diag.sl, sp.Diag.sc) >= 0 then
            fail "token %d does not start after token %d" i (i - 1)
        end
      done;
      if List.length lex_diags > max_errors then
        fail "%d lexical diagnostics, cap %d" (List.length lex_diags) max_errors;
      (match Cparse.parse_unit ~max_errors tb ~lex_diags with
      | exception e -> fail "parse_unit raised %s" (Printexc.to_string e)
      | r ->
          let errors = List.filter Diag.is_error r.Cparse.ur_pr.Cparse.pr_diags in
          if List.length errors > max_errors then
            fail "%d errors, cap %d" (List.length errors) max_errors);
      true

let prop_frontend_fuzz =
  QCheck2.Test.make ~count:1000 ~name:"frontend fuzz: no raise, one EOF, ordered spans, capped"
    ~print:(fun (m, src) -> Printf.sprintf "max_errors %d:\n%S" m src)
    QCheck2.Gen.(pair (int_range 1 25) gen_fuzz_source)
    (fun (max_errors, src) -> check_stream max_errors src)

let tokbuf_tests =
  [
    Alcotest.test_case "golden token streams (clean)" `Quick
      test_golden_clean;
    Alcotest.test_case "golden token streams (errors)" `Quick
      test_golden_errors;
    Alcotest.test_case "token buffer intern table" `Quick test_tokbuf_interns;
    QCheck_alcotest.to_alcotest prop_frontend_fuzz;
  ]

let tests = tests @ extra_tests @ tokbuf_tests
