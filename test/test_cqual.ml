(* Tests for const inference over C (Section 4): the ℓ translation,
   (Assign') through pointers, struct field sharing, typedef independence,
   library conservatism, casts, and the mono/poly difference. *)

open Cqual

let run ?(mode = Analysis.Mono) ?rules src = Support.run_source ~mode ?rules src

let results ?mode src = (run ?mode src).Session.results

(* find the verdict of a specific position *)
let verdict_of ?mode src fname where level =
  let r = results ?mode src in
  match
    List.find_opt
      (fun ((p : Report.position), _) ->
        p.p_fun = fname && p.p_level = level
        &&
        match (p.p_where, where) with
        | Report.Param (i, _), `Param j -> i = j
        | Report.Ret, `Ret -> true
        | _ -> false)
      r.Report.positions
  with
  | Some (_, v) -> v
  | None ->
      Alcotest.failf "no position %s/%s/level %d" fname
        (match where with `Param i -> string_of_int i | `Ret -> "ret")
        level

let check_verdict ?mode src fname where level expected =
  let v = verdict_of ?mode src fname where level in
  Alcotest.(check string)
    (Printf.sprintf "%s %s" fname
       (match where with `Param i -> Printf.sprintf "param%d" i | `Ret -> "ret"))
    (Fmt.str "%a" Report.pp_verdict expected)
    (Fmt.str "%a" Report.pp_verdict v)

(* ---------------- the paper's Section 4.1 examples ---------------- *)

let test_const_int_assign () =
  (* int x; const int y; x = y;  — y's constness does not affect x *)
  let r = results "void f(void) { int x; const int y = 1; x = y; }" in
  Alcotest.(check int) "no type errors" 0 r.Report.type_errors

let test_ptr_to_const_promotion () =
  (* int *x; const int *y; y = x;  — standard subtyping after ℓ *)
  let r = results "void f(void) { int *x; const int *y; y = x; }" in
  Alcotest.(check int) "no type errors" 0 r.Report.type_errors

let test_write_through_const_rejected () =
  let r = results "void f(const int *p) { *p = 1; }" in
  Alcotest.(check bool) "type error" true (r.Report.type_errors > 0)

let test_assign_const_var_rejected () =
  let r = results "void f(void) { const int y = 1; y = 2; }" in
  Alcotest.(check bool) "type error" true (r.Report.type_errors > 0)

let test_const_flow_caught () =
  (* storing a pointer-to-const into a pointer that is written through *)
  let src =
    "void f(const char *s) { char *p; p = s; *p = 'x'; }"
  in
  let r = results src in
  Alcotest.(check bool) "type error" true (r.Report.type_errors > 0)

(* ---------------- classification ---------------- *)

let test_writer_param_nonconst () =
  check_verdict "void f(int *p) { *p = 1; }" "f" (`Param 0) 1
    Report.Must_not_const

let test_reader_param_either () =
  check_verdict "int f(int *p) { return *p; }" "f" (`Param 0) 1 Report.Either

let test_declared_const_must () =
  check_verdict "int f(const int *p) { return *p; }" "f" (`Param 0) 1
    Report.Must_const

let test_declared_counted () =
  let r =
    results
      "int f(const char *a, char *b, int c) { return *a + *b + c; }"
  in
  Alcotest.(check int) "total" 2 r.Report.total;
  Alcotest.(check int) "declared" 1 r.Report.declared;
  Alcotest.(check int) "possible" 2 r.Report.possible

let test_two_level_positions () =
  let r = results "void f(char **v) { }" in
  Alcotest.(check int) "two levels" 2 r.Report.total

let test_return_position () =
  let r = results "char *f(char *p) { return p; }" in
  (* one param level + one return level *)
  Alcotest.(check int) "total" 2 r.Report.total

let test_flow_through_call () =
  (* g writes through its parameter; f passes its own parameter down, so
     f's parameter must also be non-const *)
  let src = "void g(int *q) { *q = 1; } void f(int *p) { g(p); }" in
  check_verdict src "f" (`Param 0) 1 Report.Must_not_const

let test_address_of_write () =
  let src = "void f(int *p) { int **pp = &p; **pp = 3; }" in
  check_verdict src "f" (`Param 0) 1 Report.Must_not_const

(* ---------------- struct sharing (Section 4.2) ---------------- *)

let test_struct_field_shared () =
  (* all variables of one struct type share the field qualifiers
     (Section 4.2): a const flowing into x->data's target meets the write
     through y->data's target — distinct variables, same shared field *)
  let shared =
    "struct buf { char *data; };\n\
     void f(struct buf *x, const char *s) { x->data = s; }\n\
     void g(struct buf *y) { *(y->data) = 'c'; }"
  in
  Alcotest.(check bool) "sharing detected" true
    ((results shared).Report.type_errors > 0);
  (* sanity: with two separate struct types there is no conflict *)
  let separate =
    "struct buf1 { char *data; };\n\
     struct buf2 { char *data; };\n\
     void f(struct buf1 *x, const char *s) { x->data = s; }\n\
     void g(struct buf2 *y) { *(y->data) = 'c'; }"
  in
  Alcotest.(check int) "no conflict across types" 0
    (results separate).Report.type_errors;
  (* and a declared-const field rejects writes through any instance *)
  let declared =
    "struct rec { const char *name; };\n\
     void w(struct rec *r) { *(r->name) = 'x'; }"
  in
  Alcotest.(check bool) "declared const field enforced" true
    ((results declared).Report.type_errors > 0)

let test_struct_toplevel_independent () =
  (* writing b itself (whole-struct assignment) does not force a *)
  let src =
    "struct st { int x; };\n\
     void f(struct st *pa, struct st *pb) { *pb = *pa; }"
  in
  check_verdict src "f" (`Param 0) 1 Report.Either;
  check_verdict src "f" (`Param 1) 1 Report.Must_not_const

let test_member_write_through_const_struct () =
  let src = "struct st { int x; }; void f(const struct st *p) { p->x = 1; }" in
  let r = results src in
  Alcotest.(check bool) "type error" true (r.Report.type_errors > 0)

let test_typedef_no_sharing () =
  (* typedefs are macro-expanded: c and d share no qualifiers *)
  let src =
    "typedef int *ip;\n\
     void f(ip c, ip d) { *c = 1; }"
  in
  check_verdict src "f" (`Param 0) 1 Report.Must_not_const;
  check_verdict src "f" (`Param 1) 1 Report.Either

(* ---------------- library functions (Section 4.2) ---------------- *)

let test_library_const_param_safe () =
  let src =
    "int strlen(const char *s);\n\
     int f(char *p) { return strlen(p); }"
  in
  check_verdict src "f" (`Param 0) 1 Report.Either

let test_library_nonconst_param_forces () =
  let src =
    "char *gets(char *buf);\n\
     void f(char *p) { gets(p); }"
  in
  check_verdict src "f" (`Param 0) 1 Report.Must_not_const

let test_undeclared_function_forces () =
  let src = "void f(char *p) { mystery(p); }" in
  check_verdict src "f" (`Param 0) 1 Report.Must_not_const

let test_varargs_extra_args_ignored () =
  (* Section 4.2: "we simply ignore extra arguments" — so printing a
     const string through printf's ... is fine, and the pointer can still
     be const *)
  let src =
    "int printf(const char *fmt, ...);\n\
     void f(char *p) { printf(\"%s\", p); }"
  in
  check_verdict src "f" (`Param 0) 1 Report.Either;
  let r =
    results
      "int printf(const char *fmt, ...);\n\
       const char *version(void) { return \"1.0\"; }\n\
       void show(void) { printf(\"%s\", version()); }"
  in
  Alcotest.(check int) "const through varargs is legal" 0 r.Report.type_errors

let test_library_result_fresh_per_call () =
  (* two calls to the same library function must not alias their results *)
  let src =
    "char *strchr(const char *s, int c);\n\
     void f(char *a, const char *b) {\n\
     char *x = strchr(a, 1); *x = 'y';\n\
     const char *y = strchr(b, 2);\n\
     }"
  in
  let r = results src in
  Alcotest.(check int) "no type errors" 0 r.Report.type_errors

(* ---------------- casts (Section 4.2) ---------------- *)

let test_cast_loses_association () =
  (* the classic strchr trick: cast away const; no type error, and the
     caller's const pointer is unaffected by the write *)
  let src =
    "void f(const char *s) { char *p = (char *)s; *p = 'x'; }"
  in
  let r = results src in
  Alcotest.(check int) "no type errors" 0 r.Report.type_errors;
  check_verdict src "f" (`Param 0) 1 Report.Must_const

let test_void_star_erases () =
  let src =
    "void *memset(void *dst, int c, int n);\n\
     void f(int *p) { memset(p, 0, 4); }"
  in
  (* memset's dst is not declared const: p forced non-const *)
  check_verdict src "f" (`Param 0) 1 Report.Must_not_const

(* ---------------- mono vs poly (Sections 4.3-4.4) ---------------- *)

let poly_wins_src =
  "char *first(char *s) { return s; }\n\
   void writer(void) { char buf[4]; char *p; p = first(buf); *p = 'x'; }\n\
   void reader(char *msg) { char *q; q = first(msg); }"

let test_mono_conflates () =
  (* monomorphically, writer's use forces first's parameter non-const,
     which poisons reader's msg *)
  check_verdict ~mode:Analysis.Mono poly_wins_src "reader" (`Param 0) 1
    Report.Must_not_const

let test_poly_separates () =
  check_verdict ~mode:Analysis.Poly poly_wins_src "reader" (`Param 0) 1
    Report.Either

let test_poly_counts_more () =
  let mono = results ~mode:Analysis.Mono poly_wins_src in
  let poly = results ~mode:Analysis.Poly poly_wins_src in
  Alcotest.(check bool) "poly > mono"
    true
    (poly.Report.possible > mono.Report.possible);
  Alcotest.(check int) "same total" mono.Report.total poly.Report.total;
  Alcotest.(check int) "no errors mono" 0 mono.Report.type_errors;
  Alcotest.(check int) "no errors poly" 0 poly.Report.type_errors

let test_poly_still_sound () =
  (* polymorphism must not lose the flow inside one instantiation *)
  let src =
    "char *first(char *s) { return s; }\n\
     void w(char *msg) { char *p; p = first(msg); *p = 'x'; }"
  in
  check_verdict ~mode:Analysis.Poly src "w" (`Param 0) 1 Report.Must_not_const

let test_mutual_recursion () =
  let src =
    "int odd(int n);\n\
     int even(int n) { if (n == 0) return 1; return odd(n - 1); }\n\
     int odd(int n) { if (n == 0) return 0; return even(n - 1); }\n\
     void use(char *p) { even(3); }"
  in
  let mono = results ~mode:Analysis.Mono src in
  let poly = results ~mode:Analysis.Poly src in
  Alcotest.(check int) "no errors mono" 0 mono.Report.type_errors;
  Alcotest.(check int) "no errors poly" 0 poly.Report.type_errors

let test_recursive_poly () =
  (* a directly recursive function is its own SCC and stays monomorphic
     within itself, but is polymorphic across callers *)
  let src =
    "char *skip(char *s, int n) { if (n == 0) return s; return skip(s + 1, n - 1); }\n\
     void writer(void) { char b[4]; char *p; p = skip(b, 1); *p = 'x'; }\n\
     void reader(char *m) { skip(m, 2); }"
  in
  check_verdict ~mode:Analysis.Poly src "reader" (`Param 0) 1 Report.Either;
  check_verdict ~mode:Analysis.Mono src "reader" (`Param 0) 1
    Report.Must_not_const

let test_globals_monomorphic () =
  (* flows through a global variable are monomorphic even in poly mode *)
  let src =
    "char *stash;\n\
     char *id(char *p) { stash = p; return stash; }\n\
     void writer(void) { char b[4]; char *q; q = id(b); *q = 'x'; }\n\
     void reader(char *m) { id(m); }"
  in
  (* the global conflates the instances: reader's m reaches stash, stash is
     written through by writer's q *)
  check_verdict ~mode:Analysis.Poly src "reader" (`Param 0) 1
    Report.Must_not_const

(* ---------------- FDG (Definition 4) ---------------- *)

let test_fdg_order () =
  let src =
    "int c(void) { return 1; }\n\
     int b(void) { return c(); }\n\
     int a(void) { return b(); }"
  in
  let prog = Support.compile src in
  let fdg = Fdg.build prog in
  Alcotest.(check int) "3 sccs" 3 (Fdg.scc_count fdg);
  (* reverse topological: callee first *)
  Alcotest.(check (list (list string)))
    "order" [ [ "c" ]; [ "b" ]; [ "a" ] ] (Fdg.sccs fdg)

let test_fdg_scc () =
  let src =
    "int odd(int n);\n\
     int even(int n) { return odd(n); }\n\
     int odd(int n) { return even(n); }\n\
     int main(void) { return even(2); }"
  in
  let prog = Support.compile src in
  let fdg = Fdg.build prog in
  Alcotest.(check int) "2 sccs" 2 (Fdg.scc_count fdg);
  Alcotest.(check int) "largest = 2" 2 (Fdg.largest_scc fdg);
  (match (Fdg.sccs fdg) with
  | [ scc1; [ "main" ] ] ->
      Alcotest.(check (list string))
        "mutual pair" [ "even"; "odd" ]
        (List.sort compare scc1)
  | _ -> Alcotest.fail "scc shape")

let test_fdg_function_pointer_mention () =
  (* taking a function's address is an occurrence (Definition 4) *)
  let src =
    "int cb(int x) { return x; }\n\
     void install(void) { int (*f)(int) = cb; }"
  in
  let prog = Support.compile src in
  let fdg = Fdg.build prog in
  match (Fdg.sccs fdg) with
  | [ [ "cb" ]; [ "install" ] ] -> ()
  | sccs ->
      Alcotest.failf "unexpected sccs: %a"
        Fmt.(list (list string)) sccs

(* ---------------- misc robustness ---------------- *)

let test_function_pointer_call () =
  let src =
    "void wr(char *p) { *p = 1; }\n\
     void f(char *q) { void (*fp)(char *) = wr; fp(q); }"
  in
  check_verdict src "f" (`Param 0) 1 Report.Must_not_const

let test_global_init_flow () =
  let src =
    "const char *version = \"1.0\";\n\
     void f(void) { const char *v = version; }"
  in
  let r = results src in
  Alcotest.(check int) "no errors" 0 r.Report.type_errors

let test_no_positions_for_library () =
  (* only defined functions contribute positions *)
  let src = "int strlen(const char *s); int f(int x) { return x; }" in
  let r = results src in
  Alcotest.(check int) "no interesting positions" 0 r.Report.total

let test_array_param_decays () =
  let src = "void f(char buf[10]) { buf[0] = 'x'; }" in
  check_verdict src "f" (`Param 0) 1 Report.Must_not_const

let test_string_into_const () =
  let src = "void f(void) { const char *s = \"hi\"; }" in
  Alcotest.(check int) "ok" 0 (results src).Report.type_errors

let tests =
  [
    Alcotest.test_case "4.1: x = y with const y" `Quick test_const_int_assign;
    Alcotest.test_case "4.1: y = x pointer promotion" `Quick
      test_ptr_to_const_promotion;
    Alcotest.test_case "write through const rejected" `Quick
      test_write_through_const_rejected;
    Alcotest.test_case "assign to const var rejected" `Quick
      test_assign_const_var_rejected;
    Alcotest.test_case "const flow through alias caught" `Quick
      test_const_flow_caught;
    Alcotest.test_case "writer param is non-const" `Quick
      test_writer_param_nonconst;
    Alcotest.test_case "reader param could be const" `Quick
      test_reader_param_either;
    Alcotest.test_case "declared const is must-const" `Quick
      test_declared_const_must;
    Alcotest.test_case "declared/possible counting" `Quick
      test_declared_counted;
    Alcotest.test_case "char** has two positions" `Quick
      test_two_level_positions;
    Alcotest.test_case "return positions counted" `Quick test_return_position;
    Alcotest.test_case "flow through a call" `Quick test_flow_through_call;
    Alcotest.test_case "write through address-of" `Quick
      test_address_of_write;
    Alcotest.test_case "4.2: struct fields shared" `Quick
      test_struct_field_shared;
    Alcotest.test_case "4.2: struct top-level independent" `Quick
      test_struct_toplevel_independent;
    Alcotest.test_case "member write through const struct" `Quick
      test_member_write_through_const_struct;
    Alcotest.test_case "4.2: typedefs share nothing" `Quick
      test_typedef_no_sharing;
    Alcotest.test_case "4.2: library const param safe" `Quick
      test_library_const_param_safe;
    Alcotest.test_case "4.2: library non-const param forces" `Quick
      test_library_nonconst_param_forces;
    Alcotest.test_case "undeclared function forces" `Quick
      test_undeclared_function_forces;
    Alcotest.test_case "4.2: varargs extras ignored" `Quick
      test_varargs_extra_args_ignored;
    Alcotest.test_case "library results fresh per call" `Quick
      test_library_result_fresh_per_call;
    Alcotest.test_case "4.2: casts lose the association" `Quick
      test_cast_loses_association;
    Alcotest.test_case "void* erases structure" `Quick test_void_star_erases;
    Alcotest.test_case "mono conflates call sites" `Quick test_mono_conflates;
    Alcotest.test_case "4.3: poly separates call sites" `Quick
      test_poly_separates;
    Alcotest.test_case "4.4: poly counts more consts" `Quick
      test_poly_counts_more;
    Alcotest.test_case "poly still catches per-instance flows" `Quick
      test_poly_still_sound;
    Alcotest.test_case "mutual recursion analyzed" `Quick
      test_mutual_recursion;
    Alcotest.test_case "recursion mono inside, poly outside" `Quick
      test_recursive_poly;
    Alcotest.test_case "4.3: globals stay monomorphic" `Quick
      test_globals_monomorphic;
    Alcotest.test_case "FDG reverse topological order" `Quick test_fdg_order;
    Alcotest.test_case "FDG SCCs (Definition 4)" `Quick test_fdg_scc;
    Alcotest.test_case "FDG counts function-pointer mentions" `Quick
      test_fdg_function_pointer_mention;
    Alcotest.test_case "call through function pointer" `Quick
      test_function_pointer_call;
    Alcotest.test_case "global initializer flow" `Quick test_global_init_flow;
    Alcotest.test_case "library functions contribute no positions" `Quick
      test_no_positions_for_library;
    Alcotest.test_case "array parameters decay" `Quick test_array_param_decays;
    Alcotest.test_case "string literal into const char*" `Quick
      test_string_into_const;
  ]

(* ---------------- polymorphic recursion (extension) ---------------- *)

(* m1 and m2 are mutually recursive; m1 writes through the result of its
   in-SCC call to m2. Per-SCC let-polymorphism (plain Poly) is monomorphic
   *inside* the SCC, so the write poisons m2's parameter in the scheme and
   every external caller inherits it. Polymorphic recursion instantiates
   even the in-SCC call, so only m1's instance is poisoned. *)
let polyrec_src =
  "char *m2(char *s, int n);\n\
   int m1(char *q, int n) {\n\
   char buf[4];\n\
   char *p;\n\
   p = m2(buf, n);\n\
   *p = 'x';\n\
   if (n) return m1(q, n - 1);\n\
   return 0;\n\
   }\n\
   char *m2(char *s, int n) { if (n > 5) m1(s, 0); return s; }\n\
   int reader(char *msg) { char *t; t = m2(msg, 0); return *t; }"

let test_polyrec_beats_poly () =
  check_verdict ~mode:Analysis.Poly polyrec_src "reader" (`Param 0) 1
    Report.Must_not_const;
  check_verdict ~mode:Analysis.Polyrec polyrec_src "reader" (`Param 0) 1
    Report.Either;
  (* and it is still sound: the buffer m1 writes through stays poisoned *)
  check_verdict ~mode:Analysis.Polyrec polyrec_src "m2" (`Param 0) 1
    Report.Either

let test_polyrec_sound_on_self_recursion () =
  let src =
    "char *skip(char *s, int n) { if (n == 0) return s; return skip(s + 1, n - 1); }\n\
     void writer(void) { char b[4]; char *p; p = skip(b, 1); *p = 'x'; }\n\
     int reader(char *m) { return *(skip(m, 2)); }"
  in
  check_verdict ~mode:Analysis.Polyrec src "reader" (`Param 0) 1 Report.Either;
  (* per-instance flows still caught *)
  let bad =
    "char *skip(char *s, int n) { if (n == 0) return s; return skip(s + 1, n - 1); }\n\
     void w(char *msg) { char *p; p = skip(msg, 1); *p = 'x'; }"
  in
  check_verdict ~mode:Analysis.Polyrec bad "w" (`Param 0) 1
    Report.Must_not_const

let test_polyrec_at_least_poly () =
  (* polymorphic recursion never allows fewer consts than let-polymorphism *)
  List.iter
    (fun (_, src) ->
      let p = results ~mode:Analysis.Poly src in
      let pr = results ~mode:Analysis.Polyrec src in
      Alcotest.(check int) "no new errors" p.Report.type_errors
        pr.Report.type_errors;
      Alcotest.(check bool) "polyrec >= poly" true
        (pr.Report.possible >= p.Report.possible);
      Alcotest.(check int) "same total" p.Report.total pr.Report.total)
    Cbench.Programs.all

let test_polyrec_converges_on_suite () =
  let src = Cbench.Gen.generate ~seed:5 ~target_lines:800 () in
  let p = results ~mode:Analysis.Poly src in
  let pr = results ~mode:Analysis.Polyrec src in
  Alcotest.(check int) "no errors" 0 pr.Report.type_errors;
  Alcotest.(check bool) "polyrec >= poly" true
    (pr.Report.possible >= p.Report.possible)

let polyrec_tests =
  [
    Alcotest.test_case "polyrec separates in-SCC call sites" `Quick
      test_polyrec_beats_poly;
    Alcotest.test_case "polyrec sound on self recursion" `Quick
      test_polyrec_sound_on_self_recursion;
    Alcotest.test_case "polyrec >= poly on embedded programs" `Quick
      test_polyrec_at_least_poly;
    Alcotest.test_case "polyrec converges on generated code" `Quick
      test_polyrec_converges_on_suite;
  ]

let tests = tests @ polyrec_tests

(* ---------------- C taint analysis ($-qualifiers, Section 2.5) ------- *)

let taint ?(mode = Analysis.Mono) src =
  (run ~mode ~rules:Analysis.taint_rules src).Session.results

let test_taint_source_to_sink () =
  (* format-string-bug shape: network data reaches a trusted sink *)
  let bad =
    "$tainted char *read_net(char *buf);\n\
     int run_cmd($untainted const char *cmd);\n\
     void handler(char *b) { char *s; s = read_net(b); run_cmd(s); }"
  in
  Alcotest.(check bool) "flagged" true
    ((taint bad).Report.type_errors > 0);
  let good =
    "$tainted char *read_net(char *buf);\n\
     int run_cmd($untainted const char *cmd);\n\
     void handler(char *b) { char *s; s = read_net(b); run_cmd(\"ls\"); }"
  in
  Alcotest.(check int) "clean program passes" 0
    (taint good).Report.type_errors

let test_taint_through_defined_functions () =
  (* taint tracked through ordinary code, including a logging helper *)
  let bad =
    "$tainted char *read_net(char *buf);\n\
     int run_cmd($untainted const char *cmd);\n\
     char *pick(char *a) { return a; }\n\
     void handler(char *b) { char *s; s = pick(read_net(b)); run_cmd(s); }"
  in
  Alcotest.(check bool) "flow through helper flagged" true
    ((taint bad).Report.type_errors > 0)

let test_taint_defined_sink () =
  let bad =
    "$tainted char *read_net(char *buf);\n\
     void exec_trusted($untainted char *cmd) { }\n\
     void handler(char *b) { exec_trusted(read_net(b)); }"
  in
  Alcotest.(check bool) "defined sink flagged" true
    ((taint bad).Report.type_errors > 0)

let test_taint_poly_separates () =
  (* one helper used with both tainted and untainted data: poly keeps the
     trusted path clean, mono poisons it *)
  let src =
    "$tainted char *read_net(char *buf);\n\
     int run_cmd($untainted const char *cmd);\n\
     char *pick(char *a) { return a; }\n\
     void audit(char *b) { char *t; t = pick(read_net(b)); }\n\
     void act(char *safe) { run_cmd(pick(safe)); }"
  in
  Alcotest.(check bool) "mono conflates" true
    ((taint ~mode:Analysis.Mono src).Report.type_errors > 0);
  Alcotest.(check int) "poly separates" 0
    (taint ~mode:Analysis.Poly src).Report.type_errors

let test_taint_report_counts () =
  let src =
    "$tainted char *read_net(char *buf);\n\
     int handle(char *input) { char *s; s = read_net(input); return *s; }"
  in
  let r = taint src in
  (* handle's parameter could be tainted or not: Either on 'tainted' *)
  Alcotest.(check int) "no errors" 0 r.Report.type_errors;
  Alcotest.(check bool) "positions reported" true (r.Report.total >= 1)

let taint_tests =
  [
    Alcotest.test_case "taint: source to sink flagged" `Quick
      test_taint_source_to_sink;
    Alcotest.test_case "taint: flows through defined code" `Quick
      test_taint_through_defined_functions;
    Alcotest.test_case "taint: defined sinks" `Quick test_taint_defined_sink;
    Alcotest.test_case "taint: polymorphism separates helpers" `Quick
      test_taint_poly_separates;
    Alcotest.test_case "taint: reporting" `Quick test_taint_report_counts;
  ]

let tests = tests @ taint_tests

(* ---------------- robustness over generated benchmarks --------------- *)

let test_generated_seeds_clean () =
  (* the generator must emit parseable, type-correct C across seeds, and
     every mode must agree on totals with no type errors *)
  List.iter
    (fun seed ->
      let src = Cbench.Gen.generate ~seed ~target_lines:350 () in
      let m = results ~mode:Analysis.Mono src in
      let p = results ~mode:Analysis.Poly src in
      let pr = results ~mode:Analysis.Polyrec src in
      Alcotest.(check int) (Printf.sprintf "seed %d mono errors" seed) 0
        m.Report.type_errors;
      Alcotest.(check int) (Printf.sprintf "seed %d poly errors" seed) 0
        p.Report.type_errors;
      Alcotest.(check int) (Printf.sprintf "seed %d polyrec errors" seed) 0
        pr.Report.type_errors;
      Alcotest.(check int) "totals agree (m=p)" m.Report.total p.Report.total;
      Alcotest.(check int) "totals agree (p=pr)" p.Report.total
        pr.Report.total;
      Alcotest.(check bool) "ordering" true
        (m.Report.declared <= m.Report.possible
        && m.Report.possible <= p.Report.possible
        && p.Report.possible <= pr.Report.possible
        && pr.Report.possible <= pr.Report.total))
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]

(* ---------------- more C patterns ---------------- *)

let test_deep_pointer_const () =
  (* three levels; middle level declared const *)
  let src = "int f(int * const **ppp) { return ***ppp; }" in
  let r = results src in
  Alcotest.(check int) "three positions" 3 r.Report.total;
  (* declared const at level 2 (the target of the level-1 ref is an
     int * const) *)
  Alcotest.(check int) "one declared" 1 r.Report.declared

let test_callback_table () =
  (* a struct of function pointers: calls through fields link correctly *)
  let src =
    "struct ops { void (*write)(char *dst); int (*read)(const char *src); };\n\
     void dispatch(struct ops *o, char *buf) {\n\
     o->write(buf);\n\
     o->read(buf);\n\
     }\n\
     void wr(char *d) { *d = 'x'; }\n\
     void install(struct ops *o) { o->write = wr; }"
  in
  (* buf is passed to the write callback whose canonical implementation
     writes: through the shared field signature, buf must be non-const *)
  check_verdict src "dispatch" (`Param 1) 1 Report.Must_not_const

let test_cond_pointer_merge () =
  let src =
    "char *sel(int c, char *a, char *b) { return c ? a : b; }\n\
     void w(char *x, char *y) { char *p; p = sel(1, x, y); *p = 'q'; }"
  in
  (* the write through the merged pointer reaches both inputs *)
  check_verdict src "w" (`Param 0) 1 Report.Must_not_const;
  check_verdict src "w" (`Param 1) 1 Report.Must_not_const

let test_global_array_of_structs () =
  let src =
    "struct e { char *name; };\n\
     struct e table[4];\n\
     void init(char *n) { table[0].name = n; *(table[1].name) = 'x'; }"
  in
  (* writing through entry 1's name forces the shared field target, which
     n flows into via entry 0 *)
  check_verdict src "init" (`Param 0) 1 Report.Must_not_const

let test_self_assign_and_arith () =
  let src = "void f(char *p, int n) { p = p + n; p++; *p = 1; }" in
  let r = results src in
  Alcotest.(check int) "no errors" 0 r.Report.type_errors;
  check_verdict src "f" (`Param 0) 1 Report.Must_not_const

let test_string_literal_write () =
  (* C89 string literals are plain char[]; writing through is accepted by
     the type system (it is a runtime error, not a type error) *)
  let src = "void f(void) { char *s = \"hi\"; *s = 'H'; }" in
  Alcotest.(check int) "accepted" 0 (results src).Report.type_errors

let test_void_function_pointer_roundtrip () =
  let src =
    "void *stash;\n\
     void put(char *p) { stash = p; }\n\
     char *get(void) { return (char *)stash; }\n\
     void use(void) { char *q = get(); *q = 'x'; }"
  in
  (* the void* laundering loses the flow — documented information loss *)
  Alcotest.(check int) "no errors" 0 (results src).Report.type_errors

let more_cqual_tests =
  [
    Alcotest.test_case "generated benchmarks clean across seeds" `Slow
      test_generated_seeds_clean;
    Alcotest.test_case "deep pointer const levels" `Quick
      test_deep_pointer_const;
    Alcotest.test_case "callback tables" `Quick test_callback_table;
    Alcotest.test_case "?: pointer merge" `Quick test_cond_pointer_merge;
    Alcotest.test_case "global array of structs" `Quick
      test_global_array_of_structs;
    Alcotest.test_case "pointer arithmetic and self-assignment" `Quick
      test_self_assign_and_arith;
    Alcotest.test_case "string literal writes (C89)" `Quick
      test_string_literal_write;
    Alcotest.test_case "void* roundtrip loses flow" `Quick
      test_void_function_pointer_roundtrip;
  ]

let tests = tests @ more_cqual_tests

(* ---------------- embedded program corpus ---------------- *)

let test_embedded_programs_clean () =
  (* every embedded program is correct C: no type errors in any mode, and
     the invariant chain declared <= mono <= poly <= polyrec <= total *)
  List.iter
    (fun (name, src) ->
      let m = results ~mode:Analysis.Mono src in
      let p = results ~mode:Analysis.Poly src in
      let pr = results ~mode:Analysis.Polyrec src in
      Alcotest.(check int) (name ^ " mono errors") 0 m.Report.type_errors;
      Alcotest.(check int) (name ^ " poly errors") 0 p.Report.type_errors;
      Alcotest.(check int) (name ^ " polyrec errors") 0 pr.Report.type_errors;
      Alcotest.(check bool) (name ^ " ordering") true
        (m.Report.declared <= m.Report.possible
        && m.Report.possible <= p.Report.possible
        && p.Report.possible <= pr.Report.possible
        && pr.Report.possible <= m.Report.total))
    Cbench.Programs.all

let test_minilist_verdicts () =
  let src = List.assoc "minilist" Cbench.Programs.all in
  (* insert_sorted rewires tails: its list parameters can never be const *)
  check_verdict src "insert_sorted" (`Param 0) 1 Report.Must_not_const;
  check_verdict src "insert_sorted" (`Param 1) 1 Report.Must_not_const;
  (* sum only reads, but the shared 'tail' field aliasing in mono poisons
     nothing: its parameter stays possible under poly *)
  let v = verdict_of ~mode:Analysis.Poly src "sum" (`Param 0) 1 in
  Alcotest.(check bool) "sum readable" true (v <> Report.Must_not_const)

let test_miniconf_verdicts () =
  let src = List.assoc "miniconf" Cbench.Programs.all in
  check_verdict src "skip_ws" (`Param 0) 1 Report.Must_const;
  check_verdict src "copy_until" (`Param 0) 1 Report.Must_not_const;
  check_verdict src "copy_until" (`Param 1) 1 Report.Must_const

let embedded_tests =
  [
    Alcotest.test_case "embedded corpus clean in all modes" `Quick
      test_embedded_programs_clean;
    Alcotest.test_case "minilist verdicts" `Quick test_minilist_verdicts;
    Alcotest.test_case "miniconf verdicts" `Quick test_miniconf_verdicts;
  ]

let tests = tests @ embedded_tests

(* ---------------- Table 2's count relations (Section 4.4) ---------------- *)

(* The relations the paper's Table 2 shows, on the synthetic stand-ins of
   its six programs: the absolute counts differ from the paper's, the
   relations must not. [bench/main.exe table2] prints the same checks
   beside its timings; "poly time <= 3x mono time" stays printed only. *)
let test_table2_relations () =
  let rows =
    List.map
      (fun (b : Cbench.Suite.bench) ->
        let src = Cbench.Suite.source_of b in
        (b.b_name, results ~mode:Analysis.Mono src,
         results ~mode:Analysis.Poly src))
      Cbench.Suite.table1
  in
  List.iter
    (fun (name, (m : Report.results), (p : Report.results)) ->
      let declared = m.declared and mono = m.possible and poly = p.possible in
      Alcotest.(check bool) (name ^ ": declared < mono <= poly <= total") true
        (declared < mono && mono <= poly && poly <= m.total);
      let ratio = float poly /. float mono in
      Alcotest.(check bool)
        (Printf.sprintf "%s: poly/mono %.2f in [1.0, 1.25]" name ratio)
        true
        (ratio >= 1.0 && ratio <= 1.25);
      Alcotest.(check int) (name ^ ": no type errors") 0
        (m.type_errors + p.type_errors))
    rows;
  let _, m, p = List.find (fun (n, _, _) -> n = "uucp-1.04-sim") rows in
  let r = float p.Report.possible /. float m.Report.declared in
  Alcotest.(check bool) (Printf.sprintf "uucp: poly/declared %.2f >= 2" r) true
    (r >= 2.)

let tests =
  tests
  @ [ Alcotest.test_case "Table 2 count relations" `Quick test_table2_relations ]
