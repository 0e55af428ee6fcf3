(* Tests for flow-sensitive qualifiers (Section 6, Future Work): strong
   updates, joins, loop back edges, weak updates for address-taken locals,
   and the comparison against the flow-insensitive baseline. *)

open Cqual

let prelude =
  "$tainted int read_input(void);\n\
   void use($untainted int x);\n"

let analyze ?mode body =
  match Flow.analyze_source ?mode (prelude ^ body) with
  | Ok r -> r
  | Error diags ->
      Alcotest.failf "parse error: %s"
        (String.concat "; " (List.map Cfront.Diag.to_string diags))

let flags ?mode body = (analyze ?mode body).Flow.errors <> []

let check_safe ?mode body =
  let r = analyze ?mode body in
  if r.Flow.errors <> [] then
    Alcotest.failf "expected safe, got: %s" (List.hd r.Flow.errors)

let check_flagged ?mode body =
  if not (flags ?mode body) then Alcotest.failf "expected flagged:\n%s" body

let test_direct_flow () =
  check_flagged "void f(void) { int a = read_input(); use(a); }";
  check_safe "void f(void) { int a = 5; use(a); }"

let test_strong_update () =
  (* the motivating case: a is overwritten with a clean value before the
     sink — flow-sensitive accepts, flow-insensitive flags *)
  let body =
    "void f(void) { int a = read_input(); a = 7; use(a); }"
  in
  check_safe ~mode:Flow.Sensitive body;
  check_flagged ~mode:Flow.Insensitive body

let test_update_other_direction () =
  (* overwriting with taint after the sink is fine in order, flagged when
     the order is reversed *)
  check_safe "void f(void) { int a = 1; use(a); a = read_input(); }";
  check_flagged "void f(void) { int a = 1; a = read_input(); use(a); }"

let test_if_join () =
  check_flagged
    "void f(int c) { int a = 0; if (c) { a = read_input(); } use(a); }";
  check_safe
    "void f(int c) { int a = 0; if (c) { a = read_input(); } a = 1; use(a); }";
  (* both branches clean *)
  check_safe
    "void f(int c) { int a = read_input(); if (c) { a = 1; } else { a = 2; } use(a); }"

let test_loop_back_edge () =
  (* taint enters on the second iteration through the back edge *)
  check_flagged
    "void f(int n) { int a = 0; while (n) { use(a); a = read_input(); n--; } }";
  (* cleaned at the top of every iteration *)
  check_safe
    "void f(int n) { int a = read_input(); while (n) { a = 1; use(a); n--; } }";
  (* after the loop the head state holds *)
  check_flagged
    "void f(int n) { int a = 0; while (n) { a = read_input(); n--; } use(a); }"

let test_for_loop () =
  check_safe
    "void f(int n) { int i; int a = read_input(); for (i = 0; i < n; i++) { a = i; use(a); } }";
  check_flagged
    "void f(int n) { int i; int a = 0; for (i = 0; i < n; i++) { use(a); a = read_input(); } }"

let test_break_states_join_exit () =
  (* a breaks out while tainted; the exit join must include it *)
  check_flagged
    "void f(int n) {\n\
     int a = 0;\n\
     while (1) { if (n) { a = read_input(); break; } a = 1; n--; }\n\
     use(a);\n\
     }"

let test_do_while () =
  check_flagged
    "void f(int n) { int a = 0; do { use(a); a = read_input(); } while (n--); }"

let test_address_taken_weak () =
  (* &a escapes: assignments to a are weak, so the overwrite does not
     launder *)
  check_flagged
    "void g(int *p);\n\
     void f(void) { int a = read_input(); g(&a); a = 7; use(a); }"

let test_switch_join () =
  check_flagged
    "void f(int c) {\n\
     int a = 0;\n\
     switch (c) { case 1: a = read_input(); break; case 2: a = 1; break; }\n\
     use(a);\n\
     }"

let test_goto_fallback () =
  (* goto forces the function to flow-insensitive mode: the strong update
     no longer launders, and the fallback is reported *)
  let body =
    "void f(int c) {\n\
     int a = read_input();\n\
     if (c) goto out;\n\
     a = 7;\n\
     out:\n\
     use(a);\n\
     }"
  in
  check_flagged ~mode:Flow.Sensitive body;
  let r = analyze ~mode:Flow.Sensitive body in
  Alcotest.(check bool) "fallback reported" true
    (List.exists (fun fr -> fr.Flow.fr_fell_back) r.Flow.functions)

let test_param_annotations () =
  check_flagged "void f($tainted int x) { use(x); }";
  check_safe "void f(int x) { use(x); }";
  (* an $untainted parameter is a sink declaration on the callee side *)
  check_flagged "void g($untainted int y) { } void f(void) { g(read_input()); }"

let test_expression_taint () =
  check_flagged "void f(void) { use(read_input() + 1); }";
  check_flagged "void f(int c) { use(c ? read_input() : 0); }";
  check_safe "void f(int c) { int t = read_input(); use(c ? 1 : 0); }";
  check_flagged "void f(void) { int a = 1; a += read_input(); use(a); }"

let test_sensitive_never_worse () =
  (* anything safe flow-insensitively is safe flow-sensitively *)
  List.iter
    (fun body ->
      if not (flags ~mode:Flow.Insensitive body) then
        Alcotest.(check bool) body false (flags ~mode:Flow.Sensitive body))
    [
      "void f(void) { int a = 5; use(a); }";
      "void f(int n) { int a = 0; while (n--) { a = a + 1; } use(a); }";
      "void f(void) { int t = read_input(); int u = t + 1; use(3); }";
    ]

(* A project's units are linked as every analysis links them: a
   prototype or definition of one unit is seen by the others, a name
   defined twice means its last definition, and the violations are those
   of the units' concatenation. Here [sink] is a sink only by b.c's
   definition, and [fetch] a source only by a.c's. *)
let test_units_equal_concatenation () =
  let a =
    "$tainted int read_input(void);\n\
     void sink(int y) { }\n\
     $tainted int fetch(void) { return read_input(); }\n\
     void f(void) { sink(read_input()); }\n"
  and b =
    "void sink($untainted int y) { }\n\
     void g(void) { int v = fetch(); v = v + 1; sink(v); }\n\
     void h(int c) { int d = fetch(); if (c) { d = 0; } else { d = 1; } sink(d); }\n"
  in
  let result = function
    | Ok (r : Flow.result) ->
        (r.Flow.errors, List.map (fun fr -> (fr.Flow.fr_name, fr.Flow.fr_fell_back)) r.Flow.functions)
    | Error diags ->
        Alcotest.failf "parse error: %s" (String.concat "; " (List.map Cfront.Diag.to_string diags))
  in
  List.iter
    (fun (mode, violations) ->
      let linked = result (Flow.analyze_units ~mode [ ("a.c", a); ("b.c", b) ]) in
      let whole = result (Flow.analyze_source ~mode (a ^ b)) in
      Alcotest.(check int) "violations" violations (List.length (fst linked));
      Alcotest.(check (pair (list string) (list (pair string bool))))
        "linked units = their concatenation" whole linked)
    (* f and g; flow-insensitively h too *)
    [ (Flow.Sensitive, 2); (Flow.Insensitive, 3) ]

let tests =
  [
    Alcotest.test_case "direct source-to-sink" `Quick test_direct_flow;
    Alcotest.test_case "strong update launders" `Quick test_strong_update;
    Alcotest.test_case "statement order matters" `Quick
      test_update_other_direction;
    Alcotest.test_case "if joins" `Quick test_if_join;
    Alcotest.test_case "loop back edges" `Quick test_loop_back_edge;
    Alcotest.test_case "for loops" `Quick test_for_loop;
    Alcotest.test_case "break states join the exit" `Quick
      test_break_states_join_exit;
    Alcotest.test_case "do-while" `Quick test_do_while;
    Alcotest.test_case "address-taken locals are weak" `Quick
      test_address_taken_weak;
    Alcotest.test_case "switch joins" `Quick test_switch_join;
    Alcotest.test_case "goto falls back, reported" `Quick test_goto_fallback;
    Alcotest.test_case "parameter annotations" `Quick test_param_annotations;
    Alcotest.test_case "expression taint" `Quick test_expression_taint;
    Alcotest.test_case "sensitive never worse than insensitive" `Quick
      test_sensitive_never_worse;
    Alcotest.test_case "linked units = their concatenation" `Quick
      test_units_equal_concatenation;
  ]
