(* Flow-sensitive qualifiers (Section 6, "Future Work") on mini-C.

   The paper's framework keeps one type per location; its future-work
   section sketches flow-sensitivity: one qualifier variable per location
   per program point, with subtyping constraints along control flow and
   NO constraint across strong updates. This example contrasts the two on
   a taint-tracking workload.

   Run with: dune exec examples/flow_sensitive.exe *)

open Cqual

let show title src =
  Fmt.pr "@.== %s ==@.%s@." title src;
  let run mode =
    match Flow.analyze_source ~mode src with
    | Ok r -> r.Flow.errors
    | Error diags ->
        List.map (fun d -> "parse error: " ^ Cfront.Diag.to_string d) diags
  in
  let sens = run Flow.Sensitive and insens = run Flow.Insensitive in
  Fmt.pr "  flow-insensitive: %s@."
    (match insens with [] -> "safe" | e :: _ -> "FLAGGED — " ^ e);
  Fmt.pr "  flow-sensitive:   %s@."
    (match sens with [] -> "safe" | e :: _ -> "FLAGGED — " ^ e)

let prelude =
  "$tainted int read_input(void);\nvoid run_query($untainted int q);\n"

let () =
  Fmt.pr "flow-sensitive type qualifiers (Section 6 extension)@.";
  Fmt.pr
    "sources: $tainted prototypes; sinks: $untainted parameters (the@.\
     Section 2.5 $-qualifier syntax)@.";

  show "a strong update launders the past"
    (prelude
   ^ "void f(void) {\n\
     \  int q = read_input();   /* q tainted */\n\
     \  q = 42;                 /* strong update: severed from the past */\n\
     \  run_query(q);           /* fine — but flow-INSENSITIVE flags it */\n\
      }");

  show "a real bug is flagged by both"
    (prelude
   ^ "void g(void) {\n\
     \  int q = read_input();\n\
     \  run_query(q);\n\
      }");

  show "joins: one tainted branch taints the merge"
    (prelude
   ^ "void h(int c) {\n\
     \  int q = 0;\n\
     \  if (c) { q = read_input(); }\n\
     \  run_query(q);\n\
      }");

  show "loops: taint arrives via the back edge"
    (prelude
   ^ "void k(int n) {\n\
     \  int q = 0;\n\
     \  while (n--) {\n\
     \    run_query(q);          /* tainted from the 2nd iteration on */\n\
     \    q = read_input();\n\
     \  }\n\
      }");

  show "address-taken locals only get weak updates"
    (prelude
   ^ "void scan(int *p);\n\
      void m(void) {\n\
     \  int q = read_input();\n\
     \  scan(&q);               /* q's address escapes */\n\
     \  q = 1;                  /* weak: cannot launder */\n\
     \  run_query(q);\n\
      }");

  Fmt.pr
    "@.(loops need no fixpoint iteration here: the back edge is just one \
     more constraint, and the solver already computes fixed points over \
     cyclic constraint graphs.)@."
