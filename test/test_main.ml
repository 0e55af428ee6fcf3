(* Suite names stay within ten characters: alcotest pads every suite name
   to the longest one and cuts test names to the width that is left, so a
   longer suite name would change how every long test name prints. *)
let () =
  Alcotest.run "typequal"
    [
      ("lattice", Test_lattice.tests);
      ("solver", Test_solver.tests);
      ("arena", Test_arena.tests);
      ("lambda", Test_lambda.tests);
      ("cfront", Test_cfront.tests);
      ("resilience", Test_resilience.tests);
      ("cqual", Test_cqual.tests);
      ("parallel", Test_parallel.tests);
      ("frontend", Test_frontend.tests);
      ("cache", Test_cache.tests);
      ("session", Test_session.tests);
      ("incr", Test_incremental.tests);
      ("compact", Test_compact.tests);
      ("eval", Test_eval.tests);
      ("flow", Test_flow.tests);
      ("properties", Test_props.tests);
    ]
