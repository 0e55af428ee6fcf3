(* Shorthands over the one analysis API for the suites that test a single
   C source: a one-unit Session, used once, exactly as [cqualc file.c]
   runs it. *)

open Cqual

let run_source ?rules ?budget ?jobs ?max_errors ~mode src =
  Session.run_sources ?rules ~mode ?budget ?jobs ?max_errors
    [ ("<input>", src) ]

(* the linked program of one source, for suites that drive
   [Analysis.run] directly *)
let compile src = Session.program (Session.create [ ("<input>", src) ])

(* the recovering parse of one source on its own: the program plus every
   diagnostic, up to [max_errors] (an E0299 note marks the cutoff) *)
let parse_partial ?(max_errors = 20) src : Cfront.Cparse.presult =
  let tb, lex_diags = Cfront.Clexer.tokenize_buf ~max_errors src in
  (Cfront.Cparse.parse_unit ~max_errors tb ~lex_diags).Cfront.Cparse.ur_pr

(* Everything observable from a run, rendered to a string: per-position
   verdicts, counts, warnings, per-function outcomes, and the solver's
   structural counters. Wall-clock fields are excluded. *)
let digest (r : Session.run) : string =
  let b = Buffer.create 1024 in
  let res = r.Session.results in
  List.iter
    (fun pv -> Buffer.add_string b (Fmt.str "%a\n" Report.pp_position pv))
    res.Report.positions;
  Buffer.add_string b
    (Printf.sprintf "declared=%d possible=%d must=%d total=%d errors=%d\n"
       res.Report.declared res.Report.possible res.Report.must
       res.Report.total res.Report.type_errors);
  List.iter (fun w -> Buffer.add_string b ("warning " ^ w ^ "\n")) res.Report.warnings;
  List.iter
    (fun (f, o) ->
      Buffer.add_string b
        (match o with
        | Analysis.Analyzed -> "analyzed " ^ f ^ "\n"
        | Analysis.Degraded why -> "degraded " ^ f ^ ": " ^ why ^ "\n"))
    res.Report.outcomes;
  let st = r.Session.solver_stats in
  let module S = Typequal.Solver in
  Buffer.add_string b
    (Printf.sprintf "vars=%d edges=%d deduped=%d pops=%d\n" st.S.vars_created
       st.S.edges_added st.S.edges_deduped st.S.worklist_pops);
  Buffer.contents b

(* What a whatif means by definition, the oracle of [Session.whatif]:
   analyze the session's program afresh, then for every position copy
   the solved store's atom log into a fresh store, add [qual] there as a
   constant lower bound, re-solve and re-classify every position. Built
   from public Solver calls only ([atoms], [fresh], [add_leq_*],
   [solve], [classify_name], [last_errors]). Per position, in report order: the ordinals whose
   verdict moved (with before and after verdicts) and the error counts
   before and after. *)
let whatif_by_resolve ?rules ~mode ~qual session :
    ((int * Report.verdict * Report.verdict) list * int * int) array =
  let module S = Typequal.Solver in
  let module E = Typequal.Lattice.Elt in
  let env, _ = Analysis.run ?rules mode (Session.program session) in
  let _, rows = Report.measure_indexed env in
  let store = env.Analysis.store in
  let sp = S.space store in
  let vars = Array.map (fun r -> r.Report.r_var) rows.Report.in_order in
  let verdict s v =
    match S.classify_name s v qual with
    | S.Forced_up -> Report.Must_const
    | S.Forced_down -> Report.Must_not_const
    | S.Free -> Report.Either
  in
  let before = Array.map (verdict store) vars in
  let errors_before = List.length (S.last_errors store) in
  let atoms = S.atoms store in
  Array.map
    (fun v0 ->
      (* the clone's variables in creation order, so ids carry over *)
      let clone = S.create sp in
      let copy = Array.init (S.num_vars store) (fun _ -> S.fresh clone) in
      let tr v = copy.(S.var_id v) in
      List.iter
        (function
          | S.Avc (v, c, mask, reason) -> S.add_leq_vc ?reason ~mask clone (tr v) c
          | S.Acv (c, v, mask, reason) -> S.add_leq_cv ?reason ~mask clone c (tr v)
          | S.Avv (a, b, mask, reason) ->
              S.add_leq_vv ?reason ~mask clone (tr a) (tr b))
        atoms;
      S.add_leq_cv ~mask:(E.mask_of_names sp [ qual ]) clone
        (E.of_names_up sp [ qual ]) (tr v0);
      ignore (S.solve clone : (unit, S.error list) result);
      let moved = ref [] in
      for n = Array.length vars - 1 downto 0 do
        let after = verdict clone (tr vars.(n)) in
        if after <> before.(n) then moved := (n, before.(n), after) :: !moved
      done;
      (!moved, errors_before, List.length (S.last_errors clone)))
    vars
