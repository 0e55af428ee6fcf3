(* Shorthands over the one analysis API for the suites that test a single
   C source: a one-unit Session, used once, exactly as [cqualc file.c]
   runs it. *)

open Cqual

let run_source ?rules ?field_sharing ?budget ?jobs ?max_errors ~mode src =
  Session.run_sources ?rules ~mode ?field_sharing ?budget ?jobs ?max_errors
    [ ("<input>", src) ]

(* the linked program of one source, for suites that drive
   [Analysis.run] directly *)
let compile src = Session.program (Session.create [ ("<input>", src) ])

(* the recovering parse of one source on its own: the program plus every
   diagnostic, up to [max_errors] (an E0299 note marks the cutoff) *)
let parse_partial ?(max_errors = 20) src : Cfront.Cparse.presult =
  let tb, lex_diags = Cfront.Clexer.tokenize_buf ~max_errors src in
  (Cfront.Cparse.parse_unit ~max_errors tb ~lex_diags).Cfront.Cparse.ur_pr

(* What a whatif means by definition, the oracle of [Session.whatif]:
   analyze the session's program afresh, then for every position clone
   the solved store, add [qual] there as a constant lower bound, re-solve
   and re-classify every position. Built from public Solver calls only
   ([export], [absorb], [add_leq_cv], [solve], [classify_name],
   [last_errors]). Per position, in report order: the ordinals whose
   verdict moved (with before and after verdicts) and the error counts
   before and after. *)
let whatif_by_resolve ?rules ~mode ~qual session :
    ((int * Report.verdict * Report.verdict) list * int * int) array =
  let module S = Typequal.Solver in
  let module E = Typequal.Lattice.Elt in
  let env, ifaces =
    Analysis.run ?rules ~jobs:1 mode (Session.program session)
  in
  let _, rows = Report.measure_full env ifaces in
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
  let batch = S.export store in
  Array.map
    (fun v0 ->
      let clone = S.create sp in
      let rename = S.absorb clone batch in
      let tr v = Option.value (rename v) ~default:v in
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
