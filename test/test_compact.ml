(* Scheme compaction (Solver.compact): observational equivalence on the
   interface, error preservation, and the memo-eligibility predicate.

   The property tests build random masked constraint systems over a
   scratch store, designate a subset of the variables as scheme locals and
   a subset of those as the interface, compact, and then compare the
   original and compacted systems as constraint sets: least/greatest
   solutions must agree exactly on every observable variable (interface
   members and free variables), and the set of bound-violating variables
   must be preserved exactly. A second pass replays both systems through
   real stores (exercising dedup and propagation) and
   compares store solutions. *)

open Typequal
module Sp = Lattice.Space
module E = Lattice.Elt
module S = Solver

let space () = Sp.create [ Qualifier.const; Qualifier.nonzero ]
let const_elt sp = E.of_names_up sp [ "const" ]

(* ------------------------------------------------------------------ *)
(* Deterministic units                                                 *)
(* ------------------------------------------------------------------ *)

(* const <= a <= b <= c with b internal: b disappears, the flow a -> c
   survives as a composed edge, and solutions on a, c are unchanged. *)
let test_chain_elimination () =
  let sp = space () in
  let st = S.create sp in
  let a = S.fresh ~name:"a" st
  and b = S.fresh ~name:"b" st
  and c = S.fresh ~name:"c" st in
  let atoms =
    [
      S.Acv (const_elt sp, a, E.full_mask sp, None);
      S.Avv (a, b, E.full_mask sp, None);
      S.Avv (b, c, E.full_mask sp, None);
    ]
  in
  let s = S.make_scheme ~locals:[ a; b; c ] ~atoms in
  let s' = S.compact st ~interface:[ a; c ] s in
  Alcotest.(check int) "internal eliminated" 2
    (List.length (S.scheme_locals s'));
  let f = S.solve_atoms sp (S.scheme_atoms s') in
  let fo = S.solve_atoms sp atoms in
  List.iter
    (fun v ->
      let lo, hi = f (S.var_id v) and lo', hi' = fo (S.var_id v) in
      Alcotest.(check bool) "lo preserved" true (E.equal lo lo');
      Alcotest.(check bool) "hi preserved" true (E.equal hi hi'))
    [ a; c ]

(* An internal variable with inconsistent constant bounds carries the
   scheme's error: it must survive compaction, and instantiating the
   compacted scheme must still fail. *)
let test_inconsistent_internal_kept () =
  let sp = space () in
  let st = S.create sp in
  let a = S.fresh ~name:"a" st and v = S.fresh ~name:"v" st in
  let atoms =
    [
      S.Acv (const_elt sp, v, E.full_mask sp, None);
      S.Avc (v, E.not_name sp "const", E.full_mask sp, None);
    ]
  in
  let s = S.make_scheme ~locals:[ a; v ] ~atoms in
  let s' = S.compact st ~interface:[ a ] s in
  let (_rn : S.var -> S.var) = S.instantiate st s' in
  Alcotest.(check bool) "instance still unsat" true
    (Result.is_error (S.solve st))

(* Interface variables survive even when unconstrained: they occur in the
   generalized type and must freshen per instance. *)
let test_interface_kept_unconstrained () =
  let sp = space () in
  let st = S.create sp in
  let a = S.fresh ~name:"a" st and b = S.fresh ~name:"b" st in
  let s = S.make_scheme ~locals:[ a; b ] ~atoms:[] in
  let s' = S.compact st ~interface:[ a ] s in
  Alcotest.(check int) "interface local kept" 1
    (List.length (S.scheme_locals s'));
  Alcotest.(check int) "unconstrained internal dropped" 0
    (List.length (S.scheme_atoms s'))

(* Masked atoms compose exactly: a <= v on {const}, v <= b on {nonzero}
   relates no coordinate end-to-end, while a <= v on m, v <= b on m
   composes to a <= b on m. *)
let test_masked_composition () =
  let sp = space () in
  let mc = E.mask_of_names sp [ "const" ] in
  let mn = E.mask_of_names sp [ "nonzero" ] in
  List.iter
    (fun (m1, m2) ->
      let st = S.create sp in
      let a = S.fresh st and v = S.fresh st and b = S.fresh st in
      let atoms =
        [
          S.Acv (const_elt sp, a, E.full_mask sp, None);
          S.Avv (a, v, m1, None);
          S.Avv (v, b, m2, None);
        ]
      in
      let s = S.make_scheme ~locals:[ a; v; b ] ~atoms in
      let s' = S.compact st ~interface:[ a; b ] s in
      let f = S.solve_atoms sp (S.scheme_atoms s') in
      let fo = S.solve_atoms sp atoms in
      List.iter
        (fun x ->
          let lo, hi = f (S.var_id x) and lo', hi' = fo (S.var_id x) in
          Alcotest.(check bool) "masked lo preserved" true (E.equal lo lo');
          Alcotest.(check bool) "masked hi preserved" true (E.equal hi hi'))
        [ a; b ])
    [ (mc, mn); (mc, mc); (mn, mn); (E.full_mask sp, mc) ]

(* ------------------------------------------------------------------ *)
(* Random masked systems                                               *)
(* ------------------------------------------------------------------ *)

type cgen = {
  g_nvars : int;
  g_nlocals : int;  (* vars [0, g_nlocals) are scheme locals *)
  g_niface : int;  (* vars [0, g_niface) are the interface *)
  g_atoms : (int * int * int * int * int) list;
      (* kind mod 3, var a, var b, raw elt bits, raw mask bits *)
}

let cgen_gen : cgen QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* g_nvars = int_range 2 10 in
  let* g_nlocals = int_range 1 g_nvars in
  let* g_niface = int_range 0 g_nlocals in
  let v = int_bound (g_nvars - 1) in
  let* g_atoms =
    list_size (int_bound 30)
      (let* k = int_bound 2 in
       let* a = v in
       let* b = v in
       let* e = int_bound 255 in
       let* m = int_bound 255 in
       return (k, a, b, e, m))
  in
  return { g_nvars; g_nlocals; g_niface; g_atoms }

let build sp (g : cgen) =
  let st = S.create sp in
  let vars = Array.init g.g_nvars (fun i -> S.fresh ~name:(Printf.sprintf "v%d" i) st) in
  let full = E.full_mask sp in
  let atoms =
    List.map
      (fun (k, a, b, e, m) ->
        let e = e land full and m = m land full in
        match k mod 3 with
        | 0 -> S.Avc (vars.(a), e, m, None)
        | 1 -> S.Acv (e, vars.(a), m, None)
        | _ -> S.Avv (vars.(a), vars.(b), m, None))
      g.g_atoms
  in
  let locals = Array.to_list (Array.sub vars 0 g.g_nlocals) in
  let interface = Array.to_list (Array.sub vars 0 g.g_niface) in
  (st, vars, atoms, locals, interface)

(* vars observable from outside the scheme: interface members plus free
   variables *)
let observables (g : cgen) vars =
  Array.to_list (Array.sub vars 0 g.g_niface)
  @ Array.to_list
      (Array.sub vars g.g_nlocals (g.g_nvars - g.g_nlocals))

(* per-variable constant upper bound of an atom list *)
let hi_bound_of sp atoms id =
  List.fold_left
    (fun acc a ->
      match a with
      | S.Avc (v, c, m, _) when S.var_id v = id ->
          E.meet sp acc (E.embed_top sp ~mask:m c)
      | _ -> acc)
    (E.top sp) atoms

let violating sp atoms n =
  let f = S.solve_atoms sp atoms in
  List.filter
    (fun id ->
      let lo, _ = f id in
      not (E.leq sp lo (hi_bound_of sp atoms id)))
    (List.init n Fun.id)

let prop_compact_exact =
  QCheck2.Test.make ~count:1000
    ~name:"compact: exact lo/hi on observables + exact violation set"
    (QCheck2.Gen.pair Test_props.space_gen cgen_gen)
    (fun (sp, g) ->
      let st, vars, atoms, locals, interface = build sp g in
      let s = S.make_scheme ~locals ~atoms in
      let s' = S.compact st ~interface s in
      let fo = S.solve_atoms sp atoms in
      let fc = S.solve_atoms sp (S.scheme_atoms s') in
      let obs_ok =
        List.for_all
          (fun v ->
            let lo, hi = fo (S.var_id v) and lo', hi' = fc (S.var_id v) in
            E.equal lo lo' && E.equal hi hi')
          (observables g vars)
      in
      (* the violating-variable set is preserved exactly: eliminated
         internals can never violate, kept variables keep their bounds *)
      let viol_ok =
        violating sp atoms g.g_nvars
        = violating sp (S.scheme_atoms s') g.g_nvars
      in
      obs_ok && viol_ok)

(* Same comparison through real stores: replay both systems through the
   normal add_leq_* entry points (dedup and incremental propagation
   active) and compare store solutions. *)
let prop_compact_exact_in_store =
  QCheck2.Test.make ~count:500
    ~name:"compact: store replay agrees on observables and satisfiability"
    (QCheck2.Gen.pair Test_props.space_gen cgen_gen)
    (fun (sp, g) ->
      let st, vars, atoms, locals, interface = build sp g in
      let s = S.make_scheme ~locals ~atoms in
      let s' = S.compact st ~interface s in
      let replay atoms =
        let st2 = S.create sp in
        let copies = Array.map (fun _ -> S.fresh st2) vars in
        (* scratch-store ids are dense from 0, so they index [copies] *)
        let rn v = copies.(S.var_id v) in
        List.iter
          (function
            | S.Avc (v, c, m, _) -> S.add_leq_vc ~mask:m st2 (rn v) c
            | S.Acv (c, v, m, _) -> S.add_leq_cv ~mask:m st2 c (rn v)
            | S.Avv (a, b, m, _) -> S.add_leq_vv ~mask:m st2 (rn a) (rn b))
          atoms;
        let sat = Result.is_ok (S.solve st2) in
        (st2, copies, sat)
      in
      let sto, co, sato = replay atoms in
      let stc, cc, satc = replay (S.scheme_atoms s') in
      ignore vars;
      sato = satc
      && List.for_all
           (fun v ->
             let i = S.var_id v in
             E.equal (S.least sto co.(i)) (S.least stc cc.(i))
             && E.equal (S.greatest sto co.(i)) (S.greatest stc cc.(i)))
           (observables g vars))

(* compact's output is itself a valid scheme: compacting it again (same
   interface) stays exact on the observables of the original system *)
let prop_compact_twice =
  QCheck2.Test.make ~count:500
    ~name:"compact twice: still exact on observables"
    (QCheck2.Gen.pair Test_props.space_gen cgen_gen)
    (fun (sp, g) ->
      let st, vars, atoms, locals, interface = build sp g in
      let s = S.make_scheme ~locals ~atoms in
      let s' = S.compact st ~interface (S.compact st ~interface s) in
      let fo = S.solve_atoms sp atoms in
      let fc = S.solve_atoms sp (S.scheme_atoms s') in
      List.for_all
        (fun v ->
          let lo, hi = fo (S.var_id v) and lo', hi' = fc (S.var_id v) in
          E.equal lo lo' && E.equal hi hi')
        (observables g vars))

(* atoms_never_violate is a sound license for sharing: when it says yes,
   no assignment of the pinned variables (here: all pinned to top, the
   worst case it reasons about) makes any local violate its bounds. *)
let prop_never_violate_sound =
  QCheck2.Test.make ~count:800
    ~name:"atoms_never_violate: pessimistic yes is really a yes"
    (QCheck2.Gen.pair Test_props.space_gen cgen_gen)
    (fun (sp, g) ->
      let _st, vars, atoms, locals, _ = build sp g in
      let exposed = Array.to_list (Array.sub vars 0 g.g_niface) in
      if not (S.atoms_never_violate sp ~locals ~exposed atoms) then true
      else begin
        (* pin every exposed local and every free variable to top and
           check no local violates *)
        let local_ids =
          List.map S.var_id locals |> List.sort_uniq compare
        in
        let pinned =
          List.filter
            (fun v ->
              List.mem (S.var_id v) (List.map S.var_id exposed)
              || not (List.mem (S.var_id v) local_ids))
            (Array.to_list vars)
        in
        let augmented =
          atoms
          @ List.map
              (fun v -> S.Acv (E.top sp, v, E.full_mask sp, None))
              pinned
        in
        let f = S.solve_atoms sp augmented in
        List.for_all
          (fun id ->
            let lo, _ = f id in
            E.leq sp lo (hi_bound_of sp atoms id))
          local_ids
      end)

(* ------------------------------------------------------------------ *)
(* End-to-end: compaction + memoization are observationally invisible   *)
(* ------------------------------------------------------------------ *)

(* Everything a user can observe from a C analysis run, EXCLUDING the
   solver's size counters (compaction exists precisely to change those):
   per-position verdicts, counts, warnings, outcomes, and the least
   solution of every named global variable. *)
let observable_digest (res : Cqual.Report.results)
    (least : (string * string) list) : string =
  let open Cqual in
  let b = Buffer.create 1024 in
  List.iter
    (fun pv -> Buffer.add_string b (Fmt.str "%a\n" Report.pp_position pv))
    res.Report.positions;
  Buffer.add_string b
    (Printf.sprintf "declared=%d possible=%d must=%d total=%d errors=%d\n"
       res.Report.declared res.Report.possible res.Report.must
       res.Report.total res.Report.type_errors);
  List.iter
    (fun w -> Buffer.add_string b ("warning " ^ w ^ "\n"))
    res.Report.warnings;
  List.iter
    (fun (f, o) ->
      Buffer.add_string b
        (match o with
        | Analysis.Analyzed -> "analyzed " ^ f ^ "\n"
        | Analysis.Degraded why -> "degraded " ^ f ^ ": " ^ why ^ "\n"))
    res.Report.outcomes;
  List.iter
    (fun (name, lo) -> Buffer.add_string b (name ^ " lo=" ^ lo ^ "\n"))
    least;
  Buffer.contents b

(* least solutions of the named program (global) variables, by name — the
   variables themselves differ between two independent runs *)
let global_leasts (env : Cqual.Analysis.env) : (string * string) list =
  let store = env.Cqual.Analysis.store in
  let sp = S.space store in
  Hashtbl.fold
    (fun name (c : Cqual.Qtypes.cell) acc ->
      (name, Fmt.str "%a" (E.pp sp) (S.least store c.Cqual.Qtypes.q)) :: acc)
    env.Cqual.Analysis.globals []
  |> List.sort compare

let run_digest ~compact mode prog =
  let open Cqual in
  let env, ifaces = Analysis.run ~compact mode prog in
  let results = Report.measure env ifaces in
  observable_digest results (global_leasts env)

let prop_end_to_end_invisible =
  QCheck2.Test.make ~count:12
    ~name:
      "end-to-end: --no-compact vs default observably identical (3 modes)"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let src = Cbench.Gen.generate ~seed ~target_lines:300 () in
      let prog = Support.compile src in
      List.for_all
        (fun mode ->
          let on = run_digest ~compact:true mode prog in
          let off = run_digest ~compact:false mode prog in
          if on <> off then
            QCheck2.Test.fail_reportf "seed %d:@.%s@.vs@.%s" seed on off
          else true)
        [ Cqual.Analysis.Mono; Cqual.Analysis.Poly; Cqual.Analysis.Polyrec ])

let prop_end_to_end_chains =
  QCheck2.Test.make ~count:6
    ~name:"end-to-end: chains workload identical and actually compacted"
    QCheck2.Gen.(int_range 0 1_000)
    (fun seed ->
      let src =
        Cbench.Gen.generate_chains ~depth:8 ~seed ~target_lines:250 ()
      in
      let open Cqual in
      let prog = Support.compile src in
      let on = run_digest ~compact:true Analysis.Poly prog in
      let off = run_digest ~compact:false Analysis.Poly prog in
      let env_on, _ = Analysis.run ~compact:true Analysis.Poly prog in
      let env_off, _ = Analysis.run ~compact:false Analysis.Poly prog in
      let von = (Analysis.stats env_on).S.vars_created in
      let voff = (Analysis.stats env_off).S.vars_created in
      if on <> off then
        QCheck2.Test.fail_reportf "chains seed %d reports differ" seed
      else if von >= voff then
        QCheck2.Test.fail_reportf
          "chains seed %d: no variable reduction (%d vs %d)" seed von voff
      else true)

(* ------------------------------------------------------------------ *)
(* The instantiation memo: it must actually fire, and every rejected    *)
(* candidate must land in exactly one named rejection counter.          *)
(* ------------------------------------------------------------------ *)

let memo_stats src =
  let open Cqual in
  let prog = Support.compile src in
  let env, ifaces = Analysis.run ~compact:true Analysis.Poly prog in
  ignore (Report.measure env ifaces);
  Analysis.stats env

(* the poly_chains workload is the memo's reason to exist: deep helper
   chains re-called with identical arguments. A zero here is the PR 8
   regression this test pins down. *)
let test_memo_fires_on_chains () =
  let src = Cbench.Gen.generate_chains ~depth:8 ~seed:7 ~target_lines:400 () in
  let st = memo_stats src in
  Alcotest.(check bool) "memo hits > 0" true (st.S.instantiations_memo_hits > 0);
  Alcotest.(check int) "every candidate is accounted for"
    st.S.memo_candidates
    (st.S.instantiations_memo_hits + st.S.memo_misses
   + st.S.memo_reject_nonflat_ret + st.S.memo_reject_may_violate)

(* a flat-signature callee (base-typed params and result, no violating
   atoms) is the cross-session tier: every occurrence after the first is
   a hit with no instantiation at all *)
let test_memo_flat_tier () =
  let st =
    memo_stats
      "int id(int x) { return x; }\n\
       int use(void) { return id(1) + id(2) + id(3); }\n"
  in
  Alcotest.(check bool) "flat-signature calls hit"
    true
    (st.S.instantiations_memo_hits >= 2);
  Alcotest.(check int) "no rejections" 0
    (st.S.memo_reject_nonflat_ret + st.S.memo_reject_may_violate)

(* a pointer result makes the consumer emit structural constraints
   against the instance: rejected, and counted as nonflat-ret *)
let test_memo_reject_nonflat_ret () =
  let st =
    memo_stats
      "int g;\n\
       int *addr(void) { return &g; }\n\
       int use(void) { return *addr() + *addr(); }\n"
  in
  Alcotest.(check bool) "nonflat-ret counted" true
    (st.S.memo_reject_nonflat_ret >= 2);
  Alcotest.(check int) "and not misclassified as may-violate" 0
    st.S.memo_reject_may_violate

(* writing through a parameter pointer puts an upper bound on call-site
   inflow: the scheme's atoms can violate on their own, so sharing an
   instance could drop errors — rejected, counted as may-violate *)
let test_memo_reject_may_violate () =
  let st =
    memo_stats
      "void set(int *p) { *p = 1; }\n\
       int use(int a) { set(&a); set(&a); return a; }\n"
  in
  Alcotest.(check bool) "may-violate counted" true
    (st.S.memo_reject_may_violate >= 2);
  Alcotest.(check int) "and not misclassified as nonflat-ret" 0
    st.S.memo_reject_nonflat_ret

(* a read-only pointer consumer is session-tier: flat result, never
   violating, keyed by argument shape — the second identical call hits,
   the first is a counted miss *)
let test_memo_session_tier () =
  let st =
    memo_stats
      "int deref(int *p) { return *p; }\n\
       int use(int *q) { return deref(q) + deref(q); }\n"
  in
  Alcotest.(check bool) "first occurrence misses" true (st.S.memo_misses >= 1);
  Alcotest.(check bool) "second occurrence hits" true
    (st.S.instantiations_memo_hits >= 1)

(* The chains workload at bench size (32 kloc of deep helper chains,
   poly, jobs 1): compaction must cut the variables created at least in
   half and change nothing a user sees. *)
let test_chains_32k_reduction () =
  let open Cqual in
  let src = Cbench.Gen.generate_chains ~seed:7 ~target_lines:32_000 () in
  let run compact =
    Session.run_sources ~mode:Analysis.Poly ~compact
      [ ("chains.c", src) ]
  in
  let on = run true and off = run false in
  let vars (r : Session.run) = r.Session.solver_stats.S.vars_created in
  Alcotest.(check bool)
    (Printf.sprintf "poly vars_created %d (off) >= 2x %d (on)" (vars off)
       (vars on))
    true
    (vars off >= 2 * vars on);
  let seen (r : Session.run) =
    let res = r.Session.results in
    ( (res.Report.possible, res.Report.must, res.Report.type_errors),
      List.map (Fmt.str "%a" Report.pp_position) res.Report.positions )
  in
  let counts_on, pos_on = seen on and counts_off, pos_off = seen off in
  Alcotest.(check (triple int int int))
    "possible, must, type_errors" counts_off counts_on;
  Alcotest.(check (list string)) "positions" pos_off pos_on

(* ------------------------------------------------------------------ *)
(* Phase timers: disjoint accounting must not exceed the wall clock     *)
(* ------------------------------------------------------------------ *)

let test_phase_timers_sane () =
  let open Cqual in
  let t0 = Unix.gettimeofday () in
  let r =
    Session.(run (create ~mode:Analysis.Poly Cbench.Programs.miniproject))
  in
  let wall = Unix.gettimeofday () -. t0 in
  let st = r.Session.solver_stats in
  let phases =
    [
      ("congen", st.S.congen_s);
      ("generalize", st.S.generalize_s);
      ("compact", st.S.compact_s);
      ("instantiate", st.S.instantiate_s);
      ("report", st.S.report_s);
      ("solve", st.S.solve_s);
    ]
  in
  List.iter
    (fun (n, v) ->
      Alcotest.(check bool) (n ^ " non-negative") true (v >= 0.))
    phases;
  let sum = List.fold_left (fun a (_, v) -> a +. v) 0. phases in
  (* serial phases are disjoint windows inside the run: their sum cannot
     exceed the enclosing wall time (slack for timer granularity) *)
  Alcotest.(check bool)
    (Printf.sprintf "phase sum %.3fs within wall %.3fs" sum wall)
    true
    (sum <= wall +. 0.05)

let tests =
  [
    Alcotest.test_case "chain internal eliminated" `Quick
      test_chain_elimination;
    Alcotest.test_case "memo fires on poly chains" `Quick
      test_memo_fires_on_chains;
    Alcotest.test_case "memo: flat-signature tier hits" `Quick
      test_memo_flat_tier;
    Alcotest.test_case "memo: nonflat-ret rejection counted" `Quick
      test_memo_reject_nonflat_ret;
    Alcotest.test_case "memo: may-violate rejection counted" `Quick
      test_memo_reject_may_violate;
    Alcotest.test_case "memo: session tier miss-then-hit" `Quick
      test_memo_session_tier;
    Alcotest.test_case "phase timers disjoint and sane" `Quick
      test_phase_timers_sane;
    Alcotest.test_case "inconsistent internal kept" `Quick
      test_inconsistent_internal_kept;
    Alcotest.test_case "unconstrained interface kept" `Quick
      test_interface_kept_unconstrained;
    Alcotest.test_case "masked composition exact" `Quick
      test_masked_composition;
    QCheck_alcotest.to_alcotest prop_compact_exact;
    QCheck_alcotest.to_alcotest prop_compact_exact_in_store;
    QCheck_alcotest.to_alcotest prop_compact_twice;
    QCheck_alcotest.to_alcotest prop_never_violate_sound;
    QCheck_alcotest.to_alcotest prop_end_to_end_invisible;
    QCheck_alcotest.to_alcotest prop_end_to_end_chains;
    Alcotest.test_case "chains 32 kloc: >= 2x fewer vars, same report" `Slow
      test_chains_32k_reduction;
  ]
