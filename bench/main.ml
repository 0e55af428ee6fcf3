(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 4.4) on the synthetic benchmark suite, plus the
   scaling/overhead claims of the text and the ablations of DESIGN.md.

   Sections (run all by default, or select: table1 table2 figure6 scaling
   parallel compaction lattice ablation solver extensions micro):

     table1  — the benchmark suite (paper Table 1)
     table2  — compile/mono/poly times (avg of 5, like the paper) and
               Declared / Mono / Poly / Total-possible counts (Table 2)
     figure6 — stacked percentage bars of Declared / Mono-added /
               Poly-added / Other per benchmark (Figure 6), plus CSV
     scaling — inference time vs program size; checks "scales roughly
               linearly" and "polymorphic at most 3x monomorphic"
     parallel— the multicore wavefront engine at 1/2/4 domains on a
               32-kloc workload; writes BENCH_parallel.json
     compaction — scheme compaction + instantiation memoization on vs
               off (poly/polyrec, serial and --jobs 4) on a 32-kloc
               chain-heavy workload; writes BENCH_compaction.json
     lattice — const analysis in the default two-point space vs the same
               rules hosted next to an unconstrained three-level chain
               (user-defined lattice), jobs 1 and 4; asserts identical
               verdicts and writes BENCH_lattice.json
     ablation— (a) unsound covariant ref vs (SubRef); (b) struct field
               sharing off; (c) worklist vs naive solver
     solver  — online cycle elimination + incremental re-solve vs the
               seed solver (full re-solve per query, no unification) on
               cyclic / chain / polymorphic-instantiation workloads;
               also runs under `ablation` and `micro`
     extensions — polymorphic recursion (Section 4.3's wish) and scheme
               simplification (Section 6's open problem)
     micro   — Bechamel micro-benchmarks of the solver and both inference
               modes
     cache   — the persistent cache on the CI smoke corpus: cold
               populate vs warm no-op (>= 5x) vs one dirty unit (only
               its parse is redone), plus a fault-injection sweep —
               truncation, bit flips, magic/version skew — asserting
               every corruption is rejected, counted, and recomputed to
               a byte-identical report; writes BENCH_cache.json.
               TYPEQUAL_CACHE_LINES overrides the line target.
     scale   — the flat-arena push: a 1M+ line multi-file project analyzed
               at jobs 1/2/4/8 (wall time, peak heap, solver counters,
               serial-vs-parallel report digest), plus an arena-vs-
               pre-arena solver core ablation sized to the 32-kloc
               workloads; writes BENCH_scale.json. Only runs when named
               explicitly (or under "all") — the corpus is large.
               TYPEQUAL_SCALE_LINES overrides the line target.
     frontend— per-unit parse+link vs one whole-program parse of the
               concatenated units on the million-line corpus: compile
               wall time, compile-phase peak heap (strictly below the
               one-unit parse's), byte-identical reports at jobs 1/4 and
               against the one-unit parse, and the per-unit AST cache
               re-parsing exactly the dirty unit; writes
               BENCH_frontend.json. Only runs when named
               explicitly (or under "all").
               TYPEQUAL_FRONTEND_LINES overrides the line target.
     daemon  — the persistent Session behind typequald on the CI smoke
               corpus: cold-analysis wall time, warm position-query
               and whatif latency percentiles (p50 targets <= 10 ms,
               enforced),
               single-unit edit + re-query percentiles with the honest
               speedup vs cold (10x target recorded, not enforced: every
               edit reruns the whole analysis), a check that each edit
               re-parses only the dirty unit, and a warm-vs-cold render
               byte-identity check; writes
               BENCH_daemon.json. Only runs when named explicitly (or
               under "all"). TYPEQUAL_DAEMON_LINES overrides the line
               target.

   Every section that runs records wall times, sizes and solver stats
   into BENCH_solver.json (machine-readable, tracked across PRs). *)

open Cqual
module TS = Typequal.Solver

(* ------------------------------------------------------------------ *)
(* Machine-readable results: BENCH_solver.json                         *)
(* ------------------------------------------------------------------ *)

(* Hand-rolled JSON (no json library in the dependency set): every bench
   section that runs records its wall times, sizes and solver stats here,
   and the accumulated object is written out at exit so the perf
   trajectory is tracked across PRs. *)
type json =
  | Jraw of string
  | Jstr of string
  | Jlist of json list
  | Jobj of (string * json) list

let rec pp_json buf = function
  | Jraw s -> Buffer.add_string buf s
  | Jstr s ->
      Buffer.add_char buf '"';
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string buf "\\\""
          | '\\' -> Buffer.add_string buf "\\\\"
          | '\n' -> Buffer.add_string buf "\\n"
          | c -> Buffer.add_char buf c)
        s;
      Buffer.add_char buf '"'
  | Jlist l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          pp_json buf x)
        l;
      Buffer.add_char buf ']'
  | Jobj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          pp_json buf (Jstr k);
          Buffer.add_char buf ':';
          pp_json buf v)
        kvs;
      Buffer.add_char buf '}'

let jf v = Jraw (Printf.sprintf "%.6f" v)
let ji (i : int) = Jraw (string_of_int i)
let jb b = Jraw (if b then "true" else "false")

let jstats (s : TS.stats) =
  Jobj
    [
      ("vars_created", ji s.TS.vars_created);
      ("vars_unified", ji s.TS.vars_unified);
      ("edges_added", ji s.TS.edges_added);
      ("edges_deduped", ji s.TS.edges_deduped);
      ("cycles_collapsed", ji s.TS.cycles_collapsed);
      ("incr_solves", ji s.TS.incr_solves);
      ("full_solves", ji s.TS.full_solves);
      ("worklist_pops", ji s.TS.worklist_pops);
      ("solve_s", jf s.TS.solve_s);
      ("absorb_s", jf s.TS.absorb_s);
      ("congen_s", jf s.TS.congen_s);
      ("generalize_s", jf s.TS.generalize_s);
      ("compact_s", jf s.TS.compact_s);
      ("instantiate_s", jf s.TS.instantiate_s);
      ("report_s", jf s.TS.report_s);
      ("scheme_vars_before", ji s.TS.scheme_vars_before);
      ("scheme_vars_after", ji s.TS.scheme_vars_after);
      ("scheme_edges_before", ji s.TS.scheme_edges_before);
      ("scheme_edges_after", ji s.TS.scheme_edges_after);
      ("instantiations_memo_hits", ji s.TS.instantiations_memo_hits);
      ("memo_candidates", ji s.TS.memo_candidates);
      ("memo_misses", ji s.TS.memo_misses);
      ("memo_reject_nonflat_ret", ji s.TS.memo_reject_nonflat_ret);
      ("memo_reject_may_violate", ji s.TS.memo_reject_may_violate);
      ("empty_batches_skipped", ji s.TS.empty_batches_skipped);
      ("heap_words", ji s.TS.heap_words);
      ("top_heap_words", ji s.TS.top_heap_words);
      ("cores_available", ji s.TS.cores_available);
    ]

(* set by the cache section while measuring warm runs: any section whose
   numbers could have been served from the persistent cache says so in
   its env block *)
let cache_used = ref false

(* memory + machine context, attached to every bench section so the perf
   trajectory tracks heap growth alongside wall time *)
let jenv () =
  let g = Gc.quick_stat () in
  Jobj
    [
      ("heap_words", ji g.Gc.heap_words);
      ("top_heap_words", ji g.Gc.top_heap_words);
      ("cores_available", ji (Typequal.Pool.cores_available ()));
      ("cache_used", jb !cache_used);
    ]

let bench_sections : (string * json) list ref = ref []

let record_section name j =
  let j =
    match j with
    | Jobj kvs -> Jobj (("env", jenv ()) :: kvs)
    | other -> Jobj [ ("env", jenv ()); ("data", other) ]
  in
  bench_sections := (name, j) :: !bench_sections

let write_json () =
  match !bench_sections with
  | [] -> ()
  | secs ->
      let buf = Buffer.create 4096 in
      pp_json buf
        (Jobj
           [
             ("paper", Jstr "A Theory of Type Qualifiers (PLDI 1999)");
             ("sections", Jobj (List.rev secs));
           ]);
      let oc = open_out "BENCH_solver.json" in
      output_string oc (Buffer.contents buf);
      output_char oc '\n';
      close_out oc;
      Fmt.pr "@.wrote BENCH_solver.json@."

let paper_table2 =
  (* the paper's reported numbers, for side-by-side shape comparison:
     name, (declared, mono, poly, total) *)
  [
    ("woman-3.0a-sim", (50, 67, 72, 95));
    ("patch-2.5-sim", (84, 99, 107, 148));
    ("m4-1.4-sim", (88, 249, 262, 370));
    ("diffutils-2.7-sim", (153, 209, 243, 372));
    ("ssh-1.2.26-sim", (147, 316, 347, 547));
    ("uucp-1.04-sim", (433, 1116, 1299, 1773));
  ]

(* Every analysis goes through a Session. A single source is a one-unit
   session; [compile] stops at the linked program, for the sections that
   drive [Analysis.run] directly. *)
let compile src = Session.program (Session.create [ ("<input>", src) ])

let run_source ?field_sharing ~mode src =
  Session.run (Session.create ~mode ?field_sharing [ ("<input>", src) ])

let time_avg n f =
  (* the paper reports the average of five runs *)
  let ts =
    List.init n (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (f ());
        Unix.gettimeofday () -. t0)
  in
  List.fold_left ( +. ) 0. ts /. float n

let time_best n f =
  (* minimum over n runs: the standard noise reduction for wall-clock
     measurements on shared (CI) machines *)
  List.fold_left min infinity
    (List.init n (fun _ ->
         let t0 = Unix.gettimeofday () in
         ignore (f ());
         Unix.gettimeofday () -. t0))

(* ------------------------------------------------------------------ *)

let table1 () =
  Fmt.pr "@.=== Table 1: Benchmarks for const inference ===@.";
  Fmt.pr "(synthetic stand-ins regenerated deterministically at the paper's@.";
  Fmt.pr " line counts; see DESIGN.md 'Substitutions')@.@.";
  Fmt.pr "%-20s %8s  %s@." "Name" "Lines" "Description";
  List.iter
    (fun (b : Cbench.Suite.bench) ->
      Fmt.pr "%-20s %8d  %s@." b.b_name b.b_lines b.b_description)
    Cbench.Suite.table1

(* ------------------------------------------------------------------ *)

type t2row = {
  name : string;
  compile_s : float;
  mono_s : float;
  poly_s : float;
  declared : int;
  mono : int;
  poly : int;
  total : int;
  errors : int;
}

let table2_rows ?(runs = 5) () : t2row list =
  let jrows = ref [] in
  let rows =
    List.map
      (fun (b : Cbench.Suite.bench) ->
        let src = Cbench.Suite.source_of b in
        let compile_s = time_avg runs (fun () -> compile src) in
        let prog = compile src in
        let mono_s =
          time_avg runs (fun () ->
              let env, ifaces = Analysis.run Analysis.Mono prog in
              Report.measure env ifaces)
        in
        let poly_s =
          time_avg runs (fun () ->
              let env, ifaces = Analysis.run Analysis.Poly prog in
              Report.measure env ifaces)
        in
        let env_m, if_m = Analysis.run Analysis.Mono prog in
        let rm = Report.measure env_m if_m in
        let env_p, if_p = Analysis.run Analysis.Poly prog in
        let rp = Report.measure env_p if_p in
        jrows :=
          Jobj
            [
              ("name", Jstr b.b_name);
              ("lines", ji b.b_lines);
              ("compile_s", jf compile_s);
              ("mono_s", jf mono_s);
              ("poly_s", jf poly_s);
              ("declared", ji rm.Report.declared);
              ("mono", ji rm.Report.possible);
              ("poly", ji rp.Report.possible);
              ("total", ji rm.Report.total);
              ("mono_solver", jstats (Analysis.stats env_m));
              ("poly_solver", jstats (Analysis.stats env_p));
            ]
          :: !jrows;
        {
          name = b.b_name;
          compile_s;
          mono_s;
          poly_s;
          declared = rm.Report.declared;
          mono = rm.Report.possible;
          poly = rp.Report.possible;
          total = rm.Report.total;
          errors = rm.Report.type_errors + rp.Report.type_errors;
        })
      Cbench.Suite.table1
  in
  record_section "table2" (Jlist (List.rev !jrows));
  rows

let table2 rows =
  Fmt.pr
    "@.=== Table 2: Number of inferred possibly-const positions ===@.@.";
  Fmt.pr "%-20s %11s %11s %11s %9s %6s %6s %6s@." "Name" "Compile(s)"
    "Mono(s)" "Poly(s)" "Declared" "Mono" "Poly" "Total";
  List.iter
    (fun r ->
      Fmt.pr "%-20s %11.3f %11.3f %11.3f %9d %6d %6d %6d@." r.name
        r.compile_s r.mono_s r.poly_s r.declared r.mono r.poly r.total)
    rows;
  Fmt.pr "@.shape checks against the paper (absolute counts differ — the@.";
  Fmt.pr "substrate is synthetic — but each claimed relation must hold):@.";
  let ok = ref true in
  let check name cond detail =
    Fmt.pr "  [%s] %s%s@." (if cond then "ok" else "FAIL") name detail;
    if not cond then ok := false
  in
  List.iter
    (fun r ->
      let p = List.assoc_opt r.name paper_table2 in
      let paper_ratio =
        match p with
        | Some (_, m, pl, _) ->
            Printf.sprintf " (paper: %.2f)" (float pl /. float m)
        | None -> ""
      in
      check
        (Printf.sprintf "%s: declared <= mono <= poly <= total" r.name)
        (r.declared <= r.mono && r.mono <= r.poly && r.poly <= r.total)
        "";
      check
        (Printf.sprintf "%s: poly/mono in [1.0, 1.25]" r.name)
        (let ratio = float r.poly /. float r.mono in
         ratio >= 1.0 && ratio <= 1.25)
        (Printf.sprintf " measured %.2f%s" (float r.poly /. float r.mono)
           paper_ratio);
      check
        (Printf.sprintf "%s: poly time <= 3x mono time" r.name)
        (r.poly_s <= (3. *. r.mono_s) +. 0.005)
        (Printf.sprintf " measured %.2fx" (r.poly_s /. r.mono_s));
      check (Printf.sprintf "%s: no type errors" r.name) (r.errors = 0) "")
    rows;
  check "suite: more consts inferable than declared everywhere"
    (List.for_all (fun r -> r.mono > r.declared) rows)
    "";
  (* uucp headline: "more than 2.5 times more consts than are actually
     present" — we check the same direction at a conservative factor *)
  (let u = List.find (fun r -> r.name = "uucp-1.04-sim") rows in
   check "uucp: poly/declared >= 2"
     (float u.poly /. float u.declared >= 2.)
     (Printf.sprintf " measured %.2f (paper: %.2f)"
        (float u.poly /. float u.declared)
        (1299. /. 433.)));
  Fmt.pr "%s@."
    (if !ok then "ALL SHAPE CHECKS PASSED" else "SHAPE CHECKS FAILED")

(* ------------------------------------------------------------------ *)

let figure6 rows =
  Fmt.pr "@.=== Figure 6: Number of inferred consts for benchmarks ===@.";
  Fmt.pr "(stacked percentage of total possible positions)@.@.";
  let width = 50 in
  Fmt.pr "%-20s %s@." ""
    "0%        20%       40%       60%       80%      100%";
  Fmt.pr "%-20s |%s|@." "" (String.make (width - 2) '-');
  List.iter
    (fun r ->
      let pct x = float x /. float r.total in
      let chars f c = String.make (int_of_float ((f *. float width) +. 0.5)) c in
      let bar =
        chars (pct r.declared) 'D'
        ^ chars (pct (r.mono - r.declared)) 'M'
        ^ chars (pct (r.poly - r.mono)) 'P'
      in
      let bar =
        if String.length bar < width then
          bar ^ String.make (width - String.length bar) '.'
        else String.sub bar 0 width
      in
      Fmt.pr "%-20s %s@." r.name bar)
    rows;
  Fmt.pr
    "@.legend: D=Declared  M=Mono (additional)  P=Poly (additional)  \
     .=Other@.";
  Fmt.pr "@.CSV:@.";
  Fmt.pr "name,declared_pct,mono_added_pct,poly_added_pct,other_pct@.";
  List.iter
    (fun r ->
      let pct x = 100. *. float x /. float r.total in
      Fmt.pr "%s,%.1f,%.1f,%.1f,%.1f@." r.name (pct r.declared)
        (pct (r.mono - r.declared))
        (pct (r.poly - r.mono))
        (pct (r.total - r.poly)))
    rows

(* ------------------------------------------------------------------ *)

let scaling () =
  Fmt.pr "@.=== Scaling: inference time vs program size (Section 4.4) ===@.";
  Fmt.pr "\"the inference scales roughly linearly with the program size\"@.@.";
  Fmt.pr "%8s %8s %10s %10s %10s %13s@." "lines" "funcs" "mono(s)" "poly(s)"
    "poly/mono" "us/line(mono)";
  let sizes = [ 1000; 2000; 4000; 8000; 16000; 32000 ] in
  let jrows = ref [] in
  let per_line =
    List.map
      (fun n ->
        let src = Cbench.Gen.generate ~seed:(1000 + n) ~target_lines:n () in
        let prog = compile src in
        let nfun = List.length (Cfront.Cprog.functions prog) in
        let mono_s =
          time_avg 3 (fun () ->
              let env, ifaces = Analysis.run Analysis.Mono prog in
              Report.measure env ifaces)
        in
        let poly_s =
          time_avg 3 (fun () ->
              let env, ifaces = Analysis.run Analysis.Poly prog in
              Report.measure env ifaces)
        in
        let env, ifaces = Analysis.run Analysis.Poly prog in
        ignore (Report.measure env ifaces);
        jrows :=
          Jobj
            [
              ("lines", ji n);
              ("functions", ji nfun);
              ("mono_s", jf mono_s);
              ("poly_s", jf poly_s);
              ("poly_solver", jstats (Analysis.stats env));
            ]
          :: !jrows;
        Fmt.pr "%8d %8d %10.3f %10.3f %10.2f %13.2f@." n nfun mono_s poly_s
          (poly_s /. mono_s)
          (mono_s /. float n *. 1e6);
        (n, mono_s, poly_s))
      sizes
  in
  record_section "scaling" (Jlist (List.rev !jrows));
  match (List.hd per_line, List.nth per_line (List.length per_line - 1)) with
  | (n0, m0, _), (n1, m1, _) ->
      let r0 = m0 /. float n0 and r1 = m1 /. float n1 in
      Fmt.pr
        "@.[%s] per-line cost ratio large/small = %.2f (roughly linear if \
         < 4)@."
        (if r1 /. r0 < 4. then "ok" else "FAIL")
        (r1 /. r0)

(* ------------------------------------------------------------------ *)

let ablation () =
  Fmt.pr "@.=== Ablations (DESIGN.md) ===@.";

  (* (a) unsound covariant ref rule vs the paper's invariant (SubRef) *)
  Fmt.pr
    "@.(a) ref subtyping: (SubRef) invariance vs the unsound covariant rule@.";
  let counterexample =
    "let x = ref (@[nonzero] 37) in\n\
     let clear = fun p -> p := @[~nonzero] 0 in\n\
     clear x;\n\
     (!x) |[nonzero]"
  in
  let open Qlambda in
  let space = Rules.cn_space in
  let ast = Parse.parse counterexample in
  let sound = Infer.typechecks ~hooks:Rules.cn_hooks space ast in
  let unsound =
    Infer.typechecks ~hooks:Rules.cn_hooks ~unsound_ref:true space ast
  in
  let stuck =
    match Eval.run space ast with Eval.Stuck_at _ -> true | _ -> false
  in
  Fmt.pr "    Section 2.4 counterexample: sound rule %s, unsound rule %s,@."
    (if sound then "ACCEPTS (bug!)" else "rejects")
    (if unsound then "accepts" else "REJECTS (unexpected)");
  Fmt.pr "    and the program indeed gets stuck at runtime: %b@." stuck;

  (* (b) struct field sharing off *)
  Fmt.pr "@.(b) struct field sharing (Section 4.2) on vs off@.";
  let shared_conflict =
    "struct buf { char *data; };\n\
     void f(struct buf *x, const char *s) { x->data = s; }\n\
     void g(struct buf *y) { *(y->data) = 'c'; }"
  in
  let with_sharing = run_source ~mode:Analysis.Mono shared_conflict in
  let without =
    run_source ~mode:Analysis.Mono ~field_sharing:false shared_conflict
  in
  Fmt.pr
    "    conflicting uses of one struct type: sharing detects %d error(s), \
     no-sharing misses it (%d errors)@."
    with_sharing.Session.results.Report.type_errors
    without.Session.results.Report.type_errors;
  let b = List.nth Cbench.Suite.table1 2 in
  let src = Cbench.Suite.source_of b in
  let on = run_source ~mode:Analysis.Mono src in
  let off = run_source ~mode:Analysis.Mono ~field_sharing:false src in
  Fmt.pr
    "    %s possible consts: sharing=%d, no-sharing=%d (no-sharing is \
     unsound, not more precise)@."
    b.b_name on.Session.results.Report.possible
    off.Session.results.Report.possible;

  (* (c) worklist vs naive solver *)
  Fmt.pr "@.(c) solver: worklist propagation vs naive round-robin@.";
  let module S = Typequal.Solver in
  let sp = Analysis.const_space in
  let st =
    let st = S.create sp in
    let n = 20000 in
    let vars = Array.init n (fun _ -> S.fresh st) in
    let rng = Cbench.Rng.create 7 in
    for i = 0 to n - 1 do
      S.add_leq_vv st vars.(i) vars.(Cbench.Rng.int rng n);
      if Cbench.Rng.int rng 100 < 3 then
        S.add_leq_cv st (Typequal.Lattice.Elt.top sp) vars.(i)
    done;
    st
  in
  let t_work = time_avg 3 (fun () -> S.solve_least st) in
  let t_naive = time_avg 3 (fun () -> S.solve_least_naive st) in
  Fmt.pr "    20k vars / 20k edges: worklist %.4fs, naive %.4fs (%.1fx)@."
    t_work t_naive (t_naive /. t_work);
  record_section "ablation"
    (Jobj
       [
         ("worklist_s", jf t_work);
         ("naive_s", jf t_naive);
         ("solver", jstats (S.stats st));
       ])

(* ------------------------------------------------------------------ *)

(* Solver ablation: cycle elimination + incremental re-solving vs the
   seed solver's behavior (no unification, full re-solve after every
   constraint addition). Each workload interleaves constraint additions
   with solution queries, which is exactly the access pattern inference
   produces: generate some constraints, classify some variables, repeat. *)
let solver_ablation () =
  Fmt.pr
    "@.=== Solver ablation: online cycle elimination + incremental solve \
     ===@.";
  let sp = Analysis.const_space in
  let top = Typequal.Lattice.Elt.top sp in
  let create = function
    | `Seed -> TS.create ~cycle_elim:false sp
    | `Optimized -> TS.create ~cycle_elim:true sp
  in
  (* the seed solver invalidated everything on any addition and re-ran the
     full least+greatest fixpoint at the next query *)
  let query strategy st v =
    (match strategy with
    | `Seed -> ignore (TS.solve_from_scratch st)
    | `Optimized -> ());
    ignore (TS.least st v)
  in
  let cyclic strategy =
    (* mutual-subtyping pairs chained together: the kappa1 <= kappa2 <=
       kappa1 shape ref cells produce constantly *)
    let n = 3000 and stride = 30 in
    let st = create strategy in
    let vars = Array.init n (fun _ -> TS.fresh st) in
    for i = 0 to n - 2 do
      TS.add_leq_vv st vars.(i) vars.(i + 1);
      if i mod 2 = 0 then TS.add_leq_vv st vars.(i + 1) vars.(i);
      if i mod 100 = 0 then TS.add_leq_cv st top vars.(i);
      if i mod stride = 0 then query strategy st vars.(i)
    done;
    st
  in
  let chain strategy =
    (* acyclic control: cycle elimination must never hurt *)
    let n = 3000 and stride = 30 in
    let st = create strategy in
    let vars = Array.init n (fun _ -> TS.fresh st) in
    TS.add_leq_cv st top vars.(0);
    for i = 0 to n - 2 do
      TS.add_leq_vv st vars.(i) vars.(i + 1);
      if i mod stride = 0 then query strategy st vars.(i + 1)
    done;
    st
  in
  let poly strategy =
    (* a scheme whose body carries an internal two-cycle, instantiated
       repeatedly against one shared variable — polymorphic instantiation's
       signature workload *)
    let st = create strategy in
    let shared = TS.fresh st in
    let (g, a, b), atoms =
      TS.recording st (fun () ->
          let g = TS.fresh st and a = TS.fresh st and b = TS.fresh st in
          TS.add_leq_vv st g a;
          TS.add_leq_vv st a b;
          TS.add_leq_vv st b a;
          TS.add_leq_vv st b shared;
          (g, a, b))
    in
    let sch = TS.make_scheme ~locals:[ g; a; b ] ~atoms in
    for i = 0 to 999 do
      let rn = TS.instantiate st sch in
      TS.add_leq_cv st top (rn g);
      if i mod 10 = 0 then query strategy st shared
    done;
    st
  in
  let workloads =
    [ ("cyclic", cyclic, true); ("chain", chain, false); ("poly", poly, true) ]
  in
  Fmt.pr "%-8s %12s %12s %9s@." "workload" "seed(s)" "optimized(s)" "speedup";
  let ok = ref true in
  let check name cond detail =
    Fmt.pr "  [%s] %s%s@." (if cond then "ok" else "FAIL") name detail;
    if not cond then ok := false
  in
  let jrows =
    List.map
      (fun (name, wl, want_2x) ->
        let seed_s = time_avg 3 (fun () -> wl `Seed) in
        let opt_s = time_avg 3 (fun () -> wl `Optimized) in
        let stats = TS.stats (wl `Optimized) in
        Fmt.pr "%-8s %12.4f %12.4f %8.1fx@." name seed_s opt_s
          (seed_s /. opt_s);
        (name, seed_s, opt_s, want_2x, stats))
      workloads
  in
  List.iter
    (fun (name, seed_s, opt_s, want_2x, _) ->
      check
        (Printf.sprintf "%s: optimized never slower" name)
        (opt_s <= seed_s *. 1.05)
        (Printf.sprintf " (%.4fs vs %.4fs)" opt_s seed_s);
      if want_2x then
        check
          (Printf.sprintf "%s: optimized >= 2x faster" name)
          (seed_s /. opt_s >= 2.)
          (Printf.sprintf " measured %.1fx" (seed_s /. opt_s)))
    jrows;
  Fmt.pr "%s@."
    (if !ok then "ALL SOLVER ABLATION CHECKS PASSED"
     else "SOLVER ABLATION CHECKS FAILED");
  record_section "solver_ablation"
    (Jobj
       [
         ( "workloads",
           Jlist
             (List.map
                (fun (name, seed_s, opt_s, want_2x, stats) ->
                  Jobj
                    [
                      ("name", Jstr name);
                      ("seed_s", jf seed_s);
                      ("optimized_s", jf opt_s);
                      ("speedup", jf (seed_s /. opt_s));
                      ("required_2x", jb want_2x);
                      ("solver", jstats stats);
                    ])
                jrows) );
         ("all_checks_passed", jb !ok);
       ])

let micro () =
  Fmt.pr "@.=== Bechamel micro-benchmarks ===@.";
  let open Bechamel in
  let open Toolkit in
  let src = Cbench.Gen.generate ~seed:99 ~target_lines:2000 () in
  let prog = compile src in
  let module S = Typequal.Solver in
  let sp = Analysis.const_space in
  let solver_input =
    let st = S.create sp in
    let n = 5000 in
    let vars = Array.init n (fun _ -> S.fresh st) in
    let rng = Cbench.Rng.create 11 in
    for i = 0 to n - 1 do
      S.add_leq_vv st vars.(i) vars.(Cbench.Rng.int rng n)
    done;
    S.add_leq_cv st (Typequal.Lattice.Elt.top sp) vars.(0);
    st
  in
  let tests =
    Test.make_grouped ~name:"typequal"
      [
        Test.make ~name:"solver-worklist-5k"
          (Staged.stage (fun () -> S.solve_least solver_input));
        Test.make ~name:"solver-naive-5k"
          (Staged.stage (fun () -> S.solve_least_naive solver_input));
        Test.make ~name:"parse-2kloc"
          (Staged.stage (fun () -> ignore (compile src)));
        Test.make ~name:"mono-infer-2kloc"
          (Staged.stage (fun () ->
               let env, ifaces = Analysis.run Analysis.Mono prog in
               ignore (Report.measure env ifaces)));
        Test.make ~name:"poly-infer-2kloc"
          (Staged.stage (fun () ->
               let env, ifaces = Analysis.run Analysis.Poly prog in
               ignore (Report.measure env ifaces)));
        Test.make ~name:"lambda-poly-infer"
          (Staged.stage (fun () ->
               let open Qlambda in
               ignore
                 (Infer.typechecks ~hooks:Rules.cn_hooks ~poly:true
                    Rules.cn_space
                    (Parse.parse
                       "let id = fun x -> x in let y = id (ref 1) in let z \
                        = id (@[const] ref 1) in !y"))));
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let res = Analyze.all ols Instance.monotonic_clock raw in
  let items = Hashtbl.fold (fun k v acc -> (k, v) :: acc) res [] in
  Fmt.pr "%-40s %12s@." "benchmark" "time/run";
  let jrows = ref [] in
  List.iter
    (fun (name, r) ->
      match Analyze.OLS.estimates r with
      | Some [ ns ] ->
          let pp ppf ns =
            if ns > 1e9 then Fmt.pf ppf "%9.3f s " (ns /. 1e9)
            else if ns > 1e6 then Fmt.pf ppf "%9.3f ms" (ns /. 1e6)
            else if ns > 1e3 then Fmt.pf ppf "%9.3f us" (ns /. 1e3)
            else Fmt.pf ppf "%9.1f ns" ns
          in
          jrows := Jobj [ ("name", Jstr name); ("ns_per_run", jf ns) ] :: !jrows;
          Fmt.pr "%-40s %a@." name pp ns
      | _ -> Fmt.pr "%-40s (no estimate)@." name)
    (List.sort compare items);
  record_section "micro" (Jlist (List.rev !jrows))

(* ------------------------------------------------------------------ *)
(* Parallel analysis: the multicore wavefront engine at 1/2/4 domains   *)
(* ------------------------------------------------------------------ *)

let parallel () =
  Fmt.pr "@.=== Parallel analysis: wavefront engine at 1/2/4 domains ===@.";
  let cores = Domain.recommended_domain_count () in
  Fmt.pr "cores available: %d%s@." cores
    (if cores < 2 then
       " (single-core machine: no speedup is possible; this measures \
        overhead and checks determinism)"
     else "");
  let lines = 32000 in
  let src = Cbench.Gen.generate ~seed:(1000 + lines) ~target_lines:lines () in
  let t0 = Unix.gettimeofday () in
  let prog = compile src in
  let t_compile_s = Unix.gettimeofday () -. t0 in
  let fdg = Fdg.build prog in
  Fmt.pr
    "workload: %d lines, %d functions, %d sccs (largest %d), wavefront \
     width %d@.@."
    lines
    (List.length (Cfront.Cprog.functions prog))
    (Fdg.scc_count fdg) (Fdg.largest_scc fdg) (Fdg.wavefront_width fdg);
  Fmt.pr "(timings are the best of 3 runs per mode/jobs cell)@.";
  Fmt.pr "%-6s %5s %12s %9s %10s %10s %9s@." "mode" "jobs" "analyze(s)"
    "speedup" "gen(s)" "merge(s)" "possible";
  let jrows = ref [] in
  List.iter
    (fun (mname, mode) ->
      let base = ref nan in
      List.iter
        (fun jobs ->
          let analyze_s =
            time_best 3 (fun () ->
                let env, ifaces = Analysis.run ~jobs mode prog in
                Report.measure env ifaces)
          in
          let env, ifaces = Analysis.run ~jobs mode prog in
          let r = Report.measure env ifaces in
          if jobs = 1 then base := analyze_s;
          let gen_s, merge_s =
            match env.Analysis.par with
            | Some p -> (p.Analysis.ps_gen_s, p.Analysis.ps_merge_s)
            | None -> (0., 0.)
          in
          Fmt.pr "%-6s %5d %12.3f %8.2fx %10.3f %10.3f %9d@." mname jobs
            analyze_s (!base /. analyze_s) gen_s merge_s r.Report.possible;
          jrows :=
            Jobj
              [
                ("mode", Jstr mname);
                ("jobs", ji jobs);
                ("analyze_s", jf analyze_s);
                ("speedup_vs_serial", jf (!base /. analyze_s));
                ("generate_s", jf gen_s);
                ("merge_s", jf merge_s);
                ("possible", ji r.Report.possible);
                ("type_errors", ji r.Report.type_errors);
                ("solver", jstats (Analysis.stats env));
              ]
            :: !jrows)
        [ 1; 2; 4 ])
    [ ("mono", Analysis.Mono); ("poly", Analysis.Poly) ];
  let buf = Buffer.create 2048 in
  pp_json buf
    (Jobj
       [
         ("paper", Jstr "A Theory of Type Qualifiers (PLDI 1999)");
         ("env", jenv ());
         ("cores_available", ji cores);
         ("timing", Jstr "best_of_3");
         ("workload_lines", ji lines);
         ("t_compile_s", jf t_compile_s);
         ("runs", Jlist (List.rev !jrows));
       ]);
  let oc = open_out "BENCH_parallel.json" in
  output_string oc (Buffer.contents buf);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "@.wrote BENCH_parallel.json@."

(* ------------------------------------------------------------------ *)
(* Scheme compaction: compaction + instantiation memo on vs off        *)
(* ------------------------------------------------------------------ *)

let compaction () =
  Fmt.pr
    "@.=== Scheme compaction: simplification at generalization, \
     instantiation memo ===@.";
  let cores = Domain.recommended_domain_count () in
  Fmt.pr "cores available: %d@." cores;
  let lines = 32000 in
  let workloads =
    [
      (* deep chains of tiny polymorphic helpers: uncompacted, the scheme
         of depth k contains an instance of the whole depth-(k-1) scheme,
         so instantiation variables grow quadratically with depth *)
      ("chains", Cbench.Gen.generate_chains ~seed:7 ~target_lines:lines ());
      (* the Table 2-shaped mix, as a no-regression control *)
      ("mix", Cbench.Gen.generate ~seed:(1000 + lines) ~target_lines:lines ());
    ]
  in
  let ok = ref true in
  let check name cond detail =
    Fmt.pr "  [%s] %s%s@." (if cond then "ok" else "FAIL") name detail;
    if not cond then ok := false
  in
  let chains_ratio = ref 0. in
  let jworkloads =
    List.map
      (fun (wname, src) ->
        let t0 = Unix.gettimeofday () in
        let prog = compile src in
        let t_compile_s = Unix.gettimeofday () -. t0 in
        Fmt.pr "@.workload %s: %d lines, %d functions@." wname
          (Cfront.Cprog.count_lines src)
          (List.length (Cfront.Cprog.functions prog));
        Fmt.pr "%-8s %8s %5s %12s %12s %18s %10s %9s@." "mode" "compact"
          "jobs" "analyze(s)" "vars" "scheme vars" "memo" "possible";
        let jrows = ref [] in
        let cells = ref [] in
        List.iter
          (fun (mname, mode) ->
            List.iter
              (fun compact ->
                List.iter
                  (fun jobs ->
                    let t0 = Unix.gettimeofday () in
                    let env, ifaces = Analysis.run ~compact ~jobs mode prog in
                    let r = Report.measure env ifaces in
                    let dt = Unix.gettimeofday () -. t0 in
                    let st = Analysis.stats env in
                    cells := (mname, compact, jobs, dt, st, r) :: !cells;
                    Fmt.pr "%-8s %8s %5d %12.3f %12d %8d -> %7d %10d %9d@."
                      mname
                      (if compact then "on" else "off")
                      jobs dt st.TS.vars_created st.TS.scheme_vars_before
                      st.TS.scheme_vars_after st.TS.instantiations_memo_hits
                      r.Report.possible;
                    jrows :=
                      Jobj
                        [
                          ("mode", Jstr mname);
                          ("compact", jb compact);
                          ("jobs", ji jobs);
                          ("analyze_s", jf dt);
                          ("possible", ji r.Report.possible);
                          ("type_errors", ji r.Report.type_errors);
                          ("solver", jstats st);
                        ]
                      :: !jrows)
                  [ 1; 4 ])
              [ true; false ])
          [ ("poly", Analysis.Poly); ("polyrec", Analysis.Polyrec) ];
        (* every (mode, jobs) cell must report identically on vs off *)
        List.iter
          (fun (mname, compact, jobs, _, _, (r : Report.results)) ->
            if compact then
              let _, _, _, _, _, r' =
                List.find
                  (fun (m, c, j, _, _, _) ->
                    m = mname && (not c) && j = jobs)
                  !cells
              in
              check
                (Printf.sprintf "%s/%s/jobs=%d: reports identical on vs off"
                   wname mname jobs)
                (r.Report.possible = r'.Report.possible
                && r.Report.type_errors = r'.Report.type_errors)
                (Printf.sprintf " (possible %d vs %d, errors %d vs %d)"
                   r.Report.possible r'.Report.possible r.Report.type_errors
                   r'.Report.type_errors))
          !cells;
        (* measured variable reduction, the headline figure *)
        let vars_of mname compact =
          let _, _, _, _, (st : TS.stats), _ =
            List.find
              (fun (m, c, j, _, _, _) -> m = mname && c = compact && j = 1)
              !cells
          in
          st.TS.vars_created
        in
        let ratio =
          float (vars_of "poly" false) /. float (max 1 (vars_of "poly" true))
        in
        if wname = "chains" then chains_ratio := ratio;
        Fmt.pr "%s poly vars_created: %d (off) / %d (on) = %.1fx reduction@."
          wname (vars_of "poly" false) (vars_of "poly" true) ratio;
        (* compaction must not slow the monomorphic path down (it never
           generalizes, so only constant bookkeeping differs); one warm-up
           pair plus interleaved best-of-3 so heap state left behind by
           the poly runs above weighs on both sides equally *)
        let mono_once compact =
          let t0 = Unix.gettimeofday () in
          let env, ifaces = Analysis.run ~compact Analysis.Mono prog in
          ignore (Report.measure env ifaces);
          Unix.gettimeofday () -. t0
        in
        ignore (mono_once true);
        ignore (mono_once false);
        let mono_on = ref infinity and mono_off = ref infinity in
        for _ = 1 to 3 do
          mono_on := Float.min !mono_on (mono_once true);
          mono_off := Float.min !mono_off (mono_once false)
        done;
        let mono_on = !mono_on and mono_off = !mono_off in
        check
          (Printf.sprintf "%s: mono wall-clock no regression" wname)
          (mono_on <= (mono_off *. 1.10) +. 0.05)
          (Printf.sprintf " (on %.3fs vs off %.3fs)" mono_on mono_off);
        Jobj
          [
            ("name", Jstr wname);
            ("lines", ji lines);
            ("t_compile_s", jf t_compile_s);
            ("poly_vars_reduction", jf ratio);
            ("mono_on_s", jf mono_on);
            ("mono_off_s", jf mono_off);
            ("runs", Jlist (List.rev !jrows));
          ])
      workloads
  in
  check "chains: poly vars_created reduced >= 2x" (!chains_ratio >= 2.)
    (Printf.sprintf " measured %.1fx" !chains_ratio);
  Fmt.pr "%s@."
    (if !ok then "ALL COMPACTION CHECKS PASSED" else "COMPACTION CHECKS FAILED");
  let buf = Buffer.create 2048 in
  pp_json buf
    (Jobj
       [
         ("paper", Jstr "A Theory of Type Qualifiers (PLDI 1999)");
         ("env", jenv ());
         ("cores_available", ji cores);
         ("workload_lines", ji lines);
         ("all_checks_passed", jb !ok);
         ("workloads", Jlist jworkloads);
       ]);
  let oc = open_out "BENCH_compaction.json" in
  output_string oc (Buffer.contents buf);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "@.wrote BENCH_compaction.json@."

(* ------------------------------------------------------------------ *)
(* User-defined lattices: a wider space must not slow the default path *)
(* ------------------------------------------------------------------ *)

let lattice () =
  Fmt.pr
    "@.=== User-defined lattices: two-point vs three-level space ===@.";
  let lines = 32000 in
  let src = Cbench.Gen.generate ~seed:(1000 + lines) ~target_lines:lines () in
  let t0 = Unix.gettimeofday () in
  let prog = compile src in
  let t_compile_s = Unix.gettimeofday () -. t0 in
  let module Q = Typequal.Qualifier in
  let wide_rules =
    Analysis.const_rules_in
      (Typequal.Lattice.Space.create
         [ Q.const; Q.ordered "trust" (Q.Order.chain_exn [ "low"; "mid"; "high" ]) ])
  in
  Fmt.pr
    "workload: %d lines; const analysis in the default 1-bit space vs the \
     same rules@."
    lines;
  Fmt.pr
    "hosted next to an unconstrained 3-level chain (2 extra bits per \
     element)@.";
  Fmt.pr "(timings are the best of 3 runs per cell)@.@.";
  Fmt.pr "%-12s %5s %12s %10s %9s %7s@." "space" "jobs" "analyze(s)"
    "overhead" "possible" "errors";
  let jrows = ref [] in
  let base = Hashtbl.create 4 in
  let counts = ref None in
  let ok = ref true in
  List.iter
    (fun (sname, rules) ->
      List.iter
        (fun jobs ->
          let analyze_s =
            time_best 3 (fun () ->
                let env, ifaces = Analysis.run ~rules ~jobs Analysis.Mono prog in
                Report.measure env ifaces)
          in
          let env, ifaces = Analysis.run ~rules ~jobs Analysis.Mono prog in
          let r = Report.measure env ifaces in
          if sname = "two_point" then Hashtbl.replace base jobs analyze_s;
          let overhead =
            analyze_s /. (try Hashtbl.find base jobs with Not_found -> nan)
          in
          (* the verdicts must not depend on the hosting space or on jobs *)
          let c = (r.Report.total, r.Report.possible, r.Report.type_errors) in
          (match !counts with
          | None -> counts := Some c
          | Some c0 -> if c <> c0 then ok := false);
          Fmt.pr "%-12s %5d %12.3f %9.2fx %9d %7d@." sname jobs analyze_s
            overhead r.Report.possible r.Report.type_errors;
          jrows :=
            Jobj
              [
                ("space", Jstr sname);
                ("jobs", ji jobs);
                ("analyze_s", jf analyze_s);
                ("overhead_vs_two_point", jf overhead);
                ("possible", ji r.Report.possible);
                ("type_errors", ji r.Report.type_errors);
                ("solver", jstats (Analysis.stats env));
              ]
            :: !jrows)
        [ 1; 4 ])
    [ ("two_point", Analysis.const_rules); ("three_level", wide_rules) ];
  if not !ok then
    failwith "lattice bench: verdicts differ across spaces or job counts";
  Fmt.pr "@.(verdicts identical across both spaces and both job counts — \
          asserted)@.";
  record_section "lattice" (Jlist (List.rev !jrows));
  let buf = Buffer.create 2048 in
  pp_json buf
    (Jobj
       [
         ("paper", Jstr "A Theory of Type Qualifiers (PLDI 1999)");
         ("env", jenv ());
         ("timing", Jstr "best_of_3");
         ("workload_lines", ji lines);
         ("t_compile_s", jf t_compile_s);
         ("counts_identical", jb !ok);
         ("runs", Jlist (List.rev !jrows));
       ]);
  let oc = open_out "BENCH_lattice.json" in
  output_string oc (Buffer.contents buf);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "@.wrote BENCH_lattice.json@."

(* ------------------------------------------------------------------ *)
(* Extensions beyond the paper's evaluation                            *)
(* ------------------------------------------------------------------ *)

let extensions () =
  Fmt.pr "@.=== Extensions: polymorphic recursion & scheme simplification ===@.";
  Fmt.pr "(Section 4.3 wished for polymorphic recursion; Section 6 poses@.";
  Fmt.pr " constraint simplification as an open problem)@.@.";
  Fmt.pr "%-20s %6s %6s %8s %11s %11s %11s@." "Name" "Poly" "PolyRec"
    "Total" "Poly(s)" "PolyRec(s)" "Simpl(s)";
  List.iter
    (fun (b : Cbench.Suite.bench) ->
      let src = Cbench.Suite.source_of b in
      let prog = compile src in
      let run_once mode simplify =
        let t0 = Unix.gettimeofday () in
        let env, ifaces = Analysis.run ~simplify mode prog in
        let r = Report.measure env ifaces in
        (r, Unix.gettimeofday () -. t0)
      in
      let rp, tp = run_once Analysis.Poly false in
      let rr, tr = run_once Analysis.Polyrec false in
      let rs, ts = run_once Analysis.Poly true in
      assert (rs.Report.possible = rp.Report.possible);
      assert (rr.Report.possible >= rp.Report.possible);
      Fmt.pr "%-20s %6d %6d %8d %11.3f %11.3f %11.3f@." b.b_name
        rp.Report.possible rr.Report.possible rp.Report.total tp tr ts)
    Cbench.Suite.table1;
  Fmt.pr
    "@.(PolyRec >= Poly everywhere; simplification preserves all results \
     — both are asserted.)@."

(* ------------------------------------------------------------------ *)
(* Scale: the flat-arena core on a million-line multi-file project      *)
(* ------------------------------------------------------------------ *)

module RS = Typequal.Solver_ref

(* One deterministic constraint stream replayed against both solver cores.
   Ops: (1, a, b) edge a<=b; (2, a, _) lower bound top<=a; (3, a, _) upper
   bound a<=top; (4, _, _) incremental solve; (5, a, _) least-solution
   query. Edges are window-local, so the stream is duplicate- and
   cycle-rich — exactly the dedup- and propagation-bound shape that
   motivated the arena. *)
let ablation_ops ~nvars ~nops =
  let rng = Cbench.Rng.create 0xAB1E in
  Array.init nops (fun i ->
      (* a solve per ~200 constraints: the per-function cadence inference
         produces (generate a function's constraints, classify, move on) *)
      if i mod 200 = 199 then (4, 0, 0)
      else
        let r = Cbench.Rng.int rng 100 in
        if r < 55 then
          (* flow edges: mostly forward (calls into later prototypes),
             with a minority of back edges closing recursion cycles *)
          let a = Cbench.Rng.int rng nvars in
          let b =
            if Cbench.Rng.int rng 100 < 8 then a - 1 - Cbench.Rng.int rng 40
            else a + 1 + Cbench.Rng.int rng 200
          in
          (1, a, max 0 (min (nvars - 1) b))
        else if r < 70 then
          (* re-derived constraints: the dedup-table hot path *)
          let a = Cbench.Rng.int rng nvars in
          (1, a, min (nvars - 1) (a + 1 + Cbench.Rng.int rng 8))
        else if r < 82 then (2, Cbench.Rng.int rng nvars, 0)
        else if r < 94 then (3, Cbench.Rng.int rng nvars, 0)
        else (5, Cbench.Rng.int rng nvars, 0))

let replay_arena sp top ops nvars =
  let st = TS.create sp in
  let v = Array.init nvars (fun _ -> TS.fresh st) in
  Array.iter
    (fun (tag, a, b) ->
      match tag with
      | 1 -> TS.add_leq_vv st v.(a) v.(b)
      | 2 -> TS.add_leq_cv st top v.(a)
      | 3 -> TS.add_leq_vc st v.(a) top
      | 4 -> ignore (TS.solve st)
      | _ -> ignore (TS.least st v.(a)))
    ops;
  ignore (TS.solve st);
  (st, v)

let replay_ref sp top ops nvars =
  let st = RS.create sp in
  let v = Array.init nvars (fun _ -> RS.fresh st) in
  Array.iter
    (fun (tag, a, b) ->
      match tag with
      | 1 -> RS.add_leq_vv st v.(a) v.(b)
      | 2 -> RS.add_leq_cv st top v.(a)
      | 3 -> RS.add_leq_vc st v.(a) top
      | 4 -> ignore (RS.solve st)
      | _ -> ignore (RS.least st v.(a)))
    ops;
  ignore (RS.solve st);
  (st, v)

(* everything observable: structural counters plus sampled solutions *)
let arena_digest sp (st, v) =
  let s = TS.stats st in
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "vars=%d unified=%d edges=%d deduped=%d cycles=%d \
                     incr=%d full=%d pops=%d\n"
       s.TS.vars_created s.TS.vars_unified s.TS.edges_added
       s.TS.edges_deduped s.TS.cycles_collapsed s.TS.incr_solves
       s.TS.full_solves s.TS.worklist_pops);
  let n = Array.length v in
  let step = max 1 (n / 64) in
  let i = ref 0 in
  while !i < n do
    Buffer.add_string b
      (Fmt.str "%d:%a/%a\n" !i
         (Typequal.Lattice.Elt.pp sp)
         (TS.least st v.(!i))
         (Typequal.Lattice.Elt.pp sp)
         (TS.greatest st v.(!i)));
    i := !i + step
  done;
  Buffer.contents b

let ref_digest sp (st, v) =
  let s = RS.stats st in
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "vars=%d unified=%d edges=%d deduped=%d cycles=%d \
                     incr=%d full=%d pops=%d\n"
       s.RS.vars_created s.RS.vars_unified s.RS.edges_added
       s.RS.edges_deduped s.RS.cycles_collapsed s.RS.incr_solves
       s.RS.full_solves s.RS.worklist_pops);
  let n = Array.length v in
  let step = max 1 (n / 64) in
  let i = ref 0 in
  while !i < n do
    Buffer.add_string b
      (Fmt.str "%d:%a/%a\n" !i
         (Typequal.Lattice.Elt.pp sp)
         (RS.least st v.(!i))
         (Typequal.Lattice.Elt.pp sp)
         (RS.greatest st v.(!i)));
    i := !i + step
  done;
  Buffer.contents b

(* the user-visible report of a run, rendered to a string: identical
   across job counts AND across --no-compact (compaction/memoization are
   observationally invisible) *)
let report_digest (r : Report.results) =
  let b = Buffer.create 4096 in
  List.iter
    (fun pv -> Buffer.add_string b (Fmt.str "%a\n" Report.pp_position pv))
    r.Report.positions;
  Buffer.add_string b
    (Printf.sprintf "declared=%d possible=%d must=%d total=%d errors=%d\n"
       r.Report.declared r.Report.possible r.Report.must r.Report.total
       r.Report.type_errors);
  List.iter (fun w -> Buffer.add_string b ("warning " ^ w ^ "\n")) r.Report.warnings;
  Buffer.contents b

(* the report plus the structural solver counters (wall-clock and heap
   fields excluded): must be identical across job counts *)
let scale_digest (r : Report.results) (st : TS.stats) =
  let b = Buffer.create 4096 in
  Buffer.add_string b (report_digest r);
  Buffer.add_string b
    (Printf.sprintf "vars=%d unified=%d edges=%d deduped=%d cycles=%d pops=%d\n"
       st.TS.vars_created st.TS.vars_unified st.TS.edges_added
       st.TS.edges_deduped st.TS.cycles_collapsed st.TS.worklist_pops);
  Buffer.contents b

let scale () =
  Fmt.pr
    "@.=== Scale: flat-arena core, million-line multi-file project ===@.";
  let cores = Typequal.Pool.cores_available () in
  Fmt.pr "cores available: %d%s@." cores
    (if cores < 2 then
       " (single-core machine: jobs rows measure overhead, not speedup)"
     else "");

  (* ---- the corpus ---- *)
  let b = List.hd Cbench.Suite.scale in
  let target =
    match Sys.getenv_opt "TYPEQUAL_SCALE_LINES" with
    | Some v -> ( try int_of_string v with _ -> b.Cbench.Suite.b_lines)
    | None -> b.Cbench.Suite.b_lines
  in
  let t0 = Unix.gettimeofday () in
  let files =
    Cbench.Gen.generate_project ~seed:b.Cbench.Suite.b_seed
      ~target_lines:target ()
  in
  let gen_s = Unix.gettimeofday () -. t0 in
  let lines = Cbench.Gen.project_lines files in
  let t0 = Unix.gettimeofday () in
  let prog = Session.program (Session.create files) in
  let compile_s = Unix.gettimeofday () -. t0 in
  let nfun = List.length (Cfront.Cprog.functions prog) in
  let fdg = Fdg.build prog in
  Fmt.pr
    "corpus %s: %d files, %d lines, %d functions; %d sccs (largest %d), \
     wavefront width %d@."
    b.Cbench.Suite.b_name (List.length files) lines nfun
    (Fdg.scc_count fdg) (Fdg.largest_scc fdg) (Fdg.wavefront_width fdg);
  Fmt.pr "generate %.2fs, parse %.2fs@.@." gen_s compile_s;

  (* ---- jobs sweep: wall time, peak heap, counters, digest ---- *)
  Fmt.pr "%-5s %11s %9s %14s %12s %9s@." "jobs" "analyze(s)" "speedup"
    "top_heap(Mw)" "vars" "possible";
  let jrows = ref [] in
  let digests = ref [] in
  let base = ref nan in
  List.iter
    (fun jobs ->
      (* honesty: a jobs-N wall time on a host with fewer than N cores
         measures scheduler contention, not speedup — record the row as
         skipped with the reason instead of publishing a fake number *)
      let cores_ok = cores >= jobs in
      if (not cores_ok) && jobs > 1 then begin
        let reason =
          Printf.sprintf
            "host has %d core%s; a jobs-%d row would measure contention, \
             not speedup"
            cores
            (if cores = 1 then "" else "s")
            jobs
        in
        Fmt.pr "%-5d %11s  skipped: %s@." jobs "-" reason;
        jrows :=
          Jobj
            [
              ("jobs", ji jobs);
              ("cores_available", ji cores);
              ("cores_ok", jb false);
              ("skipped", jb true);
              ("reason", Jstr reason);
            ]
          :: !jrows
      end
      else begin
        let t0 = Unix.gettimeofday () in
        let env, ifaces = Analysis.run ~jobs Analysis.Poly prog in
        let r = Report.measure env ifaces in
        let analyze_s = Unix.gettimeofday () -. t0 in
        if jobs = 1 then base := analyze_s;
        let st = Analysis.stats env in
        digests := (jobs, scale_digest r st) :: !digests;
        Fmt.pr "%-5d %11.3f %8.2fx %14.1f %12d %9d@." jobs analyze_s
          (!base /. analyze_s)
          (float st.TS.top_heap_words /. 1e6)
          st.TS.vars_created r.Report.possible;
        jrows :=
          Jobj
            [
              ("jobs", ji jobs);
              ("cores_available", ji cores);
              ("cores_ok", jb cores_ok);
              ("skipped", jb false);
              ("analyze_s", jf analyze_s);
              ("speedup_vs_serial", jf (!base /. analyze_s));
              ("possible", ji r.Report.possible);
              ("type_errors", ji r.Report.type_errors);
              ("solver", jstats st);
            ]
          :: !jrows
      end)
    [ 1; 2; 4; 8 ];
  let ok = ref true in
  let check name cond detail =
    Fmt.pr "  [%s] %s%s@." (if cond then "ok" else "FAIL") name detail;
    if not cond then ok := false
  in
  let d1 = List.assoc 1 !digests in
  List.iter
    (fun (jobs, d) ->
      if jobs <> 1 then
        check
          (Printf.sprintf "report at jobs=%d byte-identical to serial" jobs)
          (d = d1) "")
    !digests;

  (* ---- ablation: arena core vs the pre-arena (PR 5) store ---- *)
  (* sized to the 32-kloc workloads of the parallel/compaction sections:
     a 32-kloc poly analysis creates ~1 qualifier variable per line *)
  Fmt.pr "@.--- ablation: flat arena vs pre-arena solver core ---@.";
  let sp = Analysis.const_space in
  let top = Typequal.Lattice.Elt.top sp in
  let nvars = 32_000 and nops = 320_000 in
  let ops = ablation_ops ~nvars ~nops in
  Fmt.pr "constraint stream: %d vars, %d ops (edges/bounds/solves)@." nvars
    nops;
  let arena_s = time_best 3 (fun () -> replay_arena sp top ops nvars) in
  let ref_s = time_best 3 (fun () -> replay_ref sp top ops nvars) in
  let da = arena_digest sp (replay_arena sp top ops nvars) in
  let dr = ref_digest sp (replay_ref sp top ops nvars) in
  Fmt.pr "arena %.4fs, pre-arena %.4fs: %.2fx@." arena_s ref_s
    (ref_s /. arena_s);
  check "ablation: counters and solutions byte-identical" (da = dr) "";
  check "ablation: arena >= 2x faster at jobs=1"
    (ref_s /. arena_s >= 2.)
    (Printf.sprintf " measured %.2fx" (ref_s /. arena_s));
  Fmt.pr "%s@."
    (if !ok then "ALL SCALE CHECKS PASSED" else "SCALE CHECKS FAILED");

  (* ---- BENCH_scale.json ---- *)
  let buf = Buffer.create 4096 in
  pp_json buf
    (Jobj
       [
         ("paper", Jstr "A Theory of Type Qualifiers (PLDI 1999)");
         ("env", jenv ());
         ("corpus", Jstr b.Cbench.Suite.b_name);
         ("files", ji (List.length files));
         ("lines", ji lines);
         ("functions", ji nfun);
         ("generate_s", jf gen_s);
         ("compile_s", jf compile_s);
         ("t_compile_s", jf compile_s);
         ("mode", Jstr "poly");
         ("runs", Jlist (List.rev !jrows));
         ("reports_identical_across_jobs", jb (List.for_all (fun (_, d) -> d = d1) !digests));
         ( "ablation",
           Jobj
             [
               ("workload_vars", ji nvars);
               ("workload_ops", ji nops);
               ("arena_s", jf arena_s);
               ("pre_arena_s", jf ref_s);
               ("speedup", jf (ref_s /. arena_s));
               ("identical", jb (da = dr));
             ] );
         ("all_checks_passed", jb !ok);
       ]);
  let oc = open_out "BENCH_scale.json" in
  output_string oc (Buffer.contents buf);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "@.wrote BENCH_scale.json@.";
  if not !ok then exit 1

(* ------------------------------------------------------------------ *)
(* Hot path: per-phase wall-time breakdown (congen / generalize /      *)
(* compact / instantiate / solve / absorb / report), the memo's hit    *)
(* and rejection counters, and the compact/no-compact and jobs-1/4     *)
(* parity checks — on the CI-sized multi-file corpus by default        *)
(* (TYPEQUAL_HOTPATH_CORPUS=mega for the million-line one,             *)
(* TYPEQUAL_HOTPATH_LINES=N to resize). Writes BENCH_hotpath.json.     *)
(* TYPEQUAL_HOTPATH_MAX_US_PER_LINE, when set (CI's perf-smoke soft    *)
(* ceiling), fails the section if the serial compact run exceeds it.   *)
(* ------------------------------------------------------------------ *)

let hotpath () =
  Fmt.pr "@.=== Hot path: phase breakdown, memo, splice merge ===@.";
  let b =
    match Sys.getenv_opt "TYPEQUAL_HOTPATH_CORPUS" with
    | Some "mega" -> List.hd Cbench.Suite.scale
    | _ -> List.hd Cbench.Suite.scale_smoke
  in
  let target =
    match Sys.getenv_opt "TYPEQUAL_HOTPATH_LINES" with
    | Some v -> ( try int_of_string v with _ -> b.Cbench.Suite.b_lines)
    | None -> b.Cbench.Suite.b_lines
  in
  let files =
    Cbench.Gen.generate_project ~seed:b.Cbench.Suite.b_seed
      ~target_lines:target ()
  in
  let lines = Cbench.Gen.project_lines files in
  let t0 = Unix.gettimeofday () in
  let prog = Session.program (Session.create files) in
  let t_compile_s = Unix.gettimeofday () -. t0 in
  let nfun = List.length (Cfront.Cprog.functions prog) in
  Fmt.pr "corpus %s: %d lines, %d functions@.@." b.Cbench.Suite.b_name lines
    nfun;
  (* one measured analysis per configuration; Report.measure is timed
     into the Report phase the way the CLI driver does it (minus the
     nested solve) *)
  let run ~jobs ~compact =
    let t0 = Unix.gettimeofday () in
    let env, ifaces = Analysis.run ~jobs ~compact Analysis.Poly prog in
    let st = env.Analysis.store in
    let t1 = Unix.gettimeofday () in
    let solve0 = (TS.stats st).TS.solve_s in
    let r = Report.measure env ifaces in
    let t2 = Unix.gettimeofday () in
    let solve_d = (TS.stats st).TS.solve_s -. solve0 in
    TS.note_phase st TS.Report (Float.max 0. (t2 -. t1 -. solve_d));
    (t2 -. t0, r, Analysis.stats env)
  in
  let configs = [ (1, true); (4, true); (1, false); (4, false) ] in
  let results =
    List.map (fun (jobs, compact) -> ((jobs, compact), run ~jobs ~compact))
      configs
  in
  Fmt.pr "%-14s %10s %8s %7s %7s %7s %7s %7s %7s %7s@." "config"
    "analyze(s)" "us/line" "congen" "genrlz" "compct" "instnt" "solve"
    "absorb" "report";
  let rows = ref [] in
  List.iter
    (fun ((jobs, compact), (t, _, st)) ->
      let upl = t *. 1e6 /. float lines in
      Fmt.pr "jobs %d %-7s %10.3f %8.2f %7.2f %7.2f %7.2f %7.2f %7.2f %7.2f %7.2f@."
        jobs
        (if compact then "compact" else "nocmpct")
        t upl st.TS.congen_s st.TS.generalize_s st.TS.compact_s
        st.TS.instantiate_s st.TS.solve_s st.TS.absorb_s st.TS.report_s;
      rows :=
        Jobj
          [
            ("jobs", ji jobs);
            ("compact", jb compact);
            ("analyze_s", jf t);
            ("us_per_line", jf upl);
            ("solver", jstats st);
          ]
        :: !rows)
    results;
  let ok = ref true in
  let check name cond detail =
    Fmt.pr "  [%s] %s%s@." (if cond then "ok" else "FAIL") name detail;
    if not cond then ok := false
  in
  let t11, r11, s11 = List.assoc (1, true) results in
  let _, r41, s41 = List.assoc (4, true) results in
  let _, r10, _ = List.assoc (1, false) results in
  let _, r40, _ = List.assoc (4, false) results in
  Fmt.pr "@.";
  check "report+counters at jobs=4 identical to serial"
    (scale_digest r41 s41 = scale_digest r11 s11)
    "";
  check "--no-compact report identical (jobs 1)"
    (report_digest r10 = report_digest r11)
    "";
  check "--no-compact report identical (jobs 4)"
    (report_digest r40 = report_digest r11)
    "";
  check "instantiation memo fires at scale"
    (s11.TS.instantiations_memo_hits > 0)
    (Printf.sprintf " (%d hits / %d candidates)"
       s11.TS.instantiations_memo_hits s11.TS.memo_candidates);
  check "memo counters identical across jobs"
    ((s11.TS.instantiations_memo_hits, s11.TS.memo_candidates,
      s11.TS.memo_misses, s11.TS.memo_reject_nonflat_ret,
      s11.TS.memo_reject_may_violate)
    = (s41.TS.instantiations_memo_hits, s41.TS.memo_candidates,
       s41.TS.memo_misses, s41.TS.memo_reject_nonflat_ret,
       s41.TS.memo_reject_may_violate))
    "";
  let serial_upl = t11 *. 1e6 /. float lines in
  (match Sys.getenv_opt "TYPEQUAL_HOTPATH_MAX_US_PER_LINE" with
  | Some v -> (
      match float_of_string_opt v with
      | Some ceiling ->
          check "serial us/line under the perf-smoke ceiling"
            (serial_upl <= ceiling)
            (Printf.sprintf " (%.2f <= %.2f)" serial_upl ceiling)
      | None -> ())
  | None -> ());
  Fmt.pr "%s@."
    (if !ok then "ALL HOTPATH CHECKS PASSED" else "HOTPATH CHECKS FAILED");
  let buf = Buffer.create 4096 in
  pp_json buf
    (Jobj
       [
         ("paper", Jstr "A Theory of Type Qualifiers (PLDI 1999)");
         ("env", jenv ());
         ("corpus", Jstr b.Cbench.Suite.b_name);
         ("lines", ji lines);
         ("functions", ji nfun);
         ("mode", Jstr "poly");
         ("t_compile_s", jf t_compile_s);
         ("serial_us_per_line", jf serial_upl);
         ("runs", Jlist (List.rev !rows));
         ("all_checks_passed", jb !ok);
       ]);
  let oc = open_out "BENCH_hotpath.json" in
  output_string oc (Buffer.contents buf);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "@.wrote BENCH_hotpath.json@.";
  if not !ok then exit 1

(* ------------------------------------------------------------------ *)
(* Persistent cache: cold vs warm-noop vs one-dirty-unit on the       *)
(* CI smoke corpus, plus a fault-injection sweep asserting that every  *)
(* corruption mode is rejected and recomputed to a byte-identical      *)
(* report; writes BENCH_cache.json                                     *)
(* ------------------------------------------------------------------ *)

module Cache = Typequal.Cache

let cache_bench () =
  Fmt.pr "@.=== Persistent cache: cold / warm / dirty-unit / faults ===@.";
  let b = List.hd Cbench.Suite.scale_smoke in
  let target =
    match Sys.getenv_opt "TYPEQUAL_CACHE_LINES" with
    | Some v -> ( try int_of_string v with _ -> b.Cbench.Suite.b_lines)
    | None -> b.Cbench.Suite.b_lines
  in
  let files =
    Cbench.Gen.generate_project ~seed:b.Cbench.Suite.b_seed
      ~target_lines:target ()
  in
  Fmt.pr "corpus %s: %d files, %d lines@." b.Cbench.Suite.b_name
    (List.length files)
    (Cbench.Gen.project_lines files);
  let dir =
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "typequal-cache-bench-%d" (Unix.getpid ()))
    in
    (try Sys.mkdir d 0o755 with Sys_error _ -> ());
    d
  in
  let open_cache () =
    match Session.open_cache ~opts_id:"bench" dir with
    | Some cs -> cs
    | None -> failwith "cache bench: cannot open cache directory"
  in
  let digest (r : Session.run) =
    scale_digest r.Session.results r.Session.solver_stats
  in
  let compile_s = ref 0. in
  let timed_run files =
    let cs = open_cache () in
    let t0 = Unix.gettimeofday () in
    let r = Session.run (Session.create ~mode:Analysis.Poly ~cache:cs files) in
    compile_s := r.Session.timing.Session.t_compile;
    (Unix.gettimeofday () -. t0, digest r, Cache.stats cs.Session.cs_cache)
  in
  let ok = ref true in
  let check name cond detail =
    Fmt.pr "  [%s] %s%s@." (if cond then "ok" else "FAIL") name detail;
    if not cond then ok := false
  in
  cache_used := true;

  (* ---- cold populate, warm no-op ---- *)
  let t_cold, d_cold, st_cold = timed_run files in
  let t_compile_cold = !compile_s in
  Fmt.pr "cold  %.3fs (%d entries written)@." t_cold
    (List.length (Cache.entry_files (open_cache ()).Session.cs_cache));
  let t_warm, d_warm, st_warm = timed_run files in
  Fmt.pr "warm  %.3fs: %.1fx (run-tier hits %d)@." t_warm (t_cold /. t_warm)
    st_warm.Cache.hits;
  check "cold run has no hits" (st_cold.Cache.hits = 0) "";
  check "warm report byte-identical to cold" (d_warm = d_cold) "";
  check "warm run is a whole-run hit"
    (match Hashtbl.find_opt st_warm.Cache.by_kind "run" with
    | Some (1, 0) -> true
    | _ -> false)
    "";
  check "warm no-op at least 5x faster than cold"
    (t_cold /. t_warm >= 5.)
    (Printf.sprintf " measured %.1fx" (t_cold /. t_warm));

  (* ---- fault injection: corrupt the warm state, demand a counted
     reject and a byte-identical recomputation. Runs before the
     dirty-unit measurement so the cache holds exactly one run entry.
     ---- *)
  let read_file path = In_channel.with_open_bin path In_channel.input_all in
  let write_file path s =
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)
  in
  let flip path off =
    let s = Bytes.of_string (read_file path) in
    Bytes.set s off (Char.chr (Char.code (Bytes.get s off) lxor 0xff));
    write_file path (Bytes.to_string s)
  in
  let entry_with prefix =
    List.find
      (fun p ->
        String.length (Filename.basename p) >= String.length prefix
        && String.sub (Filename.basename p) 0 (String.length prefix) = prefix)
      (Cache.entry_files (open_cache ()).Session.cs_cache)
  in
  let jfaults = ref [] in
  let fault name cause corrupt =
    (* re-warm so every fault starts from a fully-populated cache *)
    let _ = timed_run files in
    corrupt ();
    let _, d, st = timed_run files in
    let rejected =
      match Hashtbl.find_opt st.Cache.rejects cause with
      | Some n -> n >= 1
      | None -> false
    in
    check
      (Printf.sprintf "fault %-12s rejected as %s, report identical" name
         cause)
      (rejected && d = d_cold) "";
    jfaults :=
      Jobj
        [
          ("fault", Jstr name);
          ("cause", Jstr cause);
          ("rejected", jb rejected);
          ("report_identical", jb (d = d_cold));
        ]
      :: !jfaults
  in
  fault "truncate" "truncated" (fun () ->
      let p = entry_with "run-" in
      let s = read_file p in
      write_file p (String.sub s 0 (String.length s / 2)));
  fault "bit-flip" "corrupt" (fun () ->
      let p = entry_with "run-" in
      flip p (String.length (read_file p) - 1));
  fault "bad-magic" "bad-magic" (fun () -> flip (entry_with "run-") Cache.off_magic);
  fault "version-skew" "bad-version" (fun () ->
      flip (entry_with "run-") (Cache.off_version + 1));

  (* ---- one dirty unit: touch the last file's content; only its parse
     may be redone, every other unit comes from the unit tier ---- *)
  let _ = timed_run files in
  let dirty =
    match List.rev files with
    | (name, src) :: rest -> List.rev ((name, src ^ "\n") :: rest)
    | [] -> assert false
  in
  let t_dirty, d_dirty, st_dirty = timed_run dirty in
  let unit_hits, unit_misses =
    match Hashtbl.find_opt st_dirty.Cache.by_kind "unit" with
    | Some hm -> hm
    | None -> (0, 0)
  in
  Fmt.pr "dirty %.3fs: %.2fx of cold (%d of %d units re-parsed)@." t_dirty
    (t_cold /. t_dirty) unit_misses (unit_hits + unit_misses);
  check "dirty-unit report byte-identical to cold" (d_dirty = d_cold) "";
  check "exactly one unit miss"
    ((unit_hits, unit_misses) = (List.length files - 1, 1))
    (Printf.sprintf " (unit tier %d hits / %d misses)" unit_hits unit_misses);
  Fmt.pr "%s@."
    (if !ok then "ALL CACHE CHECKS PASSED" else "CACHE CHECKS FAILED");

  (* ---- BENCH_cache.json ---- *)
  let buf = Buffer.create 4096 in
  pp_json buf
    (Jobj
       [
         ("paper", Jstr "A Theory of Type Qualifiers (PLDI 1999)");
         ("env", jenv ());
         ("corpus", Jstr b.Cbench.Suite.b_name);
         ("files", ji (List.length files));
         ("lines", ji (Cbench.Gen.project_lines files));
         ("mode", Jstr "poly");
         ("cold_s", jf t_cold);
         ("dirty_unit_s", jf t_dirty);
         ("t_compile_s", jf t_compile_cold);
         ("warm_s", jf t_warm);
         ("warm_speedup", jf (t_cold /. t_warm));
         ("dirty_speedup", jf (t_cold /. t_dirty));
         ("unit_tier_hits", ji unit_hits);
         ("unit_tier_misses", ji unit_misses);
         ("reports_identical", jb (d_warm = d_cold && d_dirty = d_cold));
         ("faults", Jlist (List.rev !jfaults));
         ("all_checks_passed", jb !ok);
       ]);
  let oc = open_out "BENCH_cache.json" in
  output_string oc (Buffer.contents buf);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "@.wrote BENCH_cache.json@.";
  cache_used := false;
  (* scratch cache cleanup *)
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
       (Sys.readdir dir);
     Sys.rmdir dir
   with Sys_error _ -> ());
  if not !ok then exit 1

(* ------------------------------------------------------------------ *)
(* Frontend: per-unit parse+link vs one whole-program parse of the     *)
(* concatenated units — compile-phase wall time and peak heap on the   *)
(* million-line corpus, byte-identical reports at jobs 1/4 and against *)
(* the one-unit parse, zero link reparses on the generated corpus, and *)
(* the per-unit AST cache re-parsing exactly the dirty unit; writes     *)
(* BENCH_frontend.json. TYPEQUAL_FRONTEND_LINES overrides the target.  *)
(* ------------------------------------------------------------------ *)

let frontend_bench () =
  Fmt.pr "@.=== Frontend: per-unit parse+link vs one whole-program parse ===@.";
  let b = List.hd Cbench.Suite.scale in
  let target =
    match Sys.getenv_opt "TYPEQUAL_FRONTEND_LINES" with
    | Some v -> ( try int_of_string v with _ -> b.Cbench.Suite.b_lines)
    | None -> b.Cbench.Suite.b_lines
  in
  let files =
    Cbench.Gen.generate_project ~seed:b.Cbench.Suite.b_seed
      ~target_lines:target ()
  in
  let lines = Cbench.Gen.project_lines files in
  Fmt.pr "corpus %s: %d files, %d lines@.@." b.Cbench.Suite.b_name
    (List.length files) lines;
  let ok = ref true in
  let check name cond detail =
    Fmt.pr "  [%s] %s%s@." (if cond then "ok" else "FAIL") name detail;
    if not cond then ok := false
  in
  (* the same sources as a single translation unit: what a whole-program
     parse sees, and the oracle the linked program must agree with *)
  let whole = [ ("whole.c", fst (Cfront.Cprog.concat_units files)) ] in
  (* compile alone: the first diagnostics query parses and links *)
  let compile_only ~jobs units =
    let s = Session.create ~mode:Analysis.Mono ~jobs units in
    let t0 = Unix.gettimeofday () in
    ignore (Session.diagnostics s);
    let t = Unix.gettimeofday () -. t0 in
    (s, t, (Gc.quick_stat ()).Gc.top_heap_words)
  in

  (* ---- compile phase: wall time and peak heap ---- *)
  (* top_heap_words is a process-lifetime peak, so the lean path must be
     measured FIRST and both compiles must precede any analysis: if the
     one-unit compile then pushes the peak higher, the excess is
     attributable to the whole-program parse *)
  let s_pu, t_pu, heap_pu = compile_only ~jobs:1 files in
  let s_cc, t_cc, heap_cc = compile_only ~jobs:1 whole in
  let r_pu1 = Session.run s_pu and r_cc = Session.run s_cc in
  let fs =
    match r_pu1.Session.frontend with Some fs -> fs | None -> assert false
  in
  Fmt.pr "%-10s %10s %14s@." "frontend" "compile(s)" "top_heap(Mw)";
  Fmt.pr "%-10s %10.3f %14.1f@." "per-unit" t_pu (float heap_pu /. 1e6);
  Fmt.pr "%-10s %10.3f %14.1f@." "one-unit" t_cc (float heap_cc /. 1e6);
  Fmt.pr
    "per-unit phases: %d units, %d reparsed, lex %.3fs, parse %.3fs, build \
     %.3fs, link %.3fs@."
    fs.Session.fs_units fs.Session.fs_reparsed fs.Session.fs_lex_s
    fs.Session.fs_parse_s fs.Session.fs_build_s fs.Session.fs_link_s;
  let s_pu4, t_pu4, _ = compile_only ~jobs:4 files in
  let r_pu4 = Session.run s_pu4 in
  Fmt.pr "per-unit at jobs 4: %.3fs (%.2fx vs serial per-unit)@.@." t_pu4
    (t_pu /. t_pu4);
  check "no link reparses on the generated corpus"
    (fs.Session.fs_reparsed = 0)
    (Printf.sprintf " (%d)" fs.Session.fs_reparsed);
  (* recorded, not enforced: the one-unit parse now shares the per-unit
     lexer and parser, so only parallelism and linking separate them *)
  Fmt.pr "  serial compile: per-unit %.2fx of one-unit@." (t_cc /. t_pu);
  check "per-unit compile peak heap strictly below one-unit's"
    (heap_pu < heap_cc)
    (Printf.sprintf " (%.1f Mw vs %.1f Mw)" (float heap_pu /. 1e6)
       (float heap_cc /. 1e6));

  (* ---- parity: serial, jobs 4 and the one-unit oracle ---- *)
  (* the scale digest plus the diagnostics: everything a user sees (the
     one-unit oracle's diagnostics point into whole.c, so only their
     codes and messages are compared) *)
  let fdigest (r : Session.run) =
    scale_digest r.Session.results r.Session.solver_stats
    ^ String.concat "\n"
        (List.sort compare
           (List.map
              (fun d -> d.Cfront.Diag.d_code ^ " " ^ d.Cfront.Diag.d_message)
              r.Session.diagnostics))
  in
  let d_pu1 = fdigest r_pu1 and d_cc = fdigest r_cc and d_pu4 = fdigest r_pu4 in
  check "report+diags byte-identical: linked units vs one unit" (d_pu1 = d_cc) "";
  check "report+diags byte-identical across jobs (per-unit)" (d_pu1 = d_pu4) "";

  (* ---- per-unit AST cache: editing one file re-parses only that file ---- *)
  let bs = List.hd Cbench.Suite.scale_smoke in
  let sfiles =
    Cbench.Gen.generate_project ~seed:bs.Cbench.Suite.b_seed
      ~target_lines:bs.Cbench.Suite.b_lines ()
  in
  let nunits = List.length sfiles in
  let dir =
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "typequal-frontend-bench-%d" (Unix.getpid ()))
    in
    (try Sys.mkdir d 0o755 with Sys_error _ -> ());
    d
  in
  cache_used := true;
  let cached_run files =
    match Session.open_cache ~opts_id:"bench" dir with
    | None -> failwith "frontend bench: cannot open cache directory"
    | Some cs ->
        let r = Session.run (Session.create ~mode:Analysis.Mono ~cache:cs files) in
        (fdigest r, Cache.stats cs.Session.cs_cache)
  in
  let unit_counts (st : Cache.stats) =
    match Hashtbl.find_opt st.Cache.by_kind "unit" with
    | Some hm -> hm
    | None -> (0, 0)
  in
  let d_cold, st_cold = cached_run sfiles in
  let cold_hits, cold_misses = unit_counts st_cold in
  check
    (Printf.sprintf "cold run parses all %d units fresh" nunits)
    ((cold_hits, cold_misses) = (0, nunits))
    (Printf.sprintf " (unit tier %d hits / %d misses)" cold_hits cold_misses);
  let dirty =
    match List.rev sfiles with
    | (name, src) :: rest -> List.rev ((name, src ^ "\n") :: rest)
    | [] -> assert false
  in
  let d_dirty, st_dirty = cached_run dirty in
  let dirty_hits, dirty_misses = unit_counts st_dirty in
  check "dirty unit re-parses exactly one unit"
    ((dirty_hits, dirty_misses) = (nunits - 1, 1))
    (Printf.sprintf " (unit tier %d hits / %d misses)" dirty_hits
       dirty_misses);
  check "dirty-unit report byte-identical to cold" (d_dirty = d_cold) "";
  cache_used := false;
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
       (Sys.readdir dir);
     Sys.rmdir dir
   with Sys_error _ -> ());
  Fmt.pr "%s@."
    (if !ok then "ALL FRONTEND CHECKS PASSED" else "FRONTEND CHECKS FAILED");

  (* ---- BENCH_frontend.json ---- *)
  let buf = Buffer.create 4096 in
  pp_json buf
    (Jobj
       [
         ("paper", Jstr "A Theory of Type Qualifiers (PLDI 1999)");
         ("env", jenv ());
         ("corpus", Jstr b.Cbench.Suite.b_name);
         ("files", ji (List.length files));
         ("lines", ji lines);
         ( "per_unit",
           Jobj
             [
               ("t_compile_s", jf t_pu);
               ("top_heap_words", ji heap_pu);
               ("units", ji fs.Session.fs_units);
               ("reparsed", ji fs.Session.fs_reparsed);
               ("lex_s", jf fs.Session.fs_lex_s);
               ("parse_s", jf fs.Session.fs_parse_s);
               ("build_s", jf fs.Session.fs_build_s);
               ("link_s", jf fs.Session.fs_link_s);
             ] );
         ( "one_unit",
           Jobj
             [ ("t_compile_s", jf t_cc); ("top_heap_words", ji heap_cc) ] );
         ("compile_speedup_serial", jf (t_cc /. t_pu));
         ("per_unit_jobs4_t_compile_s", jf t_pu4);
         ("reports_identical", jb (d_pu1 = d_cc && d_pu1 = d_pu4));
         ( "dirty_unit",
           Jobj
             [
               ("units", ji nunits);
               ("unit_tier_hits", ji dirty_hits);
               ("unit_tier_misses", ji dirty_misses);
               ("report_identical", jb (d_dirty = d_cold));
             ] );
         ("all_checks_passed", jb !ok);
       ]);
  let oc = open_out "BENCH_frontend.json" in
  output_string oc (Buffer.contents buf);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "@.wrote BENCH_frontend.json@.";
  if not !ok then exit 1

(* ------------------------------------------------------------------ *)
(* Daemon: the persistent Session that typequald serves — cold         *)
(* analysis vs warm position queries vs single-unit edit + re-query on *)
(* the CI smoke corpus; writes BENCH_daemon.json.                      *)
(* TYPEQUAL_DAEMON_LINES overrides the line target.                    *)
(* ------------------------------------------------------------------ *)

let percentile sorted p =
  (* nearest-rank on an ascending float array *)
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(min (n - 1) (int_of_float (ceil (p /. 100. *. float n)) - 1))

let percentiles samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  (percentile a 50., percentile a 90., percentile a 99.)

let daemon_bench () =
  Fmt.pr "@.=== Daemon: warm Session queries vs cold re-analysis ===@.";
  let b = List.hd Cbench.Suite.scale_smoke in
  let target =
    match Sys.getenv_opt "TYPEQUAL_DAEMON_LINES" with
    | Some v -> ( try int_of_string v with _ -> b.Cbench.Suite.b_lines)
    | None -> b.Cbench.Suite.b_lines
  in
  let files =
    Cbench.Gen.generate_project ~seed:b.Cbench.Suite.b_seed
      ~target_lines:target ()
  in
  let lines = Cbench.Gen.project_lines files in
  Fmt.pr "corpus %s: %d files, %d lines@.@." b.Cbench.Suite.b_name
    (List.length files) lines;
  let ok = ref true in
  let check name cond detail =
    Fmt.pr "  [%s] %s%s@." (if cond then "ok" else "FAIL") name detail;
    if not cond then ok := false
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in

  (* ---- cold: fresh session, full analysis (the daemon's startup) ---- *)
  let cold_runs = 3 in
  let cold_samples =
    List.init cold_runs (fun _ ->
        let t = Session.create files in
        snd (time (fun () -> Session.run t)))
  in
  let cold_p50, cold_p90, cold_p99 = percentiles cold_samples in
  Fmt.pr "cold analysis (%d runs): p50 %.3fs, p90 %.3fs, p99 %.3fs@."
    cold_runs cold_p50 cold_p90 cold_p99;

  (* ---- warm queries against a live session ---- *)
  let t = Session.create files in
  ignore (Session.run t);
  let keys =
    match Session.positions t with
    | [] -> failwith "daemon bench: no positions"
    | ps -> Array.of_list (List.map (fun (k, _, _) -> k) ps)
  in
  let nq = 200 in
  let query_samples =
    List.init nq (fun i ->
        let k = keys.(i mod Array.length keys) in
        let r, dt = time (fun () -> Session.classify t k) in
        if r = None then failwith ("daemon bench: unknown key " ^ k);
        dt)
  in
  let q_p50, q_p90, q_p99 = percentiles query_samples in
  Fmt.pr "warm query (%d samples): p50 %.3fms, p90 %.3fms, p99 %.3fms@." nq
    (q_p50 *. 1e3) (q_p90 *. 1e3) (q_p99 *. 1e3);

  (* ---- warm what-if queries against the same live session ---- *)
  (* the first whatif builds the store's what-if index; warm means after
     it, like the classify samples above *)
  let whatif k =
    match Session.whatif t ~qual:"const" k with
    | Ok w -> w
    | Error m -> failwith ("daemon bench: whatif " ^ k ^ ": " ^ m)
  in
  ignore (whatif keys.(0));
  let whatif_samples =
    List.init nq (fun i ->
        let k = keys.(i * 7919 mod Array.length keys) in
        snd (time (fun () -> whatif k)))
  in
  let w_p50, w_p90, w_p99 = percentiles whatif_samples in
  Fmt.pr "warm whatif (%d samples): p50 %.3fms, p90 %.3fms, p99 %.3fms@." nq
    (w_p50 *. 1e3) (w_p90 *. 1e3) (w_p99 *. 1e3);

  (* ---- single-unit edit + re-query ---- *)
  (* alternate appending and restoring one unit's source so every step
     is a real digest change; each sample is the daemon's full
     edit-to-answer path: update, re-run, classify. The edit moves no
     definition, so the warm rerun keeps every task: what remains is the
     re-parse of the unit, the graph, the store rebuild and the report *)
  let edit_name, edit_src =
    match List.rev files with (n, s) :: _ -> (n, s) | [] -> assert false
  in
  let n_edits = 10 in
  let st0 = Session.stats t in
  let rerun = ref 0 and full = ref 0 in
  let edit_samples =
    List.init n_edits (fun i ->
        let src = if i mod 2 = 0 then edit_src ^ "\n" else edit_src in
        let dt =
          snd
            (time (fun () ->
                 (match Session.update_unit t edit_name src with
                 | `Updated -> ()
                 | `Added | `Unchanged ->
                     failwith "daemon bench: edit did not dirty the unit");
                 ignore (Session.run t);
                 ignore (Session.classify t keys.(0))))
        in
        (match (Session.stats t).Session.ss_last_rebuild with
        | Some rb ->
            rerun := !rerun + rb.Session.rb_tasks_rerun;
            if rb.Session.rb_full then incr full
        | None -> ());
        dt)
  in
  let e_p50, e_p90, e_p99 = percentiles edit_samples in
  let speedup = cold_p50 /. e_p50 in
  Fmt.pr
    "edit + re-query (%d samples): p50 %.3fs, p90 %.3fs, p99 %.3fs \
     (%.1fx vs cold p50)@."
    n_edits e_p50 e_p90 e_p99 speedup;
  let st = Session.stats t in
  let edit_hits = st.Session.ss_memo_hits - st0.Session.ss_memo_hits
  and edit_misses = st.Session.ss_memo_misses - st0.Session.ss_memo_misses in
  Fmt.pr "AST memo over the edits: %d hits, %d misses@." edit_hits
    edit_misses;
  Fmt.pr "warm reruns: %d tasks re-inferred, %d full runs@." !rerun !full;

  (* the warm session after all those edits must still render exactly
     what a cold analysis of the same sources renders *)
  let warm_render = Session.render ~positions:true ~name:"daemon" t in
  let cold_render =
    Session.render ~positions:true ~name:"daemon" (Session.create files)
  in

  check "warm query p50 <= 10 ms" (q_p50 <= 0.010)
    (Printf.sprintf " measured %.3fms" (q_p50 *. 1e3));
  check "warm whatif p50 <= 10 ms" (w_p50 <= 0.010)
    (Printf.sprintf " measured %.3fms" (w_p50 *. 1e3));
  check "warm render byte-identical to cold" (warm_render = cold_render) "";
  check "each edit re-parses only the dirty unit"
    ((edit_hits, edit_misses)
    = (n_edits * (List.length files - 1), n_edits))
    (Printf.sprintf " (%d hits / %d misses over %d edits)" edit_hits
       edit_misses n_edits);
  check "every edit stays warm" (!full = 0)
    (Printf.sprintf " (%d full runs, %d tasks re-inferred)" !full !rerun);
  (* Recorded, not enforced: the 10x edit-to-answer target. A warm edit
     re-infers only its cone, but still re-parses the edited unit and
     replays every live atom into the rebuilt store; the one-unit
     re-parse is now the largest stage, so the 10x waits on the
     frontend (ROADMAP "allocation-lean frontend"). *)
  let meets_10x = speedup >= 10. in
  Fmt.pr "  [%s] edit + re-query >= 10x faster than cold measured %.1fx%s@."
    (if meets_10x then "ok" else "target unmet")
    speedup
    (if meets_10x then ""
     else " (re-parse and rebuild floor; recorded honestly, not enforced)");
  Fmt.pr "%s@."
    (if !ok then "ALL DAEMON CHECKS PASSED" else "DAEMON CHECKS FAILED");

  (* ---- BENCH_daemon.json ---- *)
  let jp3 (p50, p90, p99) =
    [ ("p50_s", jf p50); ("p90_s", jf p90); ("p99_s", jf p99) ]
  in
  let buf = Buffer.create 4096 in
  pp_json buf
    (Jobj
       [
         ("paper", Jstr "A Theory of Type Qualifiers (PLDI 1999)");
         ("env", jenv ());
         ("corpus", Jstr b.Cbench.Suite.b_name);
         ("files", ji (List.length files));
         ("lines", ji lines);
         ("mode", Jstr "poly");
         ( "cold",
           Jobj (("runs", ji cold_runs) :: jp3 (cold_p50, cold_p90, cold_p99))
         );
         ( "warm_query",
           Jobj
             [
               ("samples", ji nq);
               ("p50_ms", jf (q_p50 *. 1e3));
               ("p90_ms", jf (q_p90 *. 1e3));
               ("p99_ms", jf (q_p99 *. 1e3));
             ] );
         ( "warm_whatif",
           Jobj
             [
               ("samples", ji nq);
               ("p50_ms", jf (w_p50 *. 1e3));
               ("p90_ms", jf (w_p90 *. 1e3));
               ("p99_ms", jf (w_p99 *. 1e3));
             ] );
         ( "edit_requery",
           Jobj
             (("samples", ji n_edits)
             :: jp3 (e_p50, e_p90, e_p99)
             @ [
                 ("speedup_vs_cold_p50", jf speedup);
                 ("meets_10x_target", jb meets_10x);
                 ("memo_hits", ji edit_hits);
                 ("memo_misses", ji edit_misses);
                 ("tasks_rerun", ji !rerun);
                 ("full_runs", ji !full);
               ]) );
         ("warm_render_identical_to_cold", jb (warm_render = cold_render));
         ("all_checks_passed", jb !ok);
       ]);
  let oc = open_out "BENCH_daemon.json" in
  output_string oc (Buffer.contents buf);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "@.wrote BENCH_daemon.json@.";
  if not !ok then exit 1

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let want s = args = [] || List.mem s args || List.mem "all" args in
  Fmt.pr "A Theory of Type Qualifiers (PLDI 1999) — experiment harness@.";
  if want "table1" then table1 ();
  if want "table2" || want "figure6" then begin
    let rows = table2_rows () in
    if want "table2" then table2 rows;
    if want "figure6" then figure6 rows
  end;
  if want "scaling" then scaling ();
  if want "parallel" then parallel ();
  if want "compaction" then compaction ();
  if want "lattice" then lattice ();
  if want "ablation" then ablation ();
  if want "ablation" || want "micro" || want "solver" then solver_ablation ();
  if want "extensions" then extensions ();
  if want "micro" then micro ();
  if want "cache" then cache_bench ();
  if want "hotpath" then hotpath ();
  (* scale and frontend only when asked for by name: the corpus is a
     million lines *)
  if List.mem "scale" args || List.mem "all" args then scale ();
  if List.mem "frontend" args || List.mem "all" args then frontend_bench ();
  if List.mem "daemon" args || List.mem "all" args then daemon_bench ();
  write_json ()
