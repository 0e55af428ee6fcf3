(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 4.4) on the synthetic benchmark suite, plus the
   scaling/overhead claims of the text and the ablations of DESIGN.md.

   Sections (run all by default, or select: table1 table2 figure6
   scaling lattice ablation solver extensions):

     table1  — the benchmark suite (paper Table 1)
     table2  — compile/mono/poly times (avg of 5, like the paper) and
               Declared / Mono / Poly / Total-possible counts (Table 2)
     figure6 — stacked percentage bars of Declared / Mono-added /
               Poly-added / Other per benchmark (Figure 6), plus CSV
     scaling — inference time vs program size; checks "scales roughly
               linearly" and "polymorphic at most 3x monomorphic"
     lattice — const analysis in the default two-point space vs the same
               rules hosted next to an unconstrained three-level chain
               (user-defined lattice); asserts identical verdicts and
               writes BENCH_lattice.json
     ablation— (a) unsound covariant ref vs (SubRef); (b) struct field
               sharing off
     solver  — incremental re-solve vs a from-scratch re-solve per
               query on cyclic / chain / polymorphic-instantiation
               workloads, and
               the flat arena on one 32k-variable constraint stream
               (solutions = the naive re-solve of its atom log, counters
               = pinned); also runs under `ablation`, and a failed
               check exits 1
     extensions — polymorphic recursion (Section 4.3's wish) and scheme
               compaction (Section 6's open problem)

   Every section that runs records wall times, sizes and solver stats
   into BENCH_solver.json (machine-readable, tracked across PRs). *)

open Cqual
module TS = Typequal.Solver
module Elt = Typequal.Lattice.Elt

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
      ("edges_added", ji s.TS.edges_added);
      ("edges_deduped", ji s.TS.edges_deduped);
      ("incr_solves", ji s.TS.incr_solves);
      ("full_solves", ji s.TS.full_solves);
      ("worklist_pops", ji s.TS.worklist_pops);
      ("solve_s", jf s.TS.solve_s);
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
      ("heap_words", ji s.TS.heap_words);
      ("top_heap_words", ji s.TS.top_heap_words);
      ("cores_available", ji s.TS.cores_available);
    ]

(* memory + machine context, attached to every bench section so the perf
   trajectory tracks heap growth alongside wall time *)
let jenv () =
  let g = Gc.quick_stat () in
  Jobj
    [
      ("heap_words", ji g.Gc.heap_words);
      ("top_heap_words", ji g.Gc.top_heap_words);
      ("cores_available", ji (Typequal.Pool.cores_available ()));
    ]

let bench_sections : (string * json) list ref = ref []

(* set by a section whose check failed: the run exits 1 once
   BENCH_solver.json is written *)
let failed = ref false

let record_section name j =
  let j =
    match j with
    | Jobj kvs -> Jobj (("env", jenv ()) :: kvs)
    | other -> Jobj [ ("env", jenv ()); ("data", other) ]
  in
  bench_sections := (name, j) :: !bench_sections

(* write one BENCH_*.json record, headed by the paper's name *)
let write_bench file kvs =
  let buf = Buffer.create 4096 in
  let paper = Jstr "A Theory of Type Qualifiers (PLDI 1999)" in
  pp_json buf (Jobj (("paper", paper) :: kvs));
  Buffer.add_char buf '\n';
  Out_channel.with_open_bin file (fun oc -> Buffer.output_buffer oc buf);
  Fmt.pr "@.wrote %s@." file

let write_json () =
  if !bench_sections <> [] then
    write_bench "BENCH_solver.json"
      [ ("sections", Jobj (List.rev !bench_sections)) ]

(* a section's pass/fail checks: [check] prints each and clears [ok] on
   a failure *)
let checker () =
  let ok = ref true in
  let check name cond detail =
    Fmt.pr "  [%s] %s%s@." (if cond then "ok" else "FAIL") name detail;
    if not cond then ok := false
  in
  (ok, check)

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

let timings n f =
  List.init n (fun _ ->
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      Unix.gettimeofday () -. t0)

(* the paper reports the average of five runs *)
let time_avg n f = List.fold_left ( +. ) 0. (timings n f) /. float n

(* minimum over n runs: the standard noise reduction for wall-clock
   measurements on shared (CI) machines *)
let time_best n f = List.fold_left min infinity (timings n f)

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
  let ok, check = checker () in
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
  let mono ?field_sharing src =
    let env, ifaces = Analysis.run ?field_sharing Analysis.Mono (compile src) in
    Report.measure env ifaces
  in
  let with_sharing = mono shared_conflict in
  let without = mono ~field_sharing:false shared_conflict in
  Fmt.pr
    "    conflicting uses of one struct type: sharing detects %d error(s), \
     no-sharing misses it (%d errors)@."
    with_sharing.Report.type_errors without.Report.type_errors;
  let b = List.nth Cbench.Suite.table1 2 in
  let src = Cbench.Suite.source_of b in
  let on = mono src in
  let off = mono ~field_sharing:false src in
  Fmt.pr
    "    %s possible consts: sharing=%d, no-sharing=%d (no-sharing is \
     unsound, not more precise)@."
    b.b_name on.Report.possible off.Report.possible

(* ------------------------------------------------------------------ *)

(* One deterministic constraint stream for the arena ablation. Ops:
   (1, a, b) edge a<=b; (2, a, _) top<=a; (3, a, _) a<=top; (4, _, _)
   incremental solve; (5, a, _) least-solution query. Edges are
   window-local, so the stream is duplicate- and cycle-rich: the dedup-
   and propagation-bound shape that motivated the arena. *)
let ablation_ops ~nvars ~nops =
  let rng = Cbench.Rng.create 0xAB1E in
  Array.init nops (fun i ->
      (* a solve per ~200 constraints: inference's per-function cadence *)
      if i mod 200 = 199 then (4, 0, 0)
      else
        let r = Cbench.Rng.int rng 100 in
        if r < 55 then
          (* flow edges: mostly forward, a few back edges closing cycles *)
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

(* The arena's counters: its [pp_stats] fields before the first
   wall-clock figure ("vars .. , N worklist pops"). *)
let counters stats =
  let rec upto = function
    | [] -> []
    | f :: _
      when String.ends_with ~suffix:"s solving"
             (List.hd (String.split_on_char ';' f)) ->
        []
    | f :: rest -> f :: upto rest
  in
  String.concat ","
    (upto (String.split_on_char ',' (Fmt.str "%a" TS.pp_stats stats)))

(* [ablation_ops]' counters. They move only if the solver's insertion,
   dedup or worklist order does. *)
let pinned_counters =
  "vars 32000, edges 215710 (39273 deduped), solves 18989 incr + 0 full, \
   919345 worklist pops"

(* Replay [ops] into a fresh store, solved *)
let replay sp ops nvars =
  let top = Elt.top sp in
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

(* Solver ablation: incremental re-solving vs a from-scratch re-solve
   of the whole system at every query. Each workload interleaves
   constraint additions with solution queries, which is exactly the
   access pattern inference produces: generate some constraints,
   classify some variables, repeat. *)
let solver_ablation () =
  Fmt.pr "@.=== Solver ablation: incremental solve ===@.";
  let sp = Analysis.const_space in
  let top = Elt.top sp in
  (* the scratch arm re-runs the full least+greatest fixpoint at every
     query *)
  let query strategy st v =
    (match strategy with
    | `Scratch -> ignore (TS.solve_from_scratch st)
    | `Incremental -> ());
    ignore (TS.least st v)
  in
  let cyclic strategy =
    (* mutual-subtyping pairs chained together: the kappa1 <= kappa2 <=
       kappa1 shape ref cells produce constantly *)
    let n = 3000 and stride = 30 in
    let st = TS.create sp in
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
    (* acyclic control *)
    let n = 3000 and stride = 30 in
    let st = TS.create sp in
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
    let st = TS.create sp in
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
  Fmt.pr "%-8s %12s %14s %9s@." "workload" "scratch(s)" "incremental(s)"
    "speedup";
  let ok, check = checker () in
  let jrows =
    List.map
      (fun (name, wl, want_2x) ->
        let scratch_s = time_avg 3 (fun () -> wl `Scratch) in
        let incr_s = time_avg 3 (fun () -> wl `Incremental) in
        let stats = TS.stats (wl `Incremental) in
        Fmt.pr "%-8s %12.4f %14.4f %8.1fx@." name scratch_s incr_s
          (scratch_s /. incr_s);
        (name, scratch_s, incr_s, want_2x, stats))
      workloads
  in
  List.iter
    (fun (name, scratch_s, incr_s, want_2x, _) ->
      check
        (Printf.sprintf "%s: incremental never slower" name)
        (incr_s <= scratch_s *. 1.05)
        (Printf.sprintf " (%.4fs vs %.4fs)" incr_s scratch_s);
      if want_2x then
        check
          (Printf.sprintf "%s: incremental >= 2x faster" name)
          (scratch_s /. incr_s >= 2.)
          (Printf.sprintf " measured %.1fx" (scratch_s /. incr_s)))
    jrows;
  (* the flat arena on a stream sized to a 32-kloc poly analysis (~1
     qualifier variable per line): every solution must be the least
     (greatest) solution of the store's atom log, re-solved by the
     store-free evaluator, and the counters the pinned ones *)
  let nvars = 32_000 and nops = 320_000 in
  let ops = ablation_ops ~nvars ~nops in
  let last = ref None in
  let arena_s = time_best 3 (fun () -> last := Some (replay sp ops nvars)) in
  let st, v = Option.get !last in
  let t0 = Unix.gettimeofday () in
  let nb = TS.naive_bounds st in
  let mismatches =
    Array.fold_left
      (fun k x ->
        if (TS.least st x, TS.greatest st x) = nb (TS.var_id x) then k
        else k + 1)
      0 v
  in
  let naive_s = Unix.gettimeofday () -. t0 in
  let got = counters (TS.stats st) in
  let pinned = got = pinned_counters in
  Fmt.pr "arena, %d vars / %d ops: %.4fs; naive re-solve of its log: %.4fs@."
    nvars nops arena_s naive_s;
  check "arena: solutions = naive_bounds of its atom log" (mismatches = 0)
    (Printf.sprintf " (%d mismatches)" mismatches);
  check "arena: counters = pinned" pinned
    (if pinned then "" else " got: " ^ got);
  Fmt.pr "%s@."
    (if !ok then "ALL SOLVER ABLATION CHECKS PASSED"
     else "SOLVER ABLATION CHECKS FAILED");
  let jrow (name, scratch_s, incr_s, want_2x, stats) =
    Jobj
      [ ("name", Jstr name); ("scratch_s", jf scratch_s);
        ("incremental_s", jf incr_s); ("speedup", jf (scratch_s /. incr_s));
        ("required_2x", jb want_2x); ("solver", jstats stats) ]
  in
  record_section "solver_ablation"
    (Jobj
       [
         ("workloads", Jlist (List.map jrow jrows));
         ( "arena",
           Jobj
             [ ("vars", ji nvars); ("ops", ji nops); ("arena_s", jf arena_s);
               ("naive_s", jf naive_s); ("naive_mismatches", ji mismatches);
               ("counters", Jstr got);
               ("counters_pinned", jb pinned) ] );
         ("all_checks_passed", jb !ok);
       ]);
  if not !ok then failed := true

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
  Fmt.pr "%-12s %12s %10s %9s %7s@." "space" "analyze(s)" "overhead"
    "possible" "errors";
  let jrows = ref [] in
  let base = ref nan in
  let counts = ref None in
  let ok = ref true in
  List.iter
    (fun (sname, rules) ->
      let analyze_s =
        time_best 3 (fun () ->
            let env, ifaces = Analysis.run ~rules Analysis.Mono prog in
            Report.measure env ifaces)
      in
      let env, ifaces = Analysis.run ~rules Analysis.Mono prog in
      let r = Report.measure env ifaces in
      if sname = "two_point" then base := analyze_s;
      let overhead = analyze_s /. !base in
      (* the verdicts must not depend on the hosting space *)
      let c = (r.Report.total, r.Report.possible, r.Report.type_errors) in
      (match !counts with
      | None -> counts := Some c
      | Some c0 -> if c <> c0 then ok := false);
      Fmt.pr "%-12s %12.3f %9.2fx %9d %7d@." sname analyze_s overhead
        r.Report.possible r.Report.type_errors;
      jrows :=
        Jobj
          [
            ("space", Jstr sname);
            ("analyze_s", jf analyze_s);
            ("overhead_vs_two_point", jf overhead);
            ("possible", ji r.Report.possible);
            ("type_errors", ji r.Report.type_errors);
            ("solver", jstats (Analysis.stats env));
          ]
        :: !jrows)
    [ ("two_point", Analysis.const_rules); ("three_level", wide_rules) ];
  if not !ok then failwith "lattice bench: verdicts differ across spaces";
  Fmt.pr "@.(verdicts identical across both spaces — asserted)@.";
  record_section "lattice" (Jlist (List.rev !jrows));
  write_bench "BENCH_lattice.json"
    [
      ("env", jenv ());
      ("timing", Jstr "best_of_3");
      ("workload_lines", ji lines);
      ("t_compile_s", jf t_compile_s);
      ("counts_identical", jb !ok);
      ("runs", Jlist (List.rev !jrows));
    ]

(* ------------------------------------------------------------------ *)
(* Extensions beyond the paper's evaluation                            *)
(* ------------------------------------------------------------------ *)

let extensions () =
  Fmt.pr "@.=== Extensions: polymorphic recursion & scheme compaction ===@.";
  Fmt.pr "(Section 4.3 wished for polymorphic recursion; Section 6 poses@.";
  Fmt.pr " constraint simplification as an open problem)@.@.";
  Fmt.pr "%-20s %6s %6s %8s %11s %11s %8s %12s@." "Name" "Poly" "PolyRec"
    "Total" "Poly(s)" "PolyRec(s)" "Vars" "Vars(uncomp)";
  List.iter
    (fun (b : Cbench.Suite.bench) ->
      let src = Cbench.Suite.source_of b in
      let prog = compile src in
      let run_once ?compact mode =
        let t0 = Unix.gettimeofday () in
        let env, ifaces = Analysis.run ?compact mode prog in
        let r = Report.measure env ifaces in
        (r, (Analysis.stats env).TS.vars_created, Unix.gettimeofday () -. t0)
      in
      let rp, vp, tp = run_once Analysis.Poly in
      let rr, _, tr = run_once Analysis.Polyrec in
      let ru, vu, _ = run_once ~compact:false Analysis.Poly in
      assert (ru.Report.possible = rp.Report.possible);
      assert (rr.Report.possible >= rp.Report.possible);
      Fmt.pr "%-20s %6d %6d %8d %11.3f %11.3f %8d %12d@." b.b_name
        rp.Report.possible rr.Report.possible rp.Report.total tp tr vp vu)
    Cbench.Suite.table1;
  Fmt.pr
    "@.(PolyRec >= Poly everywhere; compaction preserves all results — \
     both are asserted.)@."

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
  if want "lattice" then lattice ();
  if want "ablation" then ablation ();
  if want "ablation" || want "solver" then solver_ablation ();
  if want "extensions" then extensions ();
  write_json ();
  if !failed then exit 1
