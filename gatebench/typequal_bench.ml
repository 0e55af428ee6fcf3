(* typequal_bench: the gating benchmark.

   End-to-end numbers are measured from outside, against the real
   binaries: cqualc processes, and typequald over its stdio JSON-RPC. One
   single-threaded process generates the load, one child at a time, every
   child with --jobs 1. Per-layer numbers come from a separate traced
   in-process run that calls each layer's public functions in pipeline
   order inside spans, and that fails unless its rendered report is
   byte-identical to cqualc's stdout on the same files.

   Usage (from the checkout root, after building bin/ and this directory):
     typequal_bench.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
     typequal_bench.exe run [W ...] [--seed N] [--seconds S]
     typequal_bench.exe trace W [--seed N]
     typequal_bench.exe selftest
   See README.md for the workloads, the metrics and how to read a trace. *)

module W = Cqual.Wire
module S = Cqual.Session
module A = Cqual.Analysis

let started = Unix.gettimeofday ()

(* every run must end well inside the 180 s a run may take *)
let deadline = started +. 150.

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type kind = Batch | Daemon_edit | Daemon_query

type workload = {
  name : string;
  kind : kind;
  corpus : string;
  default_seed : int;
      (** the seed the repository's benches give this corpus shape:
          Cbench.Suite's for mega- and midi-project-sim, bench/main.ml's
          for chains *)
}

let workloads =
  [
    { name = "batch-mega"; kind = Batch; corpus = "mega"; default_seed = 0xA11 };
    { name = "batch-chains"; kind = Batch; corpus = "chains"; default_seed = 7 };
    { name = "daemon-edit"; kind = Daemon_edit; corpus = "midi"; default_seed = 0xA12 };
    { name = "daemon-query"; kind = Daemon_query; corpus = "midi"; default_seed = 0xA12 };
  ]

(* The mega-project-sim shape (40 body files, cross-file recursion rings)
   at 300 kloc, a quarter of the suite's 1.12 Mloc so that a run fits its
   time budget; the chains stress corpus; and midi-project-sim as the
   suite builds it (100 kloc target, 4 body files and the header) for the
   daemon workloads, so their numbers compare with BENCH_daemon.json. *)
let generate corpus seed : (string * string) list =
  match corpus with
  | "mega" -> Cbench.Gen.generate_project ~files:40 ~seed ~target_lines:300_000 ()
  | "chains" -> [ ("chains.c", Cbench.Gen.generate_chains ~seed ~target_lines:32_000 ()) ]
  | _ -> Cbench.Gen.generate_project ~seed ~target_lines:100_000 ()

(* cqualc names a project by its files joined with '+' *)
let report_name files = String.concat "+" (List.map fst files)

(* ------------------------------------------------------------------ *)
(* Files and statistics                                                *)
(* ------------------------------------------------------------------ *)

let here = Filename.dirname Sys.executable_name
let cqualc = Filename.concat here "../bin/cqualc.exe"
let typequald = Filename.concat here "../bin/typequald.exe"
let root = Sys.getcwd ()
let work_dir = Filename.concat root (Printf.sprintf ".gatebench/%d" (Unix.getpid ()))

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)
let write_units dir files = List.iter (fun (n, src) -> write_file (Filename.concat dir n) src) files
let read_opt path = try Some (String.trim (In_channel.with_open_bin path In_channel.input_all)) with Sys_error _ -> None

(* linear interpolation between closest ranks *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

let ms xs = List.map (fun s -> s *. 1000.) xs

(* ------------------------------------------------------------------ *)
(* Results and failure accounting                                      *)
(* ------------------------------------------------------------------ *)

(* a metric is the median of its samples; a single measurement is one
   sample *)
type metric = { m_name : string; m_unit : string; m_samples : float list }

let metric m_name m_unit m_samples = { m_name; m_unit; m_samples }
let value m = median m.m_samples

type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

(** Count one checked operation; a violation is one failed operation. *)
let op ok what =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    Printf.printf "FAILED: %s\n%!" what
  end

let op_result what = function Ok () -> op true what | Error m -> op false (what ^ ": " ^ m)

let print_metric m =
  match m.m_samples with
  | _ :: _ :: _ ->
      Printf.printf "%-28s %14.6f %-6s n=%d q1=%.6f q3=%.6f\n" m.m_name (value m) m.m_unit
        (List.length m.m_samples) (quantile m.m_samples 0.25) (quantile m.m_samples 0.75)
  | _ -> Printf.printf "%-28s %14.6f %-6s\n" m.m_name (value m) m.m_unit

(* numbers go out with all their digits *)
let json_num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f else Printf.sprintf "%.17g" f

let print_result metrics =
  let body =
    List.map
      (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name (json_num (value m)) m.m_unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (tally.failed = 0) (max 1 tally.attempted) tally.failed (String.concat ", " body)

(* ------------------------------------------------------------------ *)
(* Environment block                                                   *)
(* ------------------------------------------------------------------ *)

let git_rev () =
  match read_opt (Filename.concat root ".git/HEAD") with
  | Some h when String.starts_with ~prefix:"ref: " h -> (
      let r = String.sub h 5 (String.length h - 5) in
      match read_opt (Filename.concat root (".git/" ^ r)) with Some v -> v | None -> r)
  | Some h -> h
  | None -> "none"

let nproc () =
  match read_opt "/proc/cpuinfo" with
  | Some s -> List.length (List.filter (String.starts_with ~prefix:"processor") (String.split_on_char '\n' s))
  | None -> 0

let print_env w seed files =
  let bytes = List.fold_left (fun a (_, s) -> a + String.length s) 0 files in
  let lines = List.fold_left (fun a (_, s) -> a + Cfront.Cprog.count_lines s) 0 files in
  Printf.printf
    "env: workload=%s seed=%d corpus=%s files=%d lines=%d bytes=%d md5=%s nproc=%d cores_available=%d \
     ocaml=%s rev=%s\n%!"
    w.name seed w.corpus (List.length files) lines bytes
    (Digest.to_hex (Digest.string (String.concat "\000" (List.map snd files))))
    (nproc ()) (Typequal.Pool.cores_available ()) Sys.ocaml_version (git_rev ())

(* ------------------------------------------------------------------ *)
(* Correctness                                                         *)
(* ------------------------------------------------------------------ *)

let check_report ~what ~known files report =
  op_result (what ^ " agrees with the source")
    (Oracle.check ~name:(report_name files) ~known (Oracle.expect files) report)

(* the default seeds' reports are frozen in expected/<corpus>-<seed>.md5 *)
let check_frozen w seed report =
  let path = Filename.concat root (Printf.sprintf "gatebench/expected/%s-%d.md5" w.corpus seed) in
  let got = Digest.to_hex (Digest.string report) in
  match read_opt path with
  | Some want -> op (want = got) (Printf.sprintf "report digest %s, frozen %s" got want)
  | None -> Printf.printf "digest: %s (nothing frozen for %s seed %d)\n" got w.corpus seed

let exited_0 (r : Child.batch) = r.Child.status = Unix.WEXITED 0

let cqualc_args files = [ "--mode"; "poly"; "--positions"; "--jobs"; "1" ] @ List.map fst files

let verdict_str v = Fmt.str "%a" Cqual.Report.pp_verdict v

let whatif_agrees ~verdict ~before ~after =
  (* adding const where const is allowed breaks nothing; at a non-const
     position it must surface a type error *)
  if verdict = "non-const" then after > before else after = before

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

(* the corpus last generated, for the env block *)
let corpus = ref []

(* The corpus, generated once and written to [n] fresh directories before
   any clock starts. Children run with one of them as their current
   directory and see fixed relative unit names: the report echoes them,
   and fixed names keep report digests path-independent. *)
let materialise w seed n =
  let files = generate w.corpus seed in
  corpus := files;
  let dirs =
    List.init n (fun i ->
        let dir = Filename.concat work_dir (Printf.sprintf "%s-%d" w.name i) in
        rm_rf dir;
        Sys.mkdir dir 0o755;
        write_units dir files;
        dir)
  in
  (files, dirs)

(* Set up once in each directory, timing only [f], and report the median
   as setup_s, so that work a change moves into set-up shows. [after]
   runs untimed on each result before the next set-up starts; the last
   directory stays the current one. *)
let setups dirs ~after f =
  let n = List.length dirs in
  let runs =
    List.mapi
      (fun i dir ->
        Sys.chdir dir;
        let x, dt = time f in
        (after ~last:(i = n - 1) x, dt))
      dirs
  in
  (List.map fst runs, metric "setup_s" "s" (List.map snd runs))

let setup_count = 5

let last l = List.nth l (List.length l - 1)

(* Repeat [f] until [seconds] have passed and at least [min_ops] ran. *)
let timed_loop ~seconds ~min_ops f =
  let t0 = Unix.gettimeofday () in
  let rec go i acc =
    let now = Unix.gettimeofday () in
    if (now -. t0 >= seconds && i > min_ops) || now >= deadline then List.rev acc
    else go (i + 1) (f i :: acc)
  in
  go 1 []

(* ------------------------------------------------------------------ *)
(* Outside: cqualc and typequald as a user runs them                   *)
(* ------------------------------------------------------------------ *)

let batch_outputs_agree w seed files (runs : Child.batch list) =
  let first = List.hd runs in
  op (exited_0 first) "cqualc exits 0";
  check_report ~what:"cqualc report" ~known:[] files first.Child.stdout;
  check_frozen w seed first.Child.stdout;
  List.iter
    (fun (r : Child.batch) -> op (exited_0 r && r.Child.stdout = first.Child.stdout) "every run prints the same report")
    (List.tl runs)

let positions_of = function
  | Ok p -> (
      match W.mem "positions" p with
      | Some (W.Arr ps) ->
          List.filter_map
            (fun j ->
              match (W.mem_string "key" j, W.mem_string "verdict" j) with
              | Some k, Some v -> Some (k, v)
              | _ -> None)
            ps
      | _ -> [])
  | Error m ->
      op false m;
      []

let daemon_args files = [ "--mode"; "poly"; "--jobs"; "1" ] @ List.map fst files

(* A daemon that has analyzed the corpus and listed its positions: the
   set-up a user waits for, from spawn to the positions reply. *)
let daemon_setup files () =
  let d = Child.spawn_daemon typequald (daemon_args files) in
  op (Result.is_ok (Child.call d "run" [])) "run answers";
  (d, Array.of_list (positions_of (Child.call d "positions" [])))

(* Set up daemons one after another, each stopped before the next starts,
   and keep the last; check its set-up report. Also returns the median
   over them of VmHWM after set-up. *)
let daemon_setups w seed =
  let files, dirs = materialise w seed setup_count in
  let all, setup =
    setups dirs (daemon_setup files) ~after:(fun ~last (d, positions) ->
        let hwm = Child.vm_mb d.Child.pid "VmHWM" in
        if not last then Child.stop d;
        (d, positions, hwm))
  in
  let setup_peak = metric "peak_rss_mb" "MiB" (List.map (fun (_, _, hwm) -> hwm) all) in
  let d, positions, _ = last all in
  op (Array.length positions > 0) "positions lists the interesting positions";
  (match Child.call d "render" [ ("name", W.Str (report_name files)); ("positions", W.Bool true) ] with
  | Ok r ->
      let text = Option.value (W.mem_string "text" r) ~default:"" in
      check_report ~what:"daemon render after set-up" ~known:[] files text;
      check_frozen w seed text
  | Error m -> op false m);
  (files, d, positions, setup, setup_peak)

let whatif_ok ~verdict = function
  | Ok r -> (
      match (W.mem_int "errors_before" r, W.mem_int "errors_after" r) with
      | Some before, Some after -> whatif_agrees ~verdict ~before ~after
      | _ -> false)
  | Error _ -> false

(* the eight classify keys read after edit [k]; the whatif reads the last *)
let read_keys ~seed positions k =
  let rng = Cbench.Rng.create ((seed * 31) + k) in
  List.init 8 (fun _ -> fst (Cbench.Rng.pick rng positions))

(* One edit step against the daemon: update + run + classify, timed
   together as the edit, then eight classify reads and one whatif. *)
let daemon_step d ~seed ~files ~positions ~edits k =
  let e = Edits.make ~seed files k in
  edits := !edits @ [ e ];
  let (upd, run, cls), edit_s =
    time (fun () ->
        let upd = Child.call d "update" [ ("name", W.Str e.Edits.unit_name); ("source", W.Str e.Edits.source) ] in
        let run = Child.call d "run" [] in
        (upd, run, Child.call d "classify" [ ("key", W.Str e.Edits.key) ]))
  in
  op (Result.map (W.mem_string "status") upd = Ok (Some "updated")) "update answers \"updated\"";
  op (Result.is_ok run) "run answers";
  op
    (Result.map (W.mem_string "verdict") cls = Ok (Some e.Edits.verdict))
    (Printf.sprintf "classify %s is %s after edit %d" e.Edits.key e.Edits.verdict k);
  let reads =
    List.map
      (fun key ->
        let r, dt = time (fun () -> Child.call d "classify" [ ("key", W.Str key) ]) in
        let v = Result.fold ~ok:(W.mem_string "verdict") ~error:(fun _ -> None) r in
        op (v <> None) ("classify answers for " ^ key);
        (key, Option.value v ~default:"", dt))
      (read_keys ~seed positions k)
  in
  let key, verdict, _ = last reads in
  let w, whatif_s = time (fun () -> Child.call d "whatif" [ ("key", W.Str key); ("qual", W.Str "const") ]) in
  op (whatif_ok ~verdict w) ("whatif at " ^ key ^ " agrees with its verdict");
  (edit_s, List.map (fun (_, _, dt) -> dt) reads, whatif_s)

(* at these steps the daemon's render must equal a cold cqualc run *)
let checkpoint k = k = 1 || k mod 10 = 0

let daemon_checkpoint d ~files ~edits =
  let current = Edits.apply files !edits in
  write_units "." current;
  let cold = Child.run_batch cqualc (cqualc_args current) in
  match Child.call d "render" [ ("name", W.Str (report_name current)); ("positions", W.Bool true) ] with
  | Ok r ->
      let text = Option.value (W.mem_string "text" r) ~default:"" in
      op (exited_0 cold && text = cold.Child.stdout) "daemon render equals cold cqualc";
      check_report ~what:"daemon render" ~known:(Edits.known !edits) current text
  | Error m -> op false m

(* one daemon-query whatif, checked against the verdict from set-up *)
let query d (key, verdict) =
  let r, dt = time (fun () -> Child.call d "whatif" [ ("key", W.Str key); ("qual", W.Str "const") ]) in
  op (whatif_ok ~verdict r) ("whatif at " ^ key ^ " agrees with its verdict");
  dt

(* ------------------------------------------------------------------ *)
(* run: end-to-end metrics, tracing off                                *)
(* ------------------------------------------------------------------ *)

let batch_metrics (runs : Child.batch list) setup =
  [
    metric "verdict_ms_p50" "ms" (ms (List.map (fun r -> r.Child.wall_s) runs));
    metric "peak_rss_mb" "MiB" (List.map (fun r -> r.Child.peak_mb) runs);
    setup;
  ]

let run_workload w ~seed ~seconds : metric list =
  match w.kind with
  | Batch ->
      (* a set-up is the first cold run in a fresh directory, so work a
         change moves from every run into a first one shows *)
      let files, dirs = materialise w seed setup_count in
      let firsts, setup =
        setups dirs ~after:(fun ~last:_ r -> r) (fun () -> Child.run_batch cqualc (cqualc_args files))
      in
      let runs = timed_loop ~seconds ~min_ops:5 (fun _ -> Child.run_batch cqualc (cqualc_args files)) in
      batch_outputs_agree w seed files (firsts @ runs);
      batch_metrics runs setup
  | Daemon_edit ->
      let files, d, positions, setup, _ = daemon_setups w seed in
      Fun.protect ~finally:(fun () -> Child.stop d) (fun () ->
          let rss0 = Child.vm_mb d.Child.pid "VmRSS" in
          let edits = ref [] and peak = ref 0. in
          let steps =
            timed_loop ~seconds ~min_ops:10 (fun k ->
                let s = daemon_step d ~seed ~files ~positions ~edits k in
                (* after one edit of each kind: the set-up heap plus the
                   warm rebuilds' working memory. Later, the heap grows in
                   steps of 100-300 MiB whose place among the edits
                   depends on the seed. *)
                if k = 2 then peak := Child.vm_mb d.Child.pid "VmHWM";
                if checkpoint k then daemon_checkpoint d ~files ~edits;
                s)
          in
          let rss1 = Child.vm_mb d.Child.pid "VmRSS" and n = List.length steps in
          let edit_s = List.map (fun (e, _, _) -> e) steps in
          Printf.printf
            "daemon: %d edits, edit p75 %s; classify p50 %.3f ms; whatif p50 %.1f ms; VmRSS %.0f MiB after \
             set-up, %.0f MiB after the last edit (%+.1f MiB per edit)\n"
            n
            (if n >= 40 then Printf.sprintf "%.1f ms" (quantile edit_s 0.75 *. 1000.) else "n/a (under 40 edits)")
            (median (List.concat_map (fun (_, r, _) -> r) steps) *. 1000.)
            (median (List.map (fun (_, _, w) -> w) steps) *. 1000.)
            rss0 rss1
            ((rss1 -. rss0) /. float_of_int n);
          [ metric "verdict_ms_p50" "ms" (ms edit_s); metric "peak_rss_mb" "MiB" [ !peak ]; setup ])
  | Daemon_query ->
      (* the whatif peak depends on when the GC reclaims each clone; the
         warm session's own peak does not *)
      let _, d, positions, setup, setup_peak = daemon_setups w seed in
      Fun.protect ~finally:(fun () -> Child.stop d) (fun () ->
          let rng = Cbench.Rng.create seed in
          let whatifs = timed_loop ~seconds ~min_ops:20 (fun _ -> query d (Cbench.Rng.pick rng positions)) in
          Printf.printf "daemon: %d whatifs, p75 %.1f ms; VmHWM %.0f MiB at the end\n" (List.length whatifs)
            (quantile whatifs 0.75 *. 1000.) (Child.vm_mb d.Child.pid "VmHWM");
          [ metric "verdict_ms_p50" "ms" (ms whatifs); setup_peak; setup ])

(* ------------------------------------------------------------------ *)
(* trace: per-layer metrics from a traced in-process run               *)
(* ------------------------------------------------------------------ *)

(* The per_layer metrics of BENCHMARK.json, in its order. Every trace
   reports all of them; a layer the workload does not exercise reads 0. *)
let per_layer =
  [
    ("cfront.lex.s", "s"); ("cfront.lex.tokens", "count"); ("cfront.lex.alloc_mb", "MiB");
    ("cfront.parse.s", "s"); ("cfront.parse.alloc_mb", "MiB"); ("cfront.build.s", "s");
    ("cfront.link.s", "s"); ("cqual.fdg.s", "s"); ("cqual.fdg.sccs", "count");
    ("cqual.fdg.largest_scc", "count"); ("cqual.analysis.s", "s"); ("cqual.analysis.alloc_mb", "MiB");
    ("solver.vars_created", "count"); ("solver.edges_added", "count"); ("solver.edges_deduped", "count");
    ("solver.worklist_pops", "count"); ("solver.cycles_collapsed", "count");
    ("compact.scheme_vars_ratio", "ratio"); ("compact.scheme_edges_ratio", "ratio");
    ("memo.hit_ratio", "ratio"); ("cqual.report.s", "s"); ("cqual.report.positions", "count");
    ("cqual.render.s", "s"); ("cqual.render.bytes", "bytes"); ("session.run.s", "s");
    ("session.run.alloc_mb", "MiB"); ("session.memo_hit_ratio", "ratio");
    ("session.heap_growth_mb", "MiB"); ("session.whatif.alloc_mb", "MiB"); ("wire.bytes", "bytes");
    ("gc.major_collections", "count"); ("gc.top_heap_mb", "MiB"); ("trace.unattributed_s", "s");
  ]

let layer : (string, float) Hashtbl.t = Hashtbl.create 64
let set name v = Hashtbl.replace layer name v
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let alloc_mb name = Span.alloc_total name /. 1048576.
let span_median name = median (List.map Span.dur (Span.named name))

(* The cold per-unit pipeline, each layer's public call inside a span:
   lex, parse and build every unit, link, FDG, analysis, report, render.
   Returns the rendered report. *)
let traced_pipeline files =
  Span.record "pipeline" (fun () ->
      let tokens = ref 0 in
      let units =
        List.map
          (fun (uname, src) ->
            let tb, lex_diags = Span.record "cfront.lex" (fun () -> Cfront.Clexer.tokenize_buf src) in
            tokens := !tokens + Cfront.Tokbuf.length tb;
            let res = Span.record "cfront.parse" (fun () -> Cfront.Cparse.parse_unit tb ~lex_diags) in
            (uname, Span.record "cfront.build" (fun () -> Cfront.Cprog.build res.Cfront.Cparse.ur_pr.Cfront.Cparse.pr_prog)))
          files
      in
      let prog, home =
        Span.record "cfront.link" (fun () ->
            let home = Hashtbl.create 4096 in
            List.iter
              (fun (uname, p) ->
                List.iter
                  (fun (f : Cfront.Cast.fundef) ->
                    if not (Hashtbl.mem home f.Cfront.Cast.f_name) then Hashtbl.replace home f.Cfront.Cast.f_name uname)
                  (Cfront.Cprog.functions p))
              units;
            (Cfront.Cprog.merge (List.map snd units), home))
      in
      let fdg, width =
        Span.record "cqual.fdg" (fun () ->
            let g = Cqual.Fdg.build prog in
            (g, Cqual.Fdg.wavefront_width g))
      in
      let env, ifaces =
        Span.record "cqual.analysis" (fun () -> A.run ~rules:A.const_rules ~compact:true ~jobs:1 A.Poly prog)
      in
      let locate fname line = (Option.value (Hashtbl.find_opt home fname) ~default:"", line) in
      let results = Span.record "cqual.report" (fun () -> Cqual.Report.measure ~locate env ifaces) in
      let run =
        {
          S.results;
          timing = { S.t_compile = 0.; t_analysis = 0. };
          lines = List.fold_left (fun a (_, s) -> a + Cfront.Cprog.count_lines s) 0 files;
          n_functions = List.length (Cfront.Cprog.functions prog);
          n_constraints = Typequal.Solver.num_vars env.A.store;
          solver_stats = A.stats env;
          diagnostics = [];
          fdg_scc_count = Cqual.Fdg.scc_count fdg;
          fdg_largest_scc = Cqual.Fdg.largest_scc fdg;
          wavefront_width = width;
          par = env.A.par;
          frontend = None;
        }
      in
      let text =
        Span.record "cqual.render" (fun () -> S.render_run ~positions:true ~jobs:1 ~name:(report_name files) A.Poly run)
      in
      List.iter
        (fun (n, v) -> set n v)
        [
          ("cfront.lex.tokens", float_of_int !tokens);
          ("cqual.fdg.sccs", float_of_int run.S.fdg_scc_count);
          ("cqual.fdg.largest_scc", float_of_int run.S.fdg_largest_scc);
          ("cqual.report.positions", float_of_int results.Cqual.Report.total);
          ("cqual.render.bytes", float_of_int (String.length text));
        ];
      (text, run.S.solver_stats))

(* Solver counters of the workload's own operation: medians when it
   repeats. *)
let set_solver (ss : Typequal.Solver.stats list) =
  let med f = median (List.map (fun s -> float_of_int (f s)) ss) in
  let open Typequal.Solver in
  set "solver.vars_created" (med (fun s -> s.vars_created));
  set "solver.edges_added" (med (fun s -> s.edges_added));
  set "solver.edges_deduped" (med (fun s -> s.edges_deduped));
  set "solver.worklist_pops" (med (fun s -> s.worklist_pops));
  set "solver.cycles_collapsed" (med (fun s -> s.cycles_collapsed));
  set "compact.scheme_vars_ratio" (median (List.map (fun s -> ratio s.scheme_vars_after s.scheme_vars_before) ss));
  set "compact.scheme_edges_ratio" (median (List.map (fun s -> ratio s.scheme_edges_after s.scheme_edges_before) ss));
  set "memo.hit_ratio" (median (List.map (fun s -> ratio s.instantiations_memo_hits s.memo_candidates) ss))

(* The traced pipeline must render exactly what cqualc printed: a trace
   of a different program is worthless. *)
let pipeline_matches files reference =
  let text, stats = traced_pipeline files in
  op (text = reference) "traced pipeline render is byte-identical to cqualc stdout";
  if text <> reference then failwith "the traced pipeline does not reproduce cqualc's report";
  stats

(* server-side costs of the recorded request/response stream *)
let replay_wire (log : (string * string) list) =
  List.iter
    (fun (req, resp) ->
      ignore (Span.record "wire.decode" (fun () -> W.parse_request req));
      match W.of_string resp with
      | Ok j -> (
          match W.mem "result" j with
          | Some r ->
              let id = Option.value (W.mem "id" j) ~default:W.Null in
              ignore (Span.record "wire.encode" (fun () -> W.response_ok ~id r))
          | None -> ())
      | Error _ -> ())
    (List.rev log);
  set "wire.bytes" (float_of_int (List.fold_left (fun a (q, r) -> a + String.length q + String.length r + 2) 0 log))

(* live data after a full collection: the heap's size itself only grows *)
let heap_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.

let session_create files = S.create ~mode:A.Poly ~compact:true ~jobs:1 files

(* the batch entry point cqualc itself calls *)
let run_sources files = S.run_sources ~mode:A.Poly ~rules:A.const_rules ~compact:true ~jobs:1 files

(* Set-up and outside reference for every trace: the corpus and one cold
   cqualc run whose stdout the traced pipeline must reproduce. *)
let trace_reference w seed =
  let files, dirs = materialise w seed 1 in
  Sys.chdir (List.hd dirs);
  let r = Child.run_batch cqualc (cqualc_args files) in
  batch_outputs_agree w seed files [ r ];
  (files, r)

let trace_workload w ~seed =
  match w.kind with
  | Batch ->
      let files, r = trace_reference w seed in
      let more = List.init 2 (fun _ -> Child.run_batch cqualc (cqualc_args files)) in
      List.iter
        (fun (m : Child.batch) -> op (exited_0 m && m.Child.stdout = r.Child.stdout) "every run prints the same report")
        more;
      set_solver [ pipeline_matches files r.Child.stdout ];
      Gc.compact ();
      let run = Span.record "session.run" (fun () -> run_sources files) in
      let text =
        Span.record "session.render" (fun () ->
            S.render_run ~positions:true ~jobs:1 ~name:(report_name files) A.Poly run)
      in
      op (text = r.Child.stdout) "Session.run_sources render equals cqualc stdout";
      (* these two are the calls cqualc makes, so the rest of its wall
         time is process start, file reads and the output write *)
      median (List.map (fun (r : Child.batch) -> r.Child.wall_s) (r :: more))
      -. Span.total "session.run" -. Span.total "session.render"
  | Daemon_edit ->
      let steps = 8 in
      let files, r = trace_reference w seed in
      let d = Child.spawn_daemon typequald (daemon_args files) in
      let outside, log =
        Fun.protect ~finally:(fun () -> Child.stop d) (fun () ->
            op (Result.is_ok (Child.call d "run" [])) "run answers";
            let positions = Array.of_list (positions_of (Child.call d "positions" [])) in
            let edits = ref [] in
            let o = List.init steps (fun k -> daemon_step d ~seed ~files ~positions ~edits (k + 1)) in
            (o, d.Child.log))
      in
      set_solver [ pipeline_matches files r.Child.stdout ];
      Gc.compact ();
      let s = session_create files in
      ignore (Span.record "session.run_cold" (fun () -> S.run s));
      let positions = Array.of_list (List.map (fun (k, _, v) -> (k, verdict_str v)) (S.positions s)) in
      let heap0 = heap_mb () and h0, m0 = (fun st -> (st.S.ss_memo_hits, st.S.ss_memo_misses)) (S.stats s) in
      let runs =
        List.init steps (fun i ->
            let k = i + 1 in
            let e = Edits.make ~seed files k in
            let run, cls =
              Span.record ~rid:k "daemon.step" (fun () ->
                  ignore (Span.record ~rid:k "session.update" (fun () -> S.update_unit s e.Edits.unit_name e.Edits.source));
                  let run = Span.record ~rid:k "session.run" (fun () -> S.run s) in
                  (run, Span.record ~rid:k "session.classify" (fun () -> S.classify s e.Edits.key)))
            in
            op (Option.map (fun (_, v) -> verdict_str v) cls = Some e.Edits.verdict) "traced edit classifies as forced";
            let verdicts =
              List.map
                (fun key ->
                  let c = Span.record ~rid:k "session.classify" (fun () -> S.classify s key) in
                  (key, Option.fold ~none:"" ~some:(fun (_, v) -> verdict_str v) c))
                (read_keys ~seed positions k)
            in
            let key, verdict = last verdicts in
            (match Span.record ~rid:k "session.whatif_prepare" (fun () -> S.whatif_task s ~qual:"const" key) with
            | Ok thunk ->
                let wr = Span.record ~rid:k "session.whatif_eval" thunk in
                op
                  (whatif_agrees ~verdict ~before:wr.S.w_errors_before ~after:wr.S.w_errors_after)
                  "traced whatif agrees with its verdict"
            | Error m -> op false m);
            run.S.solver_stats)
      in
      let st = S.stats s in
      set "session.memo_hit_ratio" (ratio (st.S.ss_memo_hits - h0) (st.S.ss_memo_hits - h0 + st.S.ss_memo_misses - m0));
      set "session.heap_growth_mb" (heap_mb () -. heap0);
      (* the session must stay reachable while its heap is measured *)
      ignore (Sys.opaque_identity s);
      set_solver runs;
      replay_wire log;
      median (List.map (fun (e, _, _) -> e) outside) -. span_median "daemon.step"
  | Daemon_query ->
      let queries = 30 in
      let files, r = trace_reference w seed in
      let d = Child.spawn_daemon typequald (daemon_args files) in
      let outside, log =
        Fun.protect ~finally:(fun () -> Child.stop d) (fun () ->
            op (Result.is_ok (Child.call d "run" [])) "run answers";
            let positions = Array.of_list (positions_of (Child.call d "positions" [])) in
            let rng = Cbench.Rng.create seed in
            let o = List.init queries (fun _ -> query d (Cbench.Rng.pick rng positions)) in
            (o, d.Child.log))
      in
      set_solver [ pipeline_matches files r.Child.stdout ];
      Gc.compact ();
      let s = session_create files in
      ignore (Span.record "session.run" (fun () -> S.run s));
      let positions = Array.of_list (List.map (fun (k, _, v) -> (k, verdict_str v)) (S.positions s)) in
      let heap0 = heap_mb () in
      let rng = Cbench.Rng.create seed in
      for i = 1 to queries do
        let key, verdict = Cbench.Rng.pick rng positions in
        Span.record ~rid:i "daemon.whatif" (fun () ->
            match Span.record ~rid:i "session.whatif_prepare" (fun () -> S.whatif_task s ~qual:"const" key) with
            | Ok thunk ->
                let wr = Span.record ~rid:i "session.whatif_eval" thunk in
                op
                  (whatif_agrees ~verdict ~before:wr.S.w_errors_before ~after:wr.S.w_errors_after)
                  "traced whatif agrees with its verdict"
            | Error m -> op false m)
      done;
      set "session.heap_growth_mb" (heap_mb () -. heap0);
      ignore (Sys.opaque_identity s);
      replay_wire log;
      median outside -. span_median "daemon.whatif"

let trace_metrics w ~seed =
  let gc0 = Gc.quick_stat () in
  let unattributed = trace_workload w ~seed in
  let gc1 = Gc.quick_stat () in
  List.iter
    (fun n -> set (n ^ ".s") (Span.total n))
    [ "cfront.lex"; "cfront.parse"; "cfront.build"; "cfront.link"; "cqual.fdg"; "cqual.analysis"; "cqual.report"; "cqual.render" ];
  List.iter (fun n -> set (n ^ ".alloc_mb") (alloc_mb n)) [ "cfront.lex"; "cfront.parse"; "cqual.analysis" ];
  set "session.run.s" (span_median "session.run");
  set "session.run.alloc_mb" (median (List.map (fun s -> s.Span.alloc /. 1048576.) (Span.named "session.run")));
  set "session.whatif.alloc_mb" (median (List.map (fun s -> s.Span.alloc /. 1048576.) (Span.named "session.whatif_eval")));
  set "gc.major_collections" (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
  set "gc.top_heap_mb" (float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
  set "trace.unattributed_s" unattributed;
  let file = Printf.sprintf "trace-%s.json" w.name in
  Span.write_chrome (Filename.concat root file);
  Printf.printf "trace: %s\n%-26s %6s %12s %12s\n" file "span" "calls" "total_s" "self_s";
  List.iter (fun (n, calls, tot, self) -> Printf.printf "%-26s %6d %12.6f %12.6f\n" n calls tot self) (Span.summary ());
  List.map (fun (n, u) -> metric n u [ Option.value (Hashtbl.find_opt layer n) ~default:0. ]) per_layer

(* ------------------------------------------------------------------ *)
(* selftest: the edit stream (dune runtest)                            *)
(* ------------------------------------------------------------------ *)

(* On a 5 kloc project for two seeds: edits are deterministic, every
   edited unit parses with no diagnostics, every set-up key still
   classifies, and each edit forces the verdict it promises. *)
let selftest () =
  List.iter
    (fun seed ->
      let files = Cbench.Gen.generate_project ~seed ~target_lines:5_000 () in
      let s = session_create files in
      let keys = List.map (fun (k, _, _) -> k) (S.positions s) in
      let edits = ref [] in
      for k = 1 to 6 do
        let e = Edits.make ~seed files k in
        op (e = Edits.make ~seed files k) "edits are deterministic";
        edits := !edits @ [ e ];
        op (S.update_unit s e.Edits.unit_name e.Edits.source = `Updated) "the edit changes its unit";
        op (S.diagnostics s = []) (Printf.sprintf "edit %d parses with no diagnostics" k);
        op (List.for_all (fun key -> S.classify s key <> None) keys) "every set-up key still classifies";
        op
          (Option.map (fun (_, v) -> verdict_str v) (S.classify s e.Edits.key) = Some e.Edits.verdict)
          (Printf.sprintf "edit %d forces %s at %s" k e.Edits.verdict e.Edits.key);
        let current = Edits.apply files !edits in
        check_report ~what:(Printf.sprintf "report after edit %d" k) ~known:(Edits.known !edits) current
          (S.render ~positions:true ~name:(report_name current) s)
      done)
    [ 1; 2 ];
  if tally.failed > 0 then exit 1;
  Printf.printf "selftest: %d checks passed\n" tally.attempted

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: typequal_bench.exe --workload W [--seed N] [--seconds S] [--trace 0|1]\n\
    \       typequal_bench.exe run [W ...] [--seed N] [--seconds S]\n\
    \       typequal_bench.exe trace W [--seed N]\n\
    \       typequal_bench.exe selftest";
  prerr_endline ("workloads: " ^ String.concat ", " (List.map (fun w -> w.name) workloads));
  exit 2

(* One workload, one seed: the metric block, then the result line. *)
let run_one w ~seed ~seconds ~trace =
  tally.attempted <- 0;
  tally.failed <- 0;
  let seed = Option.value seed ~default:w.default_seed in
  Printf.printf "== %s seed %d (%s) ==\n%!" w.name seed (if trace then "traced" else "end to end");
  if not (Sys.file_exists cqualc && Sys.file_exists typequald) then failwith "build bin/cqualc.exe and bin/typequald.exe first";
  List.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755) [ Filename.dirname work_dir; work_dir ];
  let metrics =
    Fun.protect
      ~finally:(fun () ->
        Sys.chdir root;
        rm_rf work_dir)
      (fun () -> if trace then trace_metrics w ~seed else run_workload w ~seed ~seconds)
  in
  print_env w seed !corpus;
  List.iter print_metric metrics;
  print_result metrics;
  tally.failed = 0

let () =
  (* a daemon that dies mid-request must surface as an error, not kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = List.tl (Array.to_list Sys.argv) in
  let cmd, args = match args with ("run" | "trace" | "selftest") as c :: rest -> (c, rest) | rest -> ("driver", rest) in
  let seed = ref None and seconds = ref 15. and trace = ref false and names = ref [] in
  let rec parse = function
    | "--seed" :: n :: rest -> seed := int_of_string_opt n; if !seed = None then usage (); parse rest
    | "--seconds" :: s :: rest -> seconds := (match float_of_string_opt s with Some s -> s | None -> usage ()); parse rest
    | "--trace" :: t :: rest -> trace := (match t with "1" -> true | "0" -> false | _ -> usage ()); parse rest
    | "--workload" :: n :: rest -> names := !names @ [ n ]; parse rest
    | n :: rest when not (String.starts_with ~prefix:"-" n) -> names := !names @ [ n ]; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse args;
  let find n = match List.find_opt (fun w -> w.name = n) workloads with Some w -> w | None -> usage () in
  let ok =
    try
      match (cmd, !names) with
      | "selftest", [] -> selftest (); true
      | "run", names ->
          let ws = if names = [] then workloads else List.map find names in
          List.fold_left (fun ok w -> run_one w ~seed:!seed ~seconds:!seconds ~trace:false && ok) true ws
      | "trace", [ n ] -> run_one (find n) ~seed:!seed ~seconds:!seconds ~trace:true
      | "driver", [ n ] -> run_one (find n) ~seed:!seed ~seconds:!seconds ~trace:!trace
      | _ -> usage ()
    with e ->
      prerr_endline ("typequal_bench: " ^ Printexc.to_string e);
      false
  in
  exit (if ok then 0 else 1)
