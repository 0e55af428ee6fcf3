(** The analysis session: every stage of the const-inference pipeline —
    unit table, linked program, FDG, published schemes, solved store,
    report — as a persistent value with precise invalidation. Every run
    goes through it: the batch CLI is a session used once, the daemon a
    session kept warm.

    A {!t} keeps one warm artifact between runs: the per-unit AST memo
    (keyed by unit content digest), so after {!update_unit} only the
    edited unit is lexed and parsed again. Analysis always reruns in
    full through {!Analysis.run}: replaying recorded constraints would
    cost as much as inferring them. Queries ({!classify}, {!explain},
    {!whatif}) are answered against the warm solved store through stable
    [unit:line:col] position keys (see {!Report.position_key}).

    The frontend is per-unit: each translation unit is lexed and parsed
    independently (in parallel under [--jobs]), then a deterministic
    serial link step merges the unit programs and threads the cross-unit
    parser environment. See DESIGN.md "Per-unit frontend" and "Session
    architecture". *)

type timing = {
  t_compile : float;  (** parse + table construction, seconds *)
  t_analysis : float;  (** constraint generation + solving *)
}

(** Frontend phase breakdown. Under [--jobs] > 1 the lex/parse/build
    times are summed across worker domains (like the solver's per-phase
    timers), so they can exceed the compile wall clock. *)
type frontend_stats = {
  fs_units : int;
  fs_reparsed : int;
      (** units whose speculative parse was discarded and redone with
          the linked environment (typedef/enum-name overlap, anonymous
          tag numbering, or a diagnostic budget spill) *)
  fs_lex_s : float;
  fs_parse_s : float;
  fs_build_s : float;
  fs_link_s : float;
}

type run = {
  results : Report.results;
  timing : timing;
  lines : int;
  n_functions : int;
  n_constraints : int;  (** number of qualifier variables, a proxy for size *)
  solver_stats : Typequal.Solver.stats;
      (** constraint-store counters (unifications, dedup, cycle collapses,
          worklist pops) accumulated over the whole run *)
  diagnostics : Cfront.Diag.t list;
      (** lexer/parser diagnostics recovered from, in source order; empty
          for a clean parse. Multi-unit runs carry unit-local positions
          ([Diag.d_unit] names the file). *)
  fdg_scc_count : int;  (** SCCs in the function dependence graph *)
  fdg_largest_scc : int;  (** size of the largest (mutual-recursion) SCC *)
  wavefront_width : int;
      (** maximum SCCs simultaneously ready under wavefront scheduling: an
          upper bound on useful analysis parallelism *)
  par : Analysis.par_stats option;
      (** parallel-engine phase breakdown; [None] for serial runs *)
  frontend : frontend_stats option;
      (** per-unit frontend phase breakdown; [None] for whole-run cache
          hits *)
}

let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

exception Error of string

(** [Some cores] when [jobs] asks for more worker domains than the host
    can schedule — the caller should warn: oversubscribed domains contend
    instead of parallelizing (BENCH_hotpath.json measured jobs-4 on one
    core at ~7x slower than serial). *)
let oversubscription ~jobs =
  let cores = Typequal.Pool.cores_available () in
  if jobs > cores then Some cores else None

(** The oversubscription advisory as a structured diagnostic (severity
    {!Cfront.Diag.Notice}, code N0901). The batch CLIs render it with a
    ["warning: "] prefix — byte-identical to the historical free-form
    line — while the daemon ships it to clients as data. *)
let oversubscription_notice ~jobs : Cfront.Diag.t option =
  match oversubscription ~jobs with
  | None -> None
  | Some cores ->
      Some
        (Cfront.Diag.notice ~code:"N0901"
           (Printf.sprintf
              "--jobs %d exceeds the %d available cores; domains will \
               contend rather than parallelize"
              jobs cores))

(* ------------------------------------------------------------------ *)
(* Persistent cache (two disk tiers; see DESIGN.md)                    *)
(* ------------------------------------------------------------------ *)

module Cache = Typequal.Cache

(** an open cache plus the caller's identity string for everything the
    fingerprints below cannot see — the rule set beyond its qualifier
    space (e.g. which CLI analysis flavour and lattice file built it) *)
type cache_spec = { cs_cache : Cache.t; cs_opts_id : string }

(* The context digest stamped into every envelope: qualifier-space dump
   (the full lattice structure), compiler version (Marshal payloads are
   not portable across it), and a payload-format revision to bump whenever
   any marshaled type in this file changes shape. *)
let space_fingerprint (sp : Typequal.Lattice.Space.t) : Digest.t =
  Digest.string
    (Fmt.str "%a|%s|payload-fmt-3" Typequal.Lattice.Space.pp_dump sp
       Sys.ocaml_version)

(** Open a cache directory for runs under this rule set (default: const
    inference). Returns [None] — after [warn] — when the path is unusable;
    run without a cache then. Never raises. *)
let open_cache ?warn ?(rules = Analysis.const_rules) ~opts_id dir :
    cache_spec option =
  match
    Cache.open_dir ?warn ~ctx:(space_fingerprint rules.Analysis.qr_space) dir
  with
  | Some c -> Some { cs_cache = c; cs_opts_id = opts_id }
  | None -> None

(* Unit identity: the per-file content hash that keys invalidation. The
   name participates, so renaming a file on disk invalidates exactly the
   units (and run) that file contributes to. *)
let unit_digest name content = Digest.string (name ^ "\000" ^ content)

let mode_name = function
  | Analysis.Mono -> "mono"
  | Analysis.Poly -> "poly"
  | Analysis.Polyrec -> "polyrec"

(* Everything that parameterizes inference besides the program text and
   the qualifier space (already in the envelope context). [jobs] is
   deliberately absent: results are jobs-invariant. *)
let opt_fingerprint ~opts_id ~mode ~field_sharing ~simplify ~compact
    ~max_errors : string =
  let ob = function Some b -> string_of_bool b | None -> "-" in
  Digest.string
    (String.concat "|"
       [
         opts_id;
         mode_name mode;
         ob field_sharing;
         ob simplify;
         ob compact;
         (match max_errors with Some n -> string_of_int n | None -> "-");
       ])

(* [s] without its wall-clock and heap fields: the deterministic
   counters a cached run record may persist and serve *)
let sanitize_stats (s : Typequal.Solver.stats) : Typequal.Solver.stats =
  {
    s with
    Typequal.Solver.solve_s = 0.;
    absorb_s = 0.;
    congen_s = 0.;
    generalize_s = 0.;
    compact_s = 0.;
    instantiate_s = 0.;
    report_s = 0.;
    heap_words = 0;
    top_heap_words = 0;
    cores_available = 0;
  }

(* the run record's cacheable core: no wall-clock, no parallel-phase
   breakdown, solver counters sanitized of nondeterministic fields *)
type cached_run = {
  cr_results : Report.results;
  cr_lines : int;
  cr_n_functions : int;
  cr_n_constraints : int;
  cr_stats : Typequal.Solver.stats;
  cr_diags : Cfront.Diag.t list;
  cr_scc_count : int;
  cr_largest_scc : int;
  cr_wavefront : int;
}

(* load kind/key and unmarshal as ['a]; any decode failure rejects the
   entry (the envelope verified, so the payload was well-formed bytes that
   mean nothing to us — e.g. written by a differently-shaped build) *)
let load_marshal (type a) (c : Cache.t) ~kind ~key : a option =
  match Cache.load c ~kind ~key with
  | None -> None
  | Some payload -> (
      match (Marshal.from_string payload 0 : a) with
      | v -> Some v
      | exception ((Out_of_memory | Sys.Break) as e) -> raise e
      | exception _ ->
          Cache.reject_undecodable c ~kind ~key;
          None)

let run_of_cached (cr : cached_run) ~t_lookup : run =
  {
    results = cr.cr_results;
    timing = { t_compile = 0.; t_analysis = t_lookup };
    lines = cr.cr_lines;
    n_functions = cr.cr_n_functions;
    n_constraints = cr.cr_n_constraints;
    solver_stats = cr.cr_stats;
    diagnostics = cr.cr_diags;
    fdg_scc_count = cr.cr_scc_count;
    fdg_largest_scc = cr.cr_largest_scc;
    wavefront_width = cr.cr_wavefront;
    par = None;
    frontend = None;
  }

let cached_of_run (r : run) : cached_run =
  {
    cr_results = r.results;
    cr_lines = r.lines;
    cr_n_functions = r.n_functions;
    cr_n_constraints = r.n_constraints;
    cr_stats = sanitize_stats r.solver_stats;
    cr_diags = r.diagnostics;
    cr_scc_count = r.fdg_scc_count;
    cr_largest_scc = r.fdg_largest_scc;
    cr_wavefront = r.wavefront_width;
  }

(* ------------------------------------------------------------------ *)
(* Per-unit frontend                                                   *)
(* ------------------------------------------------------------------ *)

(* the frontend's product: the linked program, its recovered
   diagnostics and demoted bodies, and the function-name ->
   defining-unit table that anchors the report's stable position keys *)
type compiled = {
  co_prog : Cfront.Cprog.t;
  co_diags : Cfront.Diag.t list;
  co_degraded : (string * string) list;
  co_lines : int;
  co_t_compile : float;
  co_frontend : frontend_stats;
  co_home : (string, string) Hashtbl.t;
}

(* the per-unit AST cache payload: the speculative (environment-free)
   parse of one unit, reusable under any link order. Reparses triggered
   by the link environment are never cached — they depend on it. *)
type cached_unit = { cu_res : Cfront.Cparse.uresult }

let unit_key ~max_errors ~digest =
  Digest.string (Printf.sprintf "unit\000%d\000%s" max_errors digest)

(* The persistent session's in-memory AST tier: unit digest ->
   speculative parse, with hit/miss counters for {!stats}. *)
type fe_memo = {
  fm_tbl : (string, Cfront.Cparse.uresult) Hashtbl.t;
  mutable fm_hits : int;
  mutable fm_misses : int;
}

(* one unit's frontend product, pre-link *)
type unit_fe = {
  uf_name : string;
  uf_src : string;
  uf_res : Cfront.Cparse.uresult;
  uf_prog : Cfront.Cprog.t;  (* build of the speculative parse *)
}

(** The per-unit frontend: speculative parallel lex+parse+build per
    translation unit, then a deterministic serial link that replays the
    cross-unit parser environment in file order and re-parses the rare
    unit whose speculative result it could have influenced. [fe_memo] is
    the session's in-memory AST tier, probed before the disk tier, fed by
    fresh parses, and pruned to the current units' digests. *)
let compile_units ?cache ~fe_memo ~jobs ~me (files : (string * string) list)
    : compiled =
  let lines =
    List.fold_left
      (fun acc (_, src) -> acc + Cfront.Cprog.count_lines src)
      0 files
  in
  let multi = match files with [] | [ _ ] -> false | _ -> true in
  let t0 = Unix.gettimeofday () in
  let files_a = Array.of_list files in
  let digests_a =
    Array.map (fun (name, src) -> unit_digest name src) files_a
  in
  let n = Array.length files_a in
  (* --- per-unit AST memo + cache probes (serial: neither the memo table
     nor cache handles are domain-safe) --- *)
  let probed : Cfront.Cparse.uresult option array = Array.make n None in
  Array.iteri
    (fun i _ ->
      match Hashtbl.find_opt fe_memo.fm_tbl digests_a.(i) with
      | Some res ->
          fe_memo.fm_hits <- fe_memo.fm_hits + 1;
          probed.(i) <- Some res
      | None -> fe_memo.fm_misses <- fe_memo.fm_misses + 1)
    files_a;
  (match cache with
  | None -> ()
  | Some cs ->
      Array.iteri
        (fun i _ ->
          if probed.(i) = None then
            match
              (load_marshal cs.cs_cache ~kind:"unit"
                 ~key:(unit_key ~max_errors:me ~digest:digests_a.(i))
                : cached_unit option)
            with
            | Some cu -> probed.(i) <- Some cu.cu_res
            | None -> ())
        files_a);
  (* --- speculative lex+parse+build, one task per unit --- *)
  let slots : unit_fe option array = Array.make n None in
  let tmu = Mutex.create () in
  let lex_s = ref 0. and parse_s = ref 0. and build_s = ref 0. in
  let add cell dt =
    Mutex.lock tmu;
    cell := !cell +. dt;
    Mutex.unlock tmu
  in
  Typequal.Pool.with_pool ~jobs (fun pool ->
      Array.iteri
        (fun i (name, src) ->
          Typequal.Pool.submit pool (fun () ->
              let res =
                match probed.(i) with
                | Some res -> res
                | None ->
                    let (tb, lex_diags), t_lex =
                      time (fun () ->
                          Cfront.Clexer.tokenize_buf ~max_errors:me src)
                    in
                    add lex_s t_lex;
                    let res, t_parse =
                      time (fun () ->
                          Cfront.Cparse.parse_unit ~max_errors:me tb ~lex_diags)
                    in
                    add parse_s t_parse;
                    res
              in
              let prog, t_build =
                time (fun () ->
                    Cfront.Cprog.build
                      res.Cfront.Cparse.ur_pr.Cfront.Cparse.pr_prog)
              in
              add build_s t_build;
              slots.(i) <-
                Some { uf_name = name; uf_src = src; uf_res = res; uf_prog = prog }))
        files_a;
      Typequal.Pool.wait pool);
  (* --- persist fresh speculative parses (memo and disk) --- *)
  Array.iteri
    (fun i uf ->
      match (probed.(i), uf) with
      | None, Some uf -> (
          Hashtbl.replace fe_memo.fm_tbl digests_a.(i) uf.uf_res;
          match cache with
          | Some cs ->
              Cache.store cs.cs_cache ~kind:"unit"
                ~key:(unit_key ~max_errors:me ~digest:digests_a.(i))
                (Marshal.to_string { cu_res = uf.uf_res } [])
          | None -> ())
      | _ -> ())
    slots;
  (* an entry no current unit hashes to is dead weight: an edit that is
     reverted re-parses rather than keeping every version alive *)
  Hashtbl.filter_map_inplace
    (fun d res -> if Array.mem d digests_a then Some res else None)
    fe_memo.fm_tbl;
  (* --- serial link: validate each speculative parse against the
     accumulated environment, re-parse when it could have been
     influenced, thread the diagnostic budget, merge in file order --- *)
  let link_t0 = Unix.gettimeofday () in
  let env_typedefs : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let env_enums : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let env_anon = ref 0 in
  let consumed = ref 0 in
  let capped = ref false in
  let reparsed = ref 0 in
  let progs = ref [] in
  let diags = ref [] in
  let degraded = ref [] in
  let home : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let in_unit uf d = if multi then Cfront.Diag.with_unit uf.uf_name d else d in
  Array.iter
    (fun uf ->
      let uf = Option.get uf in
      if not !capped then
        if !consumed >= me then begin
          (* the budget ran out exactly at a unit boundary: a
             whole-program parse would give up at this unit's first
             token *)
          capped := true;
          diags :=
            in_unit uf
              (Cfront.Diag.note ~code:"E0299"
                 uf.uf_res.Cfront.Cparse.ur_first_span
                 (Printf.sprintf
                    "too many errors (%d); giving up on the rest of the file"
                    me))
            :: !diags
        end
        else begin
          let spec = uf.uf_res in
          let k = List.length spec.Cfront.Cparse.ur_pr.Cfront.Cparse.pr_diags in
          let mention_hit =
            (Hashtbl.length env_typedefs > 0 || Hashtbl.length env_enums > 0)
            && List.exists
                 (fun id ->
                   Hashtbl.mem env_typedefs id || Hashtbl.mem env_enums id)
                 spec.Cfront.Cparse.ur_idents
          in
          let anon_hit = !env_anon > 0 && spec.Cfront.Cparse.ur_anon > 0 in
          let budget_hit = !consumed > 0 && k > 0 && !consumed + k >= me in
          let res, prog =
            if not (mention_hit || anon_hit || budget_hit) then
              (spec, uf.uf_prog)
            else begin
              incr reparsed;
              let seed =
                {
                  Cfront.Cparse.us_typedefs =
                    Hashtbl.fold (fun k () acc -> k :: acc) env_typedefs [];
                  us_enums =
                    Hashtbl.fold (fun k v acc -> (k, v) :: acc) env_enums [];
                  us_anon = !env_anon;
                  us_count_base = !consumed;
                }
              in
              let tb, lex_diags =
                Cfront.Clexer.tokenize_buf ~max_errors:(me - !consumed)
                  uf.uf_src
              in
              let res =
                Cfront.Cparse.parse_unit ~max_errors:me ~seed tb ~lex_diags
              in
              (res, Cfront.Cprog.build res.Cfront.Cparse.ur_pr.Cfront.Cparse.pr_prog)
            end
          in
          let pr = res.Cfront.Cparse.ur_pr in
          consumed := !consumed + List.length pr.Cfront.Cparse.pr_diags;
          if res.Cfront.Cparse.ur_capped then capped := true;
          List.iter
            (fun name -> Hashtbl.replace env_typedefs name ())
            res.Cfront.Cparse.ur_typedefs;
          List.iter
            (fun (name, v) -> Hashtbl.replace env_enums name v)
            res.Cfront.Cparse.ur_enums;
          env_anon := !env_anon + res.Cfront.Cparse.ur_anon;
          progs := prog :: !progs;
          List.iter (fun d -> diags := in_unit uf d :: !diags) pr.Cfront.Cparse.pr_diags;
          List.iter (fun dg -> degraded := dg :: !degraded) pr.Cfront.Cparse.pr_degraded;
          List.iter
            (fun (f : Cfront.Cast.fundef) ->
              if not (Hashtbl.mem home f.Cfront.Cast.f_name) then
                Hashtbl.replace home f.Cfront.Cast.f_name uf.uf_name)
            (Cfront.Cprog.functions prog)
        end)
    slots;
  let prog = Cfront.Cprog.merge (List.rev !progs) in
  let link_s = Unix.gettimeofday () -. link_t0 in
  {
    co_prog = prog;
    co_diags = List.rev !diags;
    co_degraded = List.rev !degraded;
    co_lines = lines;
    co_t_compile = Unix.gettimeofday () -. t0;
    co_frontend =
      {
        fs_units = n;
        fs_reparsed = !reparsed;
        fs_lex_s = !lex_s;
        fs_parse_s = !parse_s;
        fs_build_s = !build_s;
        fs_link_s = link_s;
      };
    co_home = home;
  }

(* ------------------------------------------------------------------ *)
(* Analysis and measurement over the linked program                    *)
(* ------------------------------------------------------------------ *)

(* Analyze, measure, and attach FDG statistics (from the graph the
   analysis scheduled over; mono builds one here). Also returns the
   live environment and the stable-key position index the queries go
   through. A function's AST lines are already unit-local, so its
   position anchor only needs its home unit. *)
let analyze ?rules ?field_sharing ?simplify ?compact ?budget ~jobs mode
    (co : compiled) =
  let (env, ifaces), t =
    time (fun () ->
        Analysis.run ?rules ?field_sharing ?simplify ?compact ?budget ~jobs
          mode co.co_prog)
  in
  let st = env.Analysis.store in
  let solve0 = (Typequal.Solver.stats st).solve_s in
  let locate fname line =
    (Option.value (Hashtbl.find_opt co.co_home fname) ~default:"", line)
  in
  let (results, index, keys), t2 =
    time (fun () -> Report.measure_indexed ~locate env ifaces)
  in
  (* the report's own cost, minus the final solve it triggers (that time
     is already accounted to solve_s) *)
  let solve_d = (Typequal.Solver.stats st).solve_s -. solve0 in
  Typequal.Solver.note_phase st Typequal.Solver.Report
    (Float.max 0. (t2 -. solve_d));
  (* the polymorphic modes hand back the graph they scheduled over;
     only mono runs never built one *)
  let fdg =
    match env.Analysis.fdg with Some fdg -> fdg | None -> Fdg.build co.co_prog
  in
  let results =
    {
      results with
      (* tail-recursive construction: a pathological input can demote
         thousands of functions, and outcome lists are program-sized *)
      Report.outcomes =
        List.rev_append
          (List.rev results.Report.outcomes)
          (List.rev
             (List.rev_map
                (fun (name, reason) -> (name, Analysis.Degraded reason))
                co.co_degraded));
    }
  in
  let run =
    {
      results;
      timing = { t_compile = co.co_t_compile; t_analysis = t +. t2 };
      lines = co.co_lines;
      n_functions = List.length (Cfront.Cprog.functions co.co_prog);
      n_constraints = Typequal.Solver.num_vars st;
      solver_stats = Analysis.stats env;
      diagnostics = co.co_diags;
      fdg_scc_count = Fdg.scc_count fdg;
      fdg_largest_scc = Fdg.largest_scc fdg;
      wavefront_width = Fdg.wavefront_width fdg;
      par = env.Analysis.par;
      frontend = Some co.co_frontend;
    }
  in
  (run, env, index, keys)

(* ------------------------------------------------------------------ *)
(* The session                                                         *)
(* ------------------------------------------------------------------ *)

module Solver = Typequal.Solver
module Lat = Typequal.Lattice

(* The what-if index of one solved store: each report position's
   function and (key-owning) variable by report ordinal, and the ordinals
   grouped by their variable's representative id — a speculation only
   has to look at the representatives it raised. *)
type whatif_index = {
  wi_funs : string array;
  wi_vars : Solver.var array;
  wi_by_rep : (int, int list) Hashtbl.t;
}

let whatif_index (run : run) index keys : whatif_index =
  let wi_vars =
    Array.map
      (fun k ->
        let _, _, var = Hashtbl.find index k in
        var)
      keys
  in
  let wi_funs =
    Array.of_list
      (List.map
         (fun ((p : Report.position), _) -> p.Report.p_fun)
         run.results.Report.positions)
  in
  let wi_by_rep = Hashtbl.create 1024 in
  Array.iteri
    (fun n var ->
      let r = Solver.var_id (Solver.repr var) in
      Hashtbl.replace wi_by_rep r
        (n :: Option.value (Hashtbl.find_opt wi_by_rep r) ~default:[]))
    wi_vars;
  { wi_funs; wi_vars; wi_by_rep }

(* one mode's warm artifacts: the solved store, the stable-key index into
   it, every position's canonical key in report order, and the what-if
   index (built by the first whatif on this store) *)
type mode_state = {
  ms_run : run;
  ms_env : Analysis.env;
  ms_index :
    (string, Report.position * Report.verdict * Solver.var) Hashtbl.t;
  ms_keys : string array;
  ms_whatif : whatif_index Lazy.t;
}

type t = {
  s_rules : Analysis.qrules;
  s_default_mode : Analysis.mode;
  s_field_sharing : bool option;
  s_simplify : bool option;
  s_compact : bool option;
  s_budget : (unit -> Typequal.Budget.t) option;
  s_max_errors : int option;
  s_jobs : int;
  s_cache : cache_spec option;
  (* the warm tier that survives invalidation: keyed by content digest,
     so a stale entry can never be served — an edit simply stops hitting
     it, and the next compile drops it *)
  s_fe_memo : fe_memo;
  mutable s_units : (string * string) list;  (* (name, source), in order *)
  (* stages derived from the unit table; dropped on any unit edit *)
  mutable s_compiled : compiled option;
  (* every analyzed mode stays warm until the next edit *)
  s_modes : (string, mode_state) Hashtbl.t;
}

let create ?rules ?(mode = Analysis.Poly) ?field_sharing ?simplify ?compact
    ?budget ?max_errors ?(jobs = 1) ?cache (units : (string * string) list) :
    t =
  {
    s_rules = Option.value rules ~default:Analysis.const_rules;
    s_default_mode = mode;
    s_field_sharing = field_sharing;
    s_simplify = simplify;
    s_compact = compact;
    s_budget = budget;
    s_max_errors = max_errors;
    s_jobs = jobs;
    (* budgeted runs are load-dependent, not reproducible artifacts:
       never cached, never served from cache *)
    s_cache = (match budget with Some _ -> None | None -> cache);
    s_fe_memo = { fm_tbl = Hashtbl.create 64; fm_hits = 0; fm_misses = 0 };
    s_units = units;
    s_compiled = None;
    s_modes = Hashtbl.create 4;
  }

let units t = List.map fst t.s_units
let default_mode t = t.s_default_mode

(* Drop the derived stages. The AST memo is kept: it is
   content-addressed, so the next compile re-parses only the edited
   units. *)
let invalidate t =
  t.s_compiled <- None;
  Hashtbl.reset t.s_modes

let update_unit t name src : [ `Added | `Updated | `Unchanged ] =
  let digest = unit_digest name src in
  let status = ref `Added in
  let rec go = function
    | [] -> [ (name, src) ]
    | (n, s) :: rest when n = name ->
        if unit_digest n s = digest then begin
          status := `Unchanged;
          (n, s) :: rest
        end
        else begin
          status := `Updated;
          (name, src) :: rest
        end
    | u :: rest -> u :: go rest
  in
  let units = go t.s_units in
  if !status <> `Unchanged then begin
    t.s_units <- units;
    invalidate t
  end;
  !status

let remove_unit t name : bool =
  let found = List.mem_assoc name t.s_units in
  if found then begin
    t.s_units <- List.remove_assoc name t.s_units;
    invalidate t
  end;
  found

let ensure_compiled t =
  match t.s_compiled with
  | Some c -> c
  | None ->
      if t.s_units = [] then raise (Error "session has no units");
      let me = Option.value t.s_max_errors ~default:20 in
      let c =
        compile_units ?cache:t.s_cache ~fe_memo:t.s_fe_memo ~jobs:t.s_jobs ~me
          t.s_units
      in
      t.s_compiled <- Some c;
      c

let ensure_mode t mode : mode_state =
  let key = mode_name mode in
  match Hashtbl.find_opt t.s_modes key with
  | Some ms -> ms
  | None ->
      let co = ensure_compiled t in
      let run, env, index, keys =
        analyze ~rules:t.s_rules ?field_sharing:t.s_field_sharing
          ?simplify:t.s_simplify ?compact:t.s_compact
          ?budget:(Option.map (fun f -> f ()) t.s_budget)
          ~jobs:t.s_jobs mode co
      in
      let ms =
        {
          ms_run = run;
          ms_env = env;
          ms_index = index;
          ms_keys = keys;
          ms_whatif = lazy (whatif_index run index keys);
        }
      in
      Hashtbl.replace t.s_modes key ms;
      ms

let mode_of t = function Some m -> m | None -> t.s_default_mode

(* The whole-run disk tier: the run record keyed by the options and every
   unit's content digest. Only {!run} reads it — queries need the live
   store, which is never persisted. *)
let cached_run_or t mode compute : run =
  match t.s_cache with
  | None -> compute ()
  | Some cs -> (
      let t0 = Unix.gettimeofday () in
      let optfp =
        opt_fingerprint ~opts_id:cs.cs_opts_id ~mode
          ~field_sharing:t.s_field_sharing ~simplify:t.s_simplify
          ~compact:t.s_compact ~max_errors:t.s_max_errors
      in
      let key =
        Digest.string
          (optfp
          ^ String.concat "" (List.map (fun (n, s) -> unit_digest n s) t.s_units)
          )
      in
      match
        (load_marshal cs.cs_cache ~kind:"run" ~key : cached_run option)
      with
      | Some cr -> run_of_cached cr ~t_lookup:(Unix.gettimeofday () -. t0)
      | None ->
          let r = compute () in
          Cache.store cs.cs_cache ~kind:"run" ~key
            (Marshal.to_string (cached_of_run r) []);
          r)

(** Run one mode over the session's current units — warm: a repeat of
    an already-analyzed mode returns its record untouched; after an
    edit, clean units come from the AST memo and the analysis reruns in
    full. A whole-run disk hit is served as is and keeps no store. *)
let run ?mode t : run =
  let mode = mode_of t mode in
  match Hashtbl.find_opt t.s_modes (mode_name mode) with
  | Some ms -> ms.ms_run
  | None -> cached_run_or t mode (fun () -> (ensure_mode t mode).ms_run)

let run_sources ?mode ?rules ?field_sharing ?simplify ?compact ?budget ?jobs
    ?max_errors ?cache files : run =
  run
    (create ?rules ?mode ?field_sharing ?simplify ?compact
       ?budget:(Option.map (fun b () -> b) budget)
       ?jobs ?max_errors ?cache files)

let program t : Cfront.Cprog.t = (ensure_compiled t).co_prog
let diagnostics t : Cfront.Diag.t list = (ensure_compiled t).co_diags

(** Every interesting position with its canonical key and verdict. *)
let positions ?mode t :
    (string * Report.position * Report.verdict) list =
  let ms = ensure_mode t (mode_of t mode) in
  List.mapi (fun n (p, v) -> (ms.ms_keys.(n), p, v))
    ms.ms_run.results.Report.positions

(** Answer "is this position must-const?" (or must-[qual]) by stable
    key — [unit:line:col@level] or the structural
    [unit:fun:pN@level] / [unit:fun:ret@level] alias. *)
let classify ?mode t key : (Report.position * Report.verdict) option =
  let ms = ensure_mode t (mode_of t mode) in
  Option.map
    (fun (p, v, _) -> (p, v))
    (Hashtbl.find_opt ms.ms_index key)

(** Explain why a position's qualifier variable is forced: the solver's
    violation/forcing path, or [None] when nothing binds it (its bounds
    are consistent). Unknown keys return [Error]. *)
let explain ?mode t key :
    (Report.position * Report.verdict * string option, string) result =
  let ms = ensure_mode t (mode_of t mode) in
  match Hashtbl.find_opt ms.ms_index key with
  | None -> Result.Error (Printf.sprintf "unknown position key %S" key)
  | Some (p, v, var) ->
      Ok (p, v, Solver.explain_var ms.ms_env.Analysis.store var)

(* ---- speculative queries (what-if) ---- *)

type whatif_change = {
  wc_key : string;
  wc_fun : string;
  wc_before : Report.verdict;
  wc_after : Report.verdict;
}

type whatif_result = {
  w_key : string;  (** the annotated position *)
  w_qual : string;  (** the qualifier speculatively added *)
  w_changed : whatif_change list;  (** positions whose verdict moved *)
  w_errors_before : int;
  w_errors_after : int;
}

let verdict_of_solver = function
  | Solver.Forced_up -> Report.Must_const
  | Solver.Forced_down -> Report.Must_not_const
  | Solver.Free -> Report.Either

(** "What breaks if I add [$qual] here?" — split into a serial prepare
    step and a pure evaluation thunk. The prepare step resolves the key
    and qualifier and builds (once per solved store) the what-if index;
    it must run with exclusive access to the session (the daemon does
    this on its event loop). The returned thunk speculates the
    annotation as a lower bound over the live solved store
    ({!Solver.speculate_leq_cv}) and re-classifies only the positions
    whose representative it raised. It writes no session or store
    state, so any number of thunks may run concurrently on the domain
    pool. A store whose analysis budget tripped holds a partial
    solution and answers [Error]. *)
let whatif_task ?mode t ~qual key :
    ((unit -> whatif_result), string) result =
  let ms = ensure_mode t (mode_of t mode) in
  let store = ms.ms_env.Analysis.store in
  let sp = Solver.space store in
  match Hashtbl.find_opt ms.ms_index key with
  | None -> Result.Error (Printf.sprintf "unknown position key %S" key)
  | Some (_, _, var0) -> (
      match Lat.Space.find_opt sp qual with
      | None -> Result.Error (Printf.sprintf "unknown qualifier %S" qual)
      | Some qi -> (
          match Analysis.budget_reason ms.ms_env with
          | Some r ->
              Result.Error
                (Printf.sprintf
                   "whatif unavailable: the analysis budget was exhausted \
                    (%s), so the solution is partial"
                   r)
          | None ->
              let wi = Lazy.force ms.ms_whatif in
              let errors_before = Solver.error_count store in
              let mask = Lat.Elt.mask_of_names sp [ qual ] in
              let c = Lat.Elt.of_names_up sp [ qual ] in
              Ok
                (fun () ->
                  let spec = Solver.speculate_leq_cv ~mask store c var0 in
                  let moved =
                    List.concat_map
                      (fun rep ->
                        Option.value ~default:[]
                          (Hashtbl.find_opt wi.wi_by_rep (Solver.var_id rep)))
                      (Solver.speculation_reps spec)
                  in
                  let changed =
                    List.filter_map
                      (fun n ->
                        let var = wi.wi_vars.(n) in
                        let before =
                          verdict_of_solver (Solver.classify store var qi)
                        in
                        let after =
                          verdict_of_solver
                            (Solver.classify_speculative spec var qi)
                        in
                        if after = before then None
                        else
                          Some
                            {
                              wc_key = ms.ms_keys.(n);
                              wc_fun = wi.wi_funs.(n);
                              wc_before = before;
                              wc_after = after;
                            })
                      (List.sort compare moved)
                  in
                  {
                    w_key = key;
                    w_qual = qual;
                    w_changed = changed;
                    w_errors_before = errors_before;
                    w_errors_after =
                      errors_before + Solver.speculation_new_errors spec;
                  })))

(** {!whatif_task} prepared and evaluated inline. *)
let whatif ?mode t ~qual key : (whatif_result, string) result =
  Result.map (fun f -> f ()) (whatif_task ?mode t ~qual key)

(* ---- session statistics ---- *)

type session_stats = {
  ss_units : int;
  ss_modes : string list;  (** warm (already analyzed) modes *)
  ss_memo_hits : int;  (** per-unit AST memo, cumulative *)
  ss_memo_misses : int;
  ss_cache : Typequal.Cache.stats option;  (** disk tiers, when attached *)
}

let stats t : session_stats =
  {
    ss_units = List.length t.s_units;
    ss_modes = List.of_seq (Hashtbl.to_seq_keys t.s_modes);
    ss_memo_hits = t.s_fe_memo.fm_hits;
    ss_memo_misses = t.s_fe_memo.fm_misses;
    ss_cache =
      Option.map (fun cs -> Typequal.Cache.stats cs.cs_cache) t.s_cache;
  }

(* ------------------------------------------------------------------ *)
(* Rendering (the batch CLIs' report block, shared with the daemon)    *)
(* ------------------------------------------------------------------ *)

let pp_mode_long ppf = function
  | Analysis.Mono -> Fmt.string ppf "monomorphic"
  | Analysis.Poly -> Fmt.string ppf "polymorphic"
  | Analysis.Polyrec -> Fmt.string ppf "polymorphic-recursive"

(** The per-run report exactly as [cqualc] prints it (stdout block only;
    diagnostics go to stderr and stay in the CLI). The daemon's [render]
    method returns this same text, which is what the CI smoke job diffs
    against a cold [cqualc] run. *)
let render_run ?(stats = false) ?(positions = false) ?(jobs = 1) ~name mode
    (r : run) : string =
  let b = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let res = r.results in
  pr "=== %s (%s) ===\n" name (Fmt.str "%a" pp_mode_long mode);
  let degraded =
    List.filter_map
      (fun (f, o) ->
        match o with
        | Analysis.Degraded reason -> Some (f, reason)
        | Analysis.Analyzed -> None)
      res.Report.outcomes
  in
  let n_analyzed = List.length res.Report.outcomes - List.length degraded in
  pr
    "lines: %d, functions: %d (%d analyzed, %d degraded), qualifier \
     variables: %d\n"
    r.lines
    (List.length res.Report.outcomes)
    n_analyzed (List.length degraded) r.n_constraints;
  List.iter (fun (f, reason) -> pr "degraded: %s: %s\n" f reason) degraded;
  if stats then begin
    pr "solver: %s\n" (Fmt.str "%a" Typequal.Solver.pp_stats r.solver_stats);
    pr "fdg: %d sccs, largest %d, wavefront width %d\n" r.fdg_scc_count
      r.fdg_largest_scc r.wavefront_width;
    (match r.frontend with
    | Some fs ->
        pr
          "frontend: %d units, %d reparsed, lex %.3fs, parse %.3fs, build \
           %.3fs, link %.3fs\n"
          fs.fs_units fs.fs_reparsed fs.fs_lex_s fs.fs_parse_s fs.fs_build_s
          fs.fs_link_s
    | None -> ());
    (match oversubscription ~jobs with
    | Some cores ->
        pr "oversubscribed: %d jobs on %d available cores\n" jobs cores
    | None -> ());
    match r.par with
    | Some p ->
        pr "parallel: %d jobs, %d tasks, generate %.3fs, merge %.3fs\n"
          p.Analysis.ps_jobs p.Analysis.ps_tasks p.Analysis.ps_gen_s
          p.Analysis.ps_merge_s
    | None -> ()
  end;
  pr
    "interesting const positions: %d total; %d declared, %d possible (%d \
     must-const, %d could-be-either), %d must-not\n"
    res.Report.total res.Report.declared res.Report.possible res.Report.must
    (res.Report.possible - res.Report.must)
    (res.Report.total - res.Report.possible);
  if res.Report.type_errors > 0 then
    pr "TYPE ERRORS: %d (const usage is inconsistent)\n"
      res.Report.type_errors;
  List.iter (fun w -> pr "warning: %s\n" w) res.Report.warnings;
  if positions then
    List.iter
      (fun pv -> pr "  %s\n" (Fmt.str "%a" Report.pp_position pv))
      res.Report.positions;
  Buffer.contents b

(** Render one mode of the session — the daemon's [render] method. *)
let render ?mode ?stats ?positions ?(name = "session") t : string =
  let m = mode_of t mode in
  render_run ?stats ?positions ~jobs:t.s_jobs ~name m (run ~mode:m t)
