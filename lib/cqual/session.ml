(** The analysis session: every stage of the const-inference pipeline —
    unit table, linked program, FDG, published schemes, solved store,
    report — as a persistent value with precise invalidation. Every run
    goes through it: the batch CLI is a session used once, the daemon a
    session kept warm.

    A {!t} keeps two warm artifacts between runs: the per-unit AST memo
    (keyed by unit content digest), so after {!update_unit} only the
    edited unit is lexed and parsed again; and each analyzed mode's
    solved store with its segment table, so the next run of that mode
    re-infers only the edit's cone ({!Analysis.rerun}) and deletes the
    dead tasks' atoms from the store in place ({!Typequal.Solver.retract},
    which also compacts the store's atom log in place once it is more
    dead than live) — falling back to a full {!Analysis.run} when
    globals, types or prototypes changed. Queries ({!classify}, {!explain}, {!whatif}) are
    answered against the warm solved store through stable
    [unit:line:col] position keys (see {!Report.position_key}).

    The frontend is per-unit: each translation unit is lexed and parsed
    once, in link order, under the parser environment the units before
    it left, and a link step merges the unit programs. See DESIGN.md
    "Per-unit frontend" and "Session architecture". *)

type timing = {
  t_compile : float;  (** parse + table construction, seconds *)
  t_analysis : float;  (** constraint generation + solving *)
}

(** Frontend phase breakdown. *)
type frontend_stats = {
  fs_units : int;
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
      (** constraint-store counters (edges, dedup, worklist pops)
          accumulated over the whole run *)
  diagnostics : Cfront.Diag.t list;
      (** lexer/parser diagnostics recovered from, in source order; empty
          for a clean parse. Multi-unit runs carry unit-local positions
          ([Diag.d_unit] names the file). *)
  fdg_scc_count : int;  (** SCCs in the function dependence graph *)
  fdg_largest_scc : int;  (** size of the largest (mutual-recursion) SCC *)
  wavefront_width : int;
      (** always 0: gatebench still fills it; a later benchmark revision
          removes it *)
  par : Analysis.par_stats option;
      (** always [None]: gatebench still fills it; a later benchmark
          revision removes it *)
  frontend : frontend_stats option;
      (** per-unit frontend phase breakdown; [None] for a record built
          outside a session (gatebench builds one) *)
}

let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

exception Error of string

(* Unit identity: the per-file content hash that keys invalidation. The
   name participates, so renaming a file misses the AST memo for that
   unit. *)
let unit_digest name content = Digest.string (name ^ "\000" ^ content)

let mode_name = function
  | Analysis.Mono -> "mono"
  | Analysis.Poly -> "poly"
  | Analysis.Polyrec -> "polyrec"

(* ------------------------------------------------------------------ *)
(* Per-unit frontend                                                   *)
(* ------------------------------------------------------------------ *)

(* One source unit as the session holds it. Its digest keys every
   per-unit product, and its line count is summed into the run's; both
   are computed once, when the source arrives. *)
type src_unit = {
  u_name : string;
  u_src : string;
  u_digest : Digest.t;
  u_lines : int;
}

let src_unit (name, src) =
  {
    u_name = name;
    u_src = src;
    u_digest = unit_digest name src;
    u_lines = Cfront.Cprog.count_lines src;
  }

(* one parse of a unit with its built table, and the diagnostics the
   units before it had consumed from the run's budget when it was
   parsed *)
type parsed = {
  pu_res : Cfront.Cparse.uresult;
  pu_prog : Cfront.Cprog.t;
  pu_base : int;
}

(* the frontend's product: the linked program, its recovered
   diagnostics and demoted bodies. The unit names in link order (which
   the report's stable position keys name a function's home unit by)
   and each linked unit's table are what the next compile over the same
   names patches the program from; [co_link] says how this compile
   built it. *)
type compiled = {
  co_prog : Cfront.Cprog.t;
  co_diags : Cfront.Diag.t list;
  co_degraded : (string * string) list;
  co_lines : int;
  co_t_compile : float;
  co_frontend : frontend_stats;
  co_names : string array;
  co_progs : Cfront.Cprog.t array;  (* the units linked, in order *)
  co_link : string;  (* "patched", "merged: <reason>" or "cold" *)
  co_units_built : int;  (* per-unit tables built, not taken from the memo *)
  co_decls_reparsed : int;  (* declarations lexed and parsed afresh *)
}

(* The persistent session's in-memory AST tier, with hit/miss counters
   for {!stats}. A unit's parse is keyed by the unit's digest and the
   digest of the seed it was parsed under; one that reported a
   diagnostic is read only under the same budget consumed before it.
   Each compile keeps exactly the entries it read, so a clean unit's
   parse, table and definitions are physically the same values from one
   compile to the next. A miss is spliced against [fm_last]: per unit
   name, the last parse with no diagnostic, which holds its source,
   declaration boundaries and seed digest
   ({!Cfront.Cparse.reparse_unit}). A session that compiles once
   ([fm_splice] false) records and keeps no such parse. *)
type fe_memo = {
  fm_tbl : (string, parsed) Hashtbl.t;
  fm_splice : bool;
  fm_last : (string, Cfront.Cparse.bounds) Hashtbl.t;
  mutable fm_hits : int;
  mutable fm_misses : int;
}

(* The linked program of the units [progs] named [names], and how it
   was built. When [prev] linked the same names in the same order, the
   program is patched from [prev]'s ({!Cfront.Cprog.relink}). Otherwise,
   and when a changed unit's typedefs, structs or prototypes differ or a
   diagnostic budget cap left units unlinked, it is built afresh. *)
let link_tables ?prev ~capped names progs =
  let merged how = (Cfront.Cprog.merge (Array.to_list progs), how) in
  match prev with
  | None -> merged "cold"
  | Some p when p.co_names <> names -> merged "merged: unit list changed"
  | Some p when capped || Array.length p.co_progs <> Array.length names ->
      merged "merged: diagnostic budget capped"
  | Some p -> (
      match Cfront.Cprog.relink ~prev:p.co_prog ~before:p.co_progs progs with
      | None -> merged "merged: a unit's typedefs, structs or prototypes changed"
      | Some prog -> (prog, "patched"))

(** The per-unit frontend: each unit is lexed, parsed and built once, in
    link order, seeded with the parser environment the units before it
    left (their typedef and enum names, the anonymous tags they minted
    and the diagnostics they consumed), so the linked units are what one
    parse of their concatenation gives. [fe_memo] is the session's
    in-memory AST tier, probed before a unit is parsed, fed by every
    parse, and pruned to what this compile read. [prev], the session's
    last compile, is what the link patches when it can (see
    [link_tables]). *)
let compile_units ?prev ~fe_memo ~me (units : src_unit list) : compiled =
  let lines = List.fold_left (fun acc u -> acc + u.u_lines) 0 units in
  let multi = match units with [] | [ _ ] -> false | _ -> true in
  let t0 = Unix.gettimeofday () in
  let units_a = Array.of_list units in
  let n = Array.length units_a in
  let read : (string, unit) Hashtbl.t = Hashtbl.create (2 * n) in
  let lex_s = ref 0. and parse_s = ref 0. and build_s = ref 0. in
  let timed cell f =
    let x, dt = time f in
    cell := !cell +. dt;
    x
  in
  let built = ref 0 and decls = ref 0 in
  (* A parse of [u] under [seed] afresh: spliced against the unit's last
     clean parse when it has one, else (or when the splice declines)
     lexed and parsed whole, recording the boundaries of a clean parse
     when the session splices. The lexer's time inside a splice counts as
     lexing, the rest of the splice as parsing. *)
  let splice = fe_memo.fm_splice in
  let fresh ~seed u =
    incr built;
    let lex_max = me - seed.Cfront.Cparse.us_count_base in
    let lex ~start ~stop ~line src =
      timed lex_s (fun () ->
          Cfront.Clexer.tokenize_buf ~max_errors:lex_max ~start ~stop ~line
            ~lines:true src)
    in
    let spliced =
      match Hashtbl.find_opt fe_memo.fm_last u.u_name with
      | Some prev ->
          let lex0 = !lex_s in
          let r, dt =
            time (fun () ->
                Cfront.Cparse.reparse_unit ~max_errors:me ~seed ~lex prev
                  u.u_src)
          in
          parse_s := !parse_s +. dt -. (!lex_s -. lex0);
          r
      | None -> None
    in
    let res =
      match spliced with
      | Some (res, k) ->
          decls := !decls + k;
          res
      | None ->
          let tb, lex_diags =
            timed lex_s (fun () ->
                Cfront.Clexer.tokenize_buf ~max_errors:lex_max ~lines:splice
                  u.u_src)
          in
          let res =
            timed parse_s (fun () ->
                Cfront.Cparse.parse_unit ~max_errors:me ~seed tb ~lex_diags)
          in
          decls := !decls + res.Cfront.Cparse.ur_decls;
          res
    in
    Option.iter (Hashtbl.replace fe_memo.fm_last u.u_name) res.Cfront.Cparse.ur_bounds;
    timed build_s (fun () ->
        {
          pu_res = res;
          pu_prog = Cfront.Cprog.build res.Cfront.Cparse.ur_pr.Cfront.Cparse.pr_prog;
          pu_base = seed.Cfront.Cparse.us_count_base;
        })
  in
  (* the environment the units linked so far leave: their typedef and
     enum names, the anonymous tags they minted and the diagnostics they
     consumed; and, until a unit adds to it, the seed it makes with the
     seed's digest *)
  let env_typedefs : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let env_enums : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let env_anon = ref 0 and consumed = ref 0 and capped = ref false in
  let env_seed = ref None in
  let seed_of_env () =
    match !env_seed with
    | Some s -> s
    | None ->
        let seed =
          {
            Cfront.Cparse.us_typedefs = Hashtbl.fold (fun k () acc -> k :: acc) env_typedefs [];
            us_enums = Hashtbl.fold (fun k v acc -> (k, v) :: acc) env_enums [];
            us_anon = !env_anon;
            us_count_base = 0;
          }
        in
        let s = (seed, Cfront.Cparse.seed_digest seed) in
        env_seed := Some s;
        s
  in
  let progs = ref [] and diags = ref [] and degraded = ref [] in
  Array.iter
    (fun u ->
      let in_unit d = if multi then Cfront.Diag.with_unit u.u_name d else d in
      if not !capped then
        if !consumed >= me then begin
          (* the budget ran out exactly at a unit boundary: a
             whole-program parse would give up at this unit's first
             token, which lexing the unit finds *)
          capped := true;
          let tb, _ =
            timed lex_s (fun () -> Cfront.Clexer.tokenize_buf ~max_errors:me u.u_src)
          in
          diags :=
            in_unit
              (Cfront.Diag.note ~code:"E0299" (Cfront.Tokbuf.span tb 0)
                 (Printf.sprintf
                    "too many errors (%d); giving up on the rest of the file"
                    me))
            :: !diags
        end
        else begin
          let seed, digest = seed_of_env () in
          let seed = { seed with Cfront.Cparse.us_count_base = !consumed } in
          let key = u.u_digest ^ digest in
          let p =
            match Hashtbl.find_opt fe_memo.fm_tbl key with
            | Some p
              when p.pu_res.Cfront.Cparse.ur_pr.Cfront.Cparse.pr_diags = []
                   || p.pu_base = !consumed ->
                fe_memo.fm_hits <- fe_memo.fm_hits + 1;
                p
            | _ ->
                fe_memo.fm_misses <- fe_memo.fm_misses + 1;
                let p = fresh ~seed u in
                Hashtbl.replace fe_memo.fm_tbl key p;
                p
          in
          Hashtbl.replace read key ();
          let res = p.pu_res in
          let pr = res.Cfront.Cparse.ur_pr in
          consumed := !consumed + List.length pr.Cfront.Cparse.pr_diags;
          if res.Cfront.Cparse.ur_capped then capped := true;
          if
            res.Cfront.Cparse.ur_typedefs <> []
            || res.Cfront.Cparse.ur_enums <> []
            || res.Cfront.Cparse.ur_anon > 0
          then begin
            List.iter
              (fun name -> Hashtbl.replace env_typedefs name ())
              res.Cfront.Cparse.ur_typedefs;
            List.iter
              (fun (name, v) -> Hashtbl.replace env_enums name v)
              res.Cfront.Cparse.ur_enums;
            env_anon := !env_anon + res.Cfront.Cparse.ur_anon;
            env_seed := None
          end;
          progs := p.pu_prog :: !progs;
          List.iter (fun d -> diags := in_unit d :: !diags) pr.Cfront.Cparse.pr_diags;
          List.iter (fun dg -> degraded := dg :: !degraded) pr.Cfront.Cparse.pr_degraded
        end)
    units_a;
  (* an entry this compile did not read is dead weight: an edit that is
     reverted re-parses rather than keeping every version alive *)
  Hashtbl.filter_map_inplace
    (fun key p -> if Hashtbl.mem read key then Some p else None)
    fe_memo.fm_tbl;
  (* a splice base outlives its unit's edits, not the unit *)
  let current = Hashtbl.create (2 * n) in
  Array.iter (fun u -> Hashtbl.replace current u.u_name ()) units_a;
  Hashtbl.filter_map_inplace
    (fun name b -> if Hashtbl.mem current name then Some b else None)
    fe_memo.fm_last;
  let names = Array.map (fun u -> u.u_name) units_a in
  let progs = Array.of_list (List.rev !progs) in
  let prog, how = link_tables ?prev ~capped:!capped names progs in
  (* the link's own time: the compile's, less the lexing, parsing and
     building of the units *)
  let elapsed = Unix.gettimeofday () -. t0 in
  {
    co_prog = prog;
    co_diags = List.rev !diags;
    co_degraded = List.rev !degraded;
    co_lines = lines;
    co_t_compile = elapsed;
    co_frontend =
      {
        fs_units = n;
        fs_lex_s = !lex_s;
        fs_parse_s = !parse_s;
        fs_build_s = !build_s;
        fs_link_s = elapsed -. !lex_s -. !parse_s -. !build_s;
      };
    co_names = names;
    co_progs = progs;
    co_link = how;
    co_units_built = !built;
    co_decls_reparsed = !decls;
  }

(* ------------------------------------------------------------------ *)
(* Analysis and measurement over the linked program                    *)
(* ------------------------------------------------------------------ *)

(** How the last analysis of a mode was computed. *)
type rebuild = {
  rb_mode : string;
  rb_tasks_total : int;  (** analysis tasks: SCCs, or mono bodies *)
  rb_tasks_rerun : int;  (** of those, re-inferred *)
  rb_members_rerun : int;  (** functions in the re-inferred tasks *)
  rb_full : bool;  (** a fresh store rather than a warm rerun *)
  rb_reason : string;  (** why a full run, or "incremental" *)
  rb_units_built : int;  (** per-unit tables built, not taken from the memo *)
  rb_decls_reparsed : int;
      (** top-level declarations lexed and parsed afresh: a splice's
          changed regions, or every declaration of a unit parsed whole *)
  rb_link : string;
      (** how the compile it read linked the program: ["patched"],
          ["merged: <reason>"] or ["cold"] *)
  rb_defs_rescanned : int;  (** definitions whose body the FDG scanned *)
  rb_condensation : string;
      (** how the FDG came by its SCC list: ["kept"] (the previous one),
          ["spliced"] (the previous one with singleton blocks spliced in
          and out) or ["tarjan"] *)
  rb_rows_remeasured : int;  (** functions whose report rows were measured afresh *)
  rb_index_patched : bool;
      (** the key index was updated by the changed rows, not rebuilt *)
  rb_atoms_deleted : int;  (** atoms the edit deleted from the store *)
  rb_vars_reset : int;  (** variables whose solution was re-derived *)
}

(* Analyze, measure, and attach FDG statistics (from the graph the
   analysis scheduled over). With [warm] (the env and report rows of this
   mode's previous run over the session's earlier sources) the analysis
   is first tried as a warm rerun in that store; when the rerun declines
   (it says why), or with no [warm], the same task loop runs from
   nothing in a fresh store ({!Analysis.advance}). Also returns the live environment, the
   stable-key position index the queries go through, the report rows for
   the next warm run and what was rebuilt. A function's AST lines are
   already unit-local, so its position anchor only needs its home
   unit, which the graph records as an index into [co_names]. *)
let analyze ?rules ?compact ?budget ?warm mode (co : compiled) =
  let full reason =
    let env = Analysis.make_env ?rules ?compact ?budget mode co.co_prog in
    (* [advance] declines only when it starts from a predecessor *)
    (Result.get_ok (Analysis.advance env None co.co_prog), None, reason)
  in
  let ((env, ri), prev, reason), t =
    time (fun () ->
        match warm with
        | None -> full "no kept store"
        | Some _ when budget <> None -> full "budgeted analysis"
        | Some (base, rows) -> (
            match Analysis.rerun base co.co_prog with
            | Ok r -> (r, Some rows, "incremental")
            | Error reason -> full reason))
  in
  let st = env.Analysis.store in
  let solve0 = (Typequal.Solver.stats st).solve_s in
  let (results, rows), t2 =
    time (fun () -> Report.measure_indexed ~units:co.co_names ?prev env)
  in
  (* the report's own cost, minus the final solve it triggers (that time
     is already accounted to solve_s) *)
  let solve_d = (Typequal.Solver.stats st).solve_s -. solve0 in
  Typequal.Solver.note_phase st Typequal.Solver.Report
    (Float.max 0. (t2 -. solve_d));
  let fdg = Option.get (Analysis.fdg env) in
  (* one outcome per linked definition, before the demoted bodies *)
  let n_functions = List.length results.Report.outcomes in
  let results =
    match co.co_degraded with
    | [] -> results
    | degraded ->
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
                    degraded));
        }
  in
  let run =
    {
      results;
      timing = { t_compile = co.co_t_compile; t_analysis = t +. t2 };
      lines = co.co_lines;
      n_functions;
      n_constraints = Analysis.live_vars env;
      solver_stats = Analysis.stats env;
      diagnostics = co.co_diags;
      fdg_scc_count = Fdg.scc_count fdg;
      fdg_largest_scc = Fdg.largest_scc fdg;
      wavefront_width = 0;
      par = env.Analysis.par;
      frontend = Some co.co_frontend;
    }
  in
  let rb =
    {
      rb_mode = mode_name mode;
      rb_tasks_total = ri.Analysis.ri_tasks;
      rb_tasks_rerun = ri.Analysis.ri_rerun;
      rb_members_rerun = ri.Analysis.ri_rerun_members;
      rb_full = prev = None;
      rb_reason = reason;
      rb_units_built = co.co_units_built;
      rb_decls_reparsed = co.co_decls_reparsed;
      rb_link = co.co_link;
      rb_defs_rescanned = fdg.Fdg.rescanned;
      rb_condensation = Fdg.condensation_name fdg.Fdg.condensation;
      rb_rows_remeasured = rows.Report.remeasured;
      rb_index_patched = rows.Report.index_patched;
      rb_atoms_deleted = ri.Analysis.ri_atoms_deleted;
      rb_vars_reset = ri.Analysis.ri_vars_reset;
    }
  in
  (run, env, rows, rb)

(* ------------------------------------------------------------------ *)
(* The session                                                         *)
(* ------------------------------------------------------------------ *)

module Solver = Typequal.Solver
module Lat = Typequal.Lattice

(* The variable a report row's canonical key resolves to: the row's
   own, unless an earlier row in report order owns the key. *)
let key_var (rows : Report.rows) (r : Report.row) =
  (Hashtbl.find rows.Report.index r.Report.r_key).Report.r_var

(* The what-if index of one solved store: report ordinals grouped by the
   id of the variable their canonical key resolves to — a speculation
   only has to look at the variables it raised. *)
let whatif_index (rows : Report.rows) : (int, int list) Hashtbl.t =
  let by_var = Hashtbl.create 1024 in
  Array.iteri
    (fun n r ->
      let id = Solver.var_id (key_var rows r) in
      Hashtbl.replace by_var id
        (n :: Option.value (Hashtbl.find_opt by_var id) ~default:[]))
    rows.Report.in_order;
  by_var

(* one mode's warm artifacts: the solved store, the report rows with the
   stable-key index into it, and the what-if index (built by the first
   whatif on this store) *)
type mode_state = {
  ms_run : run;
  ms_env : Analysis.env;
  ms_rows : Report.rows;
  ms_whatif : (int, int list) Hashtbl.t Lazy.t;
}

type t = {
  s_rules : Analysis.qrules;
  s_default_mode : Analysis.mode;
  s_compact : bool option;
  s_budget : (unit -> Typequal.Budget.t) option;
  s_max_errors : int option;
  (* the warm tier that survives invalidation: keyed by content digest,
     so a stale entry can never be served — an edit simply stops hitting
     it, and the next compile drops it *)
  s_fe_memo : fe_memo;
  mutable s_units : src_unit list;  (* in link order *)
  (* stages derived from the unit table; dropped on any unit edit *)
  mutable s_compiled : compiled option;
  (* the last compile, kept across edits: the next link patches it *)
  mutable s_linked : compiled option;
  (* every analyzed mode stays warm until the next edit *)
  s_modes : (string, mode_state) Hashtbl.t;
  (* an edit moves each mode's state here: the base its next run
     re-analyzes incrementally (consumed by that run, or dropped by the
     next edit that follows some analysis) *)
  s_bases : (string, mode_state) Hashtbl.t;
  mutable s_last_rebuild : rebuild option;
}

let create ?rules ?(mode = Analysis.Poly) ?compact ?budget ?max_errors ?jobs:_
    (units : (string * string) list) : t =
  (* [jobs] is ignored: gatebench still passes it, and a later benchmark
     revision drops it *)
  {
    s_rules = Option.value rules ~default:Analysis.const_rules;
    s_default_mode = mode;
    s_compact = compact;
    s_budget = budget;
    s_max_errors = max_errors;
    s_fe_memo =
      {
        fm_tbl = Hashtbl.create 64;
        fm_last = Hashtbl.create 16;
        fm_splice = true;
        fm_hits = 0;
        fm_misses = 0;
      };
    s_units = List.map src_unit units;
    s_compiled = None;
    s_linked = None;
    s_modes = Hashtbl.create 4;
    s_bases = Hashtbl.create 4;
    s_last_rebuild = None;
  }

let units t = List.map (fun u -> u.u_name) t.s_units
let default_mode t = t.s_default_mode

(* Drop the derived stages. The AST memo is kept: it is
   content-addressed, so the next compile re-parses only the edited
   units. Each mode analyzed since the last edit becomes the base of its
   next run, and a base that no run consumed in between is dropped: at
   most one generation of each mode's store is kept, and a mode queried
   once does not hold a store across every later edit. Edits with no
   analysis in between keep the bases they have. *)
let invalidate t =
  t.s_compiled <- None;
  if Hashtbl.length t.s_modes > 0 then begin
    Hashtbl.reset t.s_bases;
    Hashtbl.iter (fun k ms -> Hashtbl.replace t.s_bases k ms) t.s_modes;
    Hashtbl.reset t.s_modes
  end

let update_unit t name src : [ `Added | `Updated | `Unchanged ] =
  let nu = src_unit (name, src) in
  let status = ref `Added in
  let rec go = function
    | [] -> [ nu ]
    | u :: rest when u.u_name = name ->
        if u.u_digest = nu.u_digest then begin
          status := `Unchanged;
          u :: rest
        end
        else begin
          status := `Updated;
          nu :: rest
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
  let found = List.exists (fun u -> u.u_name = name) t.s_units in
  if found then begin
    t.s_units <- List.filter (fun u -> u.u_name <> name) t.s_units;
    invalidate t
  end;
  found

let ensure_compiled t =
  match t.s_compiled with
  | Some c -> c
  | None ->
      if t.s_units = [] then raise (Error "session has no units");
      let me = Option.value t.s_max_errors ~default:20 in
      let c = compile_units ?prev:t.s_linked ~fe_memo:t.s_fe_memo ~me t.s_units in
      t.s_compiled <- Some c;
      t.s_linked <- Some c;
      c

let ensure_mode t mode : mode_state =
  let key = mode_name mode in
  match Hashtbl.find_opt t.s_modes key with
  | Some ms -> ms
  | None ->
      let co = ensure_compiled t in
      let warm =
        Option.map
          (fun ms -> (ms.ms_env, ms.ms_rows))
          (Hashtbl.find_opt t.s_bases key)
      in
      (* the base's store is re-analyzed in place: it is never a base
         again, whatever the outcome *)
      Hashtbl.remove t.s_bases key;
      let run, env, rows, rb =
        analyze ~rules:t.s_rules ?compact:t.s_compact
          ?budget:(Option.map (fun f -> f ()) t.s_budget)
          ?warm mode co
      in
      t.s_last_rebuild <- Some rb;
      let ms =
        { ms_run = run; ms_env = env; ms_rows = rows; ms_whatif = lazy (whatif_index rows) }
      in
      Hashtbl.replace t.s_modes key ms;
      ms

let mode_of t = function Some m -> m | None -> t.s_default_mode

(** Run one mode over the session's current units — warm: a repeat of
    an already-analyzed mode returns its record untouched; after an
    edit, clean units come from the AST memo and the mode's previous
    store is re-analyzed in its edit's cone. *)
let run ?mode t : run = (ensure_mode t (mode_of t mode)).ms_run

let run_sources ?mode ?rules ?compact ?budget ?jobs ?max_errors files : run =
  let t =
    create ?rules ?mode ?compact
      ?budget:(Option.map (fun b () -> b) budget)
      ?jobs ?max_errors files
  in
  (* one compile: nothing is ever spliced against its parses *)
  run { t with s_fe_memo = { t.s_fe_memo with fm_splice = false } }

let program t : Cfront.Cprog.t = (ensure_compiled t).co_prog
let store ?mode t = (ensure_mode t (mode_of t mode)).ms_env.Analysis.store
let diagnostics t : Cfront.Diag.t list = (ensure_compiled t).co_diags

(** Every interesting position with its canonical key and verdict. *)
let positions ?mode t :
    (string * Report.position * Report.verdict) list =
  let ms = ensure_mode t (mode_of t mode) in
  Array.fold_right
    (fun r l ->
      let p, v = r.Report.r_result in
      (r.Report.r_key, p, v) :: l)
    ms.ms_rows.Report.in_order []

(** Answer "is this position must-const?" (or must-[qual]) by stable
    key — [unit:line:col@level] or the structural
    [unit:fun:pN@level] / [unit:fun:ret@level] alias. *)
let classify ?mode t key : (Report.position * Report.verdict) option =
  let ms = ensure_mode t (mode_of t mode) in
  Option.map
    (fun r -> r.Report.r_result)
    (Hashtbl.find_opt ms.ms_rows.Report.index key)

(** Explain why a position's qualifier variable is forced: the solver's
    violation/forcing path, or [None] when nothing binds it (its bounds
    are consistent). Unknown keys return [Error]. *)
let explain ?mode t key :
    (Report.position * Report.verdict * string option, string) result =
  let ms = ensure_mode t (mode_of t mode) in
  match Hashtbl.find_opt ms.ms_rows.Report.index key with
  | None -> Result.Error (Printf.sprintf "unknown position key %S" key)
  | Some r ->
      let pos, verdict = r.Report.r_result in
      Ok
        ( pos,
          verdict,
          Solver.explain_var ms.ms_env.Analysis.store r.Report.r_var )

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

(** "What breaks if I add [$qual] here?" — split into a prepare step and
    an evaluation thunk. The prepare step resolves the key and qualifier
    and builds (once per solved store) the what-if index. The returned
    thunk speculates the annotation as a lower bound over the live solved
    store ({!Solver.speculate_leq_cv}) and re-classifies only the
    positions whose variable it raised; it writes no session or
    store state. Force it before the session's next edit, since the
    mode's next run re-analyzes this store in place. A store whose
    analysis budget tripped holds a partial solution and answers
    [Error]. *)
let whatif_task ?mode t ~qual key :
    ((unit -> whatif_result), string) result =
  let ms = ensure_mode t (mode_of t mode) in
  let store = ms.ms_env.Analysis.store in
  let sp = Solver.space store in
  match Hashtbl.find_opt ms.ms_rows.Report.index key with
  | None -> Result.Error (Printf.sprintf "unknown position key %S" key)
  | Some { Report.r_var = var0; _ } -> (
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
                      (fun v ->
                        Option.value ~default:[]
                          (Hashtbl.find_opt wi (Solver.var_id v)))
                      (Solver.speculation_vars spec)
                  in
                  let changed =
                    List.filter_map
                      (fun n ->
                        let r = ms.ms_rows.Report.in_order.(n) in
                        let var = key_var ms.ms_rows r in
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
                              wc_key = r.Report.r_key;
                              wc_fun = (fst r.Report.r_result).Report.p_fun;
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
  ss_last_rebuild : rebuild option;  (** the most recent analysis *)
}

let stats t : session_stats =
  {
    ss_units = List.length t.s_units;
    ss_modes = List.of_seq (Hashtbl.to_seq_keys t.s_modes);
    ss_memo_hits = t.s_fe_memo.fm_hits;
    ss_memo_misses = t.s_fe_memo.fm_misses;
    ss_last_rebuild = t.s_last_rebuild;
  }

(* The stats record as the daemon's [stats] reply carries it: plain JSON
   numbers, arrays and objects, nothing pre-rendered. *)
let stats_json (st : session_stats) : Wire.json =
  let int = Wire.num_int in
  let rebuild rb =
    Wire.Obj
      [
        ("mode", Wire.Str rb.rb_mode);
        ("tasks_total", int rb.rb_tasks_total);
        ("tasks_rerun", int rb.rb_tasks_rerun);
        ("members_rerun", int rb.rb_members_rerun);
        ("full", Wire.Bool rb.rb_full);
        ("reason", Wire.Str rb.rb_reason);
        ("units_built", int rb.rb_units_built);
        ("decls_reparsed", int rb.rb_decls_reparsed);
        ("link", Wire.Str rb.rb_link);
        ("defs_rescanned", int rb.rb_defs_rescanned);
        ("condensation", Wire.Str rb.rb_condensation);
        ("rows_remeasured", int rb.rb_rows_remeasured);
        ("index_patched", Wire.Bool rb.rb_index_patched);
        ("atoms_deleted", int rb.rb_atoms_deleted);
        ("vars_reset", int rb.rb_vars_reset);
      ]
  in
  let opt f = function Some x -> f x | None -> Wire.Null in
  Wire.Obj
    [
      ("units", int st.ss_units);
      ("modes", Wire.Arr (List.map (fun m -> Wire.Str m) st.ss_modes));
      ("memo_hits", int st.ss_memo_hits);
      ("memo_misses", int st.ss_memo_misses);
      ("last_rebuild", opt rebuild st.ss_last_rebuild);
    ]

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
let render_run ?(stats = false) ?(positions = false) ?jobs:_ ~name mode
    (r : run) : string =
  (* [jobs] is ignored: gatebench still passes it, and a later benchmark
     revision drops it *)
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
    pr "fdg: %d sccs, largest %d\n" r.fdg_scc_count r.fdg_largest_scc;
    (match r.frontend with
    | Some fs ->
        pr
          "frontend: %d units, lex %.3fs, parse %.3fs, build %.3fs, link \
           %.3fs\n"
          fs.fs_units fs.fs_lex_s fs.fs_parse_s fs.fs_build_s fs.fs_link_s
    | None -> ())
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
  render_run ?stats ?positions ~name m (run ~mode:m t)
