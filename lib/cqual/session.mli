(** The analysis session: the const-inference pipeline as named stages —
    unit table → linked program → FDG → published schemes → solved store
    → report — held by a persistent {!t}. Every run goes through it: the
    batch CLI is a session used once ({!create} then {!run}), the daemon
    a session kept warm that answers position-level queries without
    re-parsing clean units. See DESIGN.md "Session architecture & wire
    protocol". *)

(** {1 Run records} *)

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
  n_constraints : int;  (** number of qualifier variables *)
  solver_stats : Typequal.Solver.stats;
  diagnostics : Cfront.Diag.t list;
      (** lexer/parser diagnostics recovered from, in source order *)
  fdg_scc_count : int;
  fdg_largest_scc : int;
  wavefront_width : int;
      (** always 0: gatebench still fills it; a later benchmark revision
          removes it *)
  par : Analysis.par_stats option;
      (** always [None]: gatebench still fills it; a later benchmark
          revision removes it *)
  frontend : frontend_stats option;
      (** [None] for a record built outside a session (gatebench builds
          one) *)
}

exception Error of string

val mode_name : Analysis.mode -> string

(** {1 The persistent session} *)

type t
(** A persistent analysis session over a set of named translation
    units. Derived stages (linked program, reports) are dropped on any
    unit edit. Two warm tiers survive: the content-addressed per-unit
    AST memo, so re-running after an edit re-parses only the edited
    units; and each analyzed mode's solved store, which the mode's next
    run re-analyzes in place, re-inferring only the tasks the edit
    reaches ({!Analysis.rerun}). Every mode analyzed since the last edit
    keeps its solved store, so queries may alternate modes without
    re-analysis; an edit keeps only those stores, so a mode not analyzed
    between two edits (with some analysis in between) runs in full next
    time. *)

val create :
  ?rules:Analysis.qrules ->
  ?mode:Analysis.mode ->
  ?compact:bool ->
  ?budget:(unit -> Typequal.Budget.t) ->
  ?max_errors:int ->
  ?jobs:int ->
  (string * string) list ->
  t
(** [create units] builds a session over [(name, source)] pairs, in link
    order; a single source is a one-unit session. [mode] is the default
    query/analysis mode (default [Poly]). [budget] makes a fresh budget
    for each analysis (trips latch, so modes cannot share one); it is
    called after the parse, so a deadline it sets covers analysis only.
    Nothing is parsed or analyzed until the first {!run} or
    query. [jobs] is ignored: gatebench still passes it, and a later
    benchmark revision drops it. *)

val units : t -> string list
(** Current unit names, in link order. *)

val default_mode : t -> Analysis.mode
(** The mode queries default to (the [mode] given to {!create}). *)

val update_unit : t -> string -> string -> [ `Added | `Updated | `Unchanged ]
(** [update_unit t name src] replaces (or appends) one unit's source.
    [`Unchanged] (same content digest) invalidates nothing; otherwise
    the derived stages are dropped and the next run of each mode
    re-parses this unit and re-infers the edit's cone in that mode's
    store (in full when globals, types or prototypes changed; see
    {!stats}). *)

val remove_unit : t -> string -> bool
(** Remove a unit; [false] if it was not present. *)

val run : ?mode:Analysis.mode -> t -> run
(** Analyze the current units under [mode] (default: the session's).
    Warm: repeated calls return the computed record; after an edit,
    clean units come from the AST memo and the mode's store is
    re-analyzed in the edit's cone. The record of a warm rerun counts
    that rerun's work in [solver_stats] (its structural counters and
    [n_constraints] equal a fresh run's). Raises {!Error} on a session
    without units. *)

val run_sources :
  ?mode:Analysis.mode ->
  ?rules:Analysis.qrules ->
  ?compact:bool ->
  ?budget:Typequal.Budget.t ->
  ?jobs:int ->
  ?max_errors:int ->
  (string * string) list ->
  run
(** [run_sources files] is [run (create files)]: one mode of a session
    used once. [budget] bounds that one analysis; [jobs] is ignored.
    Since nothing is ever spliced against its parses, it records no
    declaration boundaries (a session from {!create} does, for the
    edits that may follow). *)

val program : t -> Cfront.Cprog.t
(** The linked program of the current units (parsed on first use) — for
    callers that drive {!Analysis.run} directly. *)

val store : ?mode:Analysis.mode -> t -> Typequal.Solver.t
(** the solved store of the mode's analysis (analyzing first if needed),
    for checking it against its own atoms; do not add to it *)

val diagnostics : t -> Cfront.Diag.t list
(** Frontend diagnostics for the current units (mode-independent). *)

(** {2 Position-level queries}

    Positions are addressed by the stable keys of
    {!Report.position_key}: canonical [unit:line:col@level], or the
    structural alias [unit:fun:pN@level] / [unit:fun:ret@level]. *)

val positions :
  ?mode:Analysis.mode ->
  t ->
  (string * Report.position * Report.verdict) list
(** Every interesting position with its canonical key, in report
    order. *)

val classify :
  ?mode:Analysis.mode ->
  t ->
  string ->
  (Report.position * Report.verdict) option
(** "Is this position must-const?" — answered from the warm store. *)

val explain :
  ?mode:Analysis.mode ->
  t ->
  string ->
  (Report.position * Report.verdict * string option, string) result
(** Why a position's qualifier variable is forced: the solver's
    forcing/violation path, [None] when nothing binds it. [Error] for
    unknown keys. *)

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

val whatif_task :
  ?mode:Analysis.mode ->
  t ->
  qual:string ->
  string ->
  (unit -> whatif_result, string) result
(** "What breaks if I add [$qual] here?" — the prepare step resolves
    the key and qualifier and, on the first whatif against a solved
    store, builds its what-if index. The returned thunk speculates the
    annotation over the live store
    ({!Typequal.Solver.speculate_leq_cv}) and re-classifies only the
    positions in the cone it raises; it writes no session or store
    state. Force every thunk before the next {!update_unit} or
    {!remove_unit}: the mode's next run re-analyzes this very store in
    place. [w_changed] is in report order;
    [w_errors_after] is what adding the bound and re-solving would
    count. [Error] for unknown keys and qualifiers, and when the mode's
    analysis budget tripped (its solution is partial). *)

val whatif :
  ?mode:Analysis.mode ->
  t ->
  qual:string ->
  string ->
  (whatif_result, string) result
(** {!whatif_task} prepared and evaluated inline. *)

(** {2 Statistics} *)

(** How the last analysis of a mode was computed. *)
type rebuild = {
  rb_mode : string;
  rb_tasks_total : int;  (** analysis tasks: SCCs, or mono bodies *)
  rb_tasks_rerun : int;  (** of those, re-inferred *)
  rb_members_rerun : int;
      (** functions in the re-inferred tasks (every function on a full
          run) *)
  rb_full : bool;  (** a fresh store rather than a warm rerun *)
  rb_reason : string;  (** why a full run, or ["incremental"] *)
  rb_units_built : int;
      (** units lexed, parsed and built afresh for it; a clean unit
          whose seed is unchanged comes from the AST memo *)
  rb_decls_reparsed : int;
      (** top-level declarations lexed and parsed afresh by the compile
          it read: an edited unit spliced against its last clean parse
          counts its changed regions' declarations, and a unit parsed
          whole counts all of its own *)
  rb_link : string;
      (** how the compile it read linked the program: ["patched"] (the
          last compile's program patched for the changed units), ["merged: <reason>"] (built afresh: the unit list
          changed, a changed unit's typedefs, structs or prototypes
          changed, or a diagnostic budget cap) or ["cold"] (the
          session's first compile) *)
  rb_defs_rescanned : int;
      (** definitions whose body the FDG scanned for mentions; an
          unchanged definition keeps its edges *)
  rb_condensation : string;
      (** how the FDG came by its SCC list:
          ["kept"] (no edge, node or definition order changed),
          ["spliced"] (the previous list with the edit's singleton blocks
          spliced in and out) or ["tarjan"] (computed afresh, as on every
          full run) *)
  rb_rows_remeasured : int;
      (** functions whose report rows were measured afresh: the re-run
          tasks' members, and rows whose anchors or home unit moved *)
  rb_index_patched : bool;
      (** the position-key index was updated by the changed rows alone,
          not rebuilt *)
  rb_atoms_deleted : int;
      (** atoms the edit deleted from the store
          ({!Typequal.Solver.retract}) *)
  rb_vars_reset : int;
      (** variables whose solution was reset and re-derived *)
}

type session_stats = {
  ss_units : int;
  ss_modes : string list;  (** warm (already analyzed) modes *)
  ss_memo_hits : int;
      (** parses served from the per-unit AST memo, cumulative: a
          compile looks each unit it parses up once, under the seed the
          units before it leave, so a one-unit edit of an n-unit session
          that changes no typedef, enum constant or anonymous tag adds
          n-1 hits and 1 miss *)
  ss_memo_misses : int;  (** units lexed and parsed afresh, cumulative *)
  ss_last_rebuild : rebuild option;  (** the most recent analysis *)
}

val stats : t -> session_stats

val stats_json : session_stats -> Wire.json
(** The daemon's [stats] reply: every field as a JSON number, string,
    array or object — the last rebuild included, nothing
    pre-rendered. *)

(** {2 Rendering} *)

val render_run :
  ?stats:bool ->
  ?positions:bool ->
  ?jobs:int ->
  name:string ->
  Analysis.mode ->
  run ->
  string
(** The per-run report exactly as [cqualc] prints it (stdout block
    only). [jobs] is ignored. *)

val render :
  ?mode:Analysis.mode ->
  ?stats:bool ->
  ?positions:bool ->
  ?name:string ->
  t ->
  string
(** One mode of the session rendered with {!render_run} — the daemon's
    [render] method, diffable against a cold [cqualc] run. *)
