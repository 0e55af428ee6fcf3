(** Atomic qualifier-constraint solver (Sections 3.1–3.2 of the paper).

    After subtype constraints on qualified types are decomposed
    structurally, qualifier inference is left with atomic constraints over
    the qualifier lattice: [kappa <= L], [L <= kappa], [kappa1 <= kappa2]
    and ground [L1 <= L2]. This is the atomic subtyping system that is
    solvable in linear time for a fixed set of qualifiers (Henglein–Rehof,
    cited in Section 3.1); the solver computes least and greatest
    solutions by worklist join/meet propagation.

    Constraints may be {e masked} to a subset of lattice coordinates,
    expressing per-qualifier side conditions (e.g. binding-time's "nothing
    dynamic inside a static value") without coupling the other qualifiers.

    Constrained type schemes (Section 3.2) are supported by {!recording}
    the atoms generated while inferring a binding and {!instantiate}-ing
    them later under a fresh renaming of the scheme-local variables.

    The implementation is a {e flat arena}: variable state lives in dense
    int columns indexed by creation-order id, adjacency is a linked edge
    arena, dedup tables are open-addressing int-keyed hash sets and the
    propagation worklist is an int ring buffer (see DESIGN.md,
    "Flat-arena solver"). Its solutions are property-tested against
    their definition, the least solution of the logged atoms as
    {!naive_bounds} re-solves it without the store; its counters and
    error messages are deterministic, pinned by digests on a fixed op
    stream. *)

module Elt = Lattice.Elt
module Space = Lattice.Space

type reason = string option
(** human-readable provenance attached to constraints, used in error
    explanations *)

type var
(** a qualifier variable (the paper's kappa) *)

(** a recorded constraint *)
type atom =
  | Avc of var * Elt.t * int * reason  (** var <= const, on a mask *)
  | Acv of Elt.t * var * int * reason  (** const <= var, on a mask *)
  | Avv of var * var * int * reason  (** var <= var, on a mask *)

type error

type t
(** a constraint store over one qualifier space *)

val create : Space.t -> t

val space : t -> Space.t

val num_vars : t -> int
(** number of variables created so far (also a size proxy) *)

val var_of_id : t -> int -> var
(** the variable with this {!var_id}, which must be below {!num_vars} *)

val set_budget : t -> Budget.t option -> unit
(** Attach (or detach) a resource budget. Variable creation counts toward
    [max_vars]; every worklist pop counts toward [max_pops] and polls the
    deadline. Once the budget trips, propagation stops early and the
    least/greatest solutions may be {e partial} — callers must check
    {!Budget.exhausted} and report results from a tripped store as
    degraded rather than trusting classifications. *)

val fresh : ?name:string -> t -> var

val var_id : var -> int
(** stable creation-order id. Unique within one store only — use
    {!var_uid} when variables of two stores can mix. *)

val var_uid : var -> int
(** globally unique id (across stores) *)

val var_name : var -> string

val pp_var : var Fmt.t

(** {1 Adding constraints}

    All take an optional [mask] restricting the affected coordinates
    (default: all) and an optional human-readable [reason]. Edges and
    constant bounds are deduplicated on insertion, so
    repeated scheme instantiations against the same variables stop growing
    edge and provenance lists. *)

val add_leq_vc : ?reason:string -> ?mask:int -> t -> var -> Elt.t -> unit
val add_leq_cv : ?reason:string -> ?mask:int -> t -> Elt.t -> var -> unit
val add_leq_vv : ?reason:string -> ?mask:int -> t -> var -> var -> unit

val add_leq_cc : ?reason:string -> ?mask:int -> t -> Elt.t -> Elt.t -> unit
(** ground constraint, checked immediately; a violation is reported by
    the next {!solve} *)

val add_eq_vv : ?reason:string -> ?mask:int -> t -> var -> var -> unit

val add_eq_vc : ?reason:string -> ?mask:int -> t -> var -> Elt.t -> unit
(** pin a variable to exactly a constant (used by annotations, whose rule
    types the result as exactly [l tau]) *)

(** {1 Solving} *)

val solve : t -> (unit, error list) result
(** compute the least and greatest solutions; [Ok] iff satisfiable.
    Solving is idempotent and re-runs automatically after new constraints
    are added. Re-solving is {e incremental}: the worklists seed from the
    variables whose bounds or edges changed since the last solve, and
    [lo]/[hi] are updated monotonically. *)

val solve_from_scratch : t -> (unit, error list) result
(** reset every variable to its constant bounds and solve the whole
    system; same fixpoint as {!solve} (it is unique), kept as the
    incremental-solving ablation baseline *)

val last_errors : t -> error list
(** the errors known from solving so far, without forcing a re-solve:
    ground violations plus every bound violation detected by past
    {!solve}s (violations are monotone — constraints are only ever added —
    so this is also the error set of the current system whenever the store
    is solved). Lets callers of {!least}/{!greatest}/{!classify} tell
    whether the values they read come from an unsatisfiable system. *)

val explain_var : t -> var -> string option
(** after a {!solve}: why this variable's least solution violates its
    upper bound — the same bound-violation walk (offending coordinate,
    then backwards to the constant bound that forced it) that builds
    {!last_errors} messages, run on demand for one variable. The walk
    reads each pred chain and each variable's constant bounds in falling
    task rank of the atom holding the key (see {!retract}), which is a
    cold store's newest-first chain order, so the origin and reasons it
    names depend only on the live atoms in task order. [None] when
    the variable is within bounds. The query surface the store-resident
    daemon serves "explain this violation path" from, without rescanning
    the whole error set. *)

val least : t -> var -> Elt.t
val greatest : t -> var -> Elt.t

(** classification of one coordinate of a variable (Section 4.4) *)
type verdict =
  | Forced_up  (** the least solution has it: e.g. "must be const" *)
  | Forced_down  (** the greatest lacks it: "must not be const" *)
  | Free  (** could be either *)

val classify : t -> var -> int -> verdict
(** On a solved store this writes nothing, so domains may classify
    concurrently. *)

val classify_name : t -> var -> string -> verdict
val pp_verdict : verdict Fmt.t

val error_count : t -> int
(** [List.length (last_errors t)] without building or sorting the list *)

(** {1 Speculative queries (what-if)}

    Adding a constant lower bound [c <= v] to a solved store can only
    raise least solutions, and only on [v]'s forward closure; greatest
    solutions do not move (Section 3.1's least/greatest-solution
    characterization). A speculation computes that raise in a private
    sparse overlay over the live store, in time proportional to the
    cone, and never writes the store: any number of speculations may run
    concurrently on domains while no one mutates it. *)

type speculation

val speculate_leq_cv : ?mask:int -> t -> Elt.t -> var -> speculation
(** The least solution [add_leq_cv ?mask t c v] followed by {!solve}
    would produce, without adding anything. Raises [Invalid_argument]
    unless the store is solved. *)

val speculation_vars : speculation -> var list
(** the variables whose least solution the bound raises, in the order
    first raised; every other variable keeps its verdicts *)

val classify_speculative : speculation -> var -> int -> verdict
(** {!classify} against the speculative least solution *)

val speculation_new_errors : speculation -> int
(** how many violations {!solve} would record on top of {!error_count}:
    raised variables pushed past their constant upper bound that are not
    already in the error table *)

val error_message : error -> string

(** {1 Recording and schemes (Section 3.2)} *)

val recording : t -> (unit -> 'a) -> 'a * atom list
(** run the function, capturing every atom added during its execution
    (including atoms emitted by nested instantiations); recorders nest *)

type scheme
(** a constrained type scheme [forall kappas. C]: a set of local variables
    (both the generalized interface variables and the existentially bound
    internals) together with the captured atoms *)

val make_scheme : locals:var list -> atoms:atom list -> scheme
val scheme_locals : scheme -> var list
val scheme_atoms : scheme -> atom list

val scheme_id : scheme -> int
(** unique identity of this scheme value (globally unique, assigned at
    {!make_scheme}); instantiation-memo keys hang off it *)

val instantiate : t -> scheme -> var -> var
(** Re-emit the scheme's constraints under a fresh renaming of all its
    locals (so instances cannot interfere — the existential binding of
    Section 3.2); returns the renaming, the identity on non-locals. *)

(** {1 Segments and retraction}

    A warm client keeps one store across edits: each unit of its work (an
    analysis task) is a {e segment} of the arena, delimited by a {!mark}
    taken before it. Deleting the segments an edit invalidated is a
    {!retract} to the live ones, which deletes in place and compacts the
    atom log in place once it is more dead than live. *)

type mark
(** a position in the store: variable count, atom-log length and the
    ground violations so far *)

val mark : t -> mark
val mark_var : mark -> int
(** the first variable id created after the mark *)

val mark_log : mark -> int
(** the first atom-log index written after the mark *)

val num_atoms : t -> int
(** atoms logged so far *)

val ground_since : t -> mark -> error list
(** the ground ([const <= const]) violations raised since the mark, newest
    first: they are checked on insertion and never logged, so a segment
    must carry them itself *)

val checkpoint : t -> unit
(** mark the end of the live store: the atoms logged from here on are an
    edit's fresh work, which the next {!retract} keeps wherever the
    slices put them *)

type retraction = {
  rt_deleted : int;  (** live atoms this retraction deleted *)
  rt_reset : int;
      (** variables whose solution was reset and re-derived (the cone) *)
  rt_starts : int list;  (** each slice's start in the log afterwards *)
}

val retract : t -> slices:(int * int) list -> ground:error list -> retraction
(** [retract t ~slices ~ground] keeps only the atoms of the log slices
    [(start, length)], given in task order: the atoms logged before the
    last {!checkpoint} that no slice names are deleted, the ones logged
    after it must all be named, and a slice of the earlier atoms must
    lie inside one slice of the live set it replaces (a client that
    keeps whole segments passes them so). Afterwards the store is the
    one a fresh store fed the slices' atoms in that order would hold,
    up to variable renaming — solutions, error messages, [explain]
    output, the structural counters and {!atoms} — with [ground] as its
    ground violations. It deletes the dead atoms in place and
    re-derives only the solution bits they could have supported
    (delete-and-rederive), in whatever order the slices put the kept
    segments: an atom's task rank is read from the slices, not stored,
    by the key hand-off and {!explain_var}. When dead log entries then
    outnumber live ones, it compacts the log in place: the live atoms
    move down in task order and each dedup key's holder with its atom,
    so {!num_atoms} stays within twice [List.length (atoms t)]. No
    variable is created and the fresh atoms end up solved.
    @raise Invalid_argument inside a {!recording}, when a slice names a
    deleted or repeated atom, or when a fresh atom lies outside the
    slices; the store is then as it was. *)

val reset_stats : t -> unit
(** zero every per-run counter and phase time; [vars_created] then counts
    the variables created from here on. The structural counters
    ([edges_added], [edges_deduped]) describe the store and stay:
    {!retract} keeps them equal to a fresh store's *)

val compact : ?count:bool -> t -> interface:var list -> scheme -> scheme
(** Compact a scheme by exact projection onto its observable variables:
    the [interface] list (qualifier variables reachable from the
    generalized qualified type) plus every free variable. Collapses and
    shortcuts through purely internal variables (composing masked atoms
    exactly), drops unconstrained/unreachable internals and duplicate or
    vacuous atoms. Observational equivalence, not a heuristic:
    instantiating the compacted scheme produces the same least/greatest
    solutions on interface and free variables and the same bound
    violations as the original. Internals whose constant bounds are
    inconsistent are kept, preserving error reports. Deterministic:
    output order depends only on the input scheme, never on store state.
    Accumulates the [scheme_vars_*]/[scheme_edges_*] counters of
    {!stats} unless [count] is [false] — derived compactions (e.g.
    re-projecting a multi-member SCC scheme onto one member's interface)
    pass [~count:false] so the counters keep describing the primary
    generalizations. *)

val atoms_never_violate :
  Space.t -> locals:var list -> exposed:var list -> atom list -> bool
(** [true] iff the atom list alone can never produce a bound violation in
    an instance, under the most pessimistic assumption about external
    inflow: free variables and [exposed] locals (interface variables,
    which receive call-site constraints not part of the scheme) are pinned
    to top, least solutions propagate over the scheme's edges, and every
    local must still satisfy its constant upper bounds. Licenses sharing
    one instantiation between call sites (the memoized copy can never
    under-report errors, because it can produce none). *)

val pp_atom : Space.t -> atom Fmt.t

(** {1 Store-free evaluation} *)

val solve_atoms : Space.t -> atom list -> int -> Lattice.Elt.t * Lattice.Elt.t
(** least/greatest solutions of a bare atom list, computed locally without
    touching any store (unmentioned variables default to (bottom, top)):
    one worklist pass over a flat adjacency of the atoms, linear in atoms
    × lattice bits. Used to summarize schemes in isolation, and by the
    certificate property tests to re-solve a store's atom log *)

val atoms : t -> atom list
(** the store's live atoms: in insertion order, or after a {!retract}
    the slices' atoms in the order given, then the atoms logged since *)

val naive_bounds : t -> int -> Lattice.Elt.t * Lattice.Elt.t
(** replay the store's full constraint log through {!solve_atoms}: an
    independent oracle for the optimized solver, keyed by original
    (stable) {!var_id}s; used by the property tests and the [solver]
    bench *)

(** {1 Statistics} *)

(** counters accumulated over the store's lifetime *)
type stats = {
  vars_created : int;
  edges_added : int;
  edges_deduped : int;  (** duplicate insertions skipped *)
  cycles_collapsed : int;
      (** always 0: the solver collapses no cycles. Kept because the
          gating benchmark reads it; a later benchmark revision removes
          it *)
  incr_solves : int;  (** incremental {!solve} runs *)
  full_solves : int;  (** {!solve_from_scratch} runs *)
  worklist_pops : int;  (** total propagation steps across all solves *)
  solve_s : float;  (** wall seconds inside {!solve}/{!solve_from_scratch} *)
  congen_s : float;
      (** wall seconds generating constraints (body traversal), excluding
          the nested instantiate time; noted by the client *)
  generalize_s : float;  (** wall seconds generalizing schemes *)
  compact_s : float;  (** wall seconds inside {!compact} *)
  instantiate_s : float;  (** wall seconds inside {!instantiate} *)
  report_s : float;
      (** wall seconds measuring/classifying results, excluding the nested
          solve time; noted by the client *)
  scheme_vars_before : int;
      (** scheme locals entering {!compact}, summed over all compactions *)
  scheme_vars_after : int;  (** scheme locals surviving {!compact} *)
  scheme_edges_before : int;  (** constraint atoms entering {!compact} *)
  scheme_edges_after : int;  (** constraint atoms surviving {!compact} *)
  instantiations_memo_hits : int;
      (** instantiations served from the per-scope memo table or the
          flat-signature summary fast path *)
  memo_candidates : int;
      (** calls to polymorphic callees that consulted memo eligibility *)
  memo_reject_nonflat_ret : int;
      (** candidates rejected because the callee's return type is not flat
          (using the result emits structural constraints) *)
  memo_reject_may_violate : int;
      (** candidates rejected because the scheme's atoms could produce a
          bound violation on their own ({!atoms_never_violate} said no) *)
  memo_misses : int;
      (** eligible candidates whose key was not yet in the session memo
          (each miss performed a real instantiation) *)
  heap_words : int;
      (** live major-heap words at sampling time ([Gc.quick_stat]) *)
  top_heap_words : int;  (** peak major-heap size over the process life *)
}

val stats : t -> stats
val pp_stats : stats Fmt.t

val note_memo_hit : t -> unit
(** count one memoized instantiation (the memo table lives in the client) *)

val note_memo_candidate : t -> unit
(** count one call that consulted instantiation-memo eligibility *)

val note_memo_reject_nonflat_ret : t -> unit
(** count one candidate rejected for a non-flat return type *)

val note_memo_reject_may_violate : t -> unit
(** count one candidate rejected because its scheme atoms may violate *)

val note_memo_miss : t -> unit
(** count one eligible candidate that still had to instantiate *)

type phase = Congen | Generalize | Compact | Instantiate | Report

val note_phase : t -> phase -> float -> unit
(** credit [dt] wall seconds to a phase column. [Compact] and
    [Instantiate] are credited internally by {!compact}/{!instantiate};
    the analysis client notes the other phases around its own windows. *)

val phase_seconds : t -> phase -> float
(** current accumulated seconds of a phase — lets a client time an
    enclosing window and subtract the nested phases for disjoint columns *)

val pp_scheme : Space.t -> scheme Fmt.t
(** render a constrained scheme (Section 6's presentation concern);
    combine with {!compact} for readable output *)
