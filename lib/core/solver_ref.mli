(** Pre-arena reference solver (records + [Hashtbl]): the PR 5
    implementation {!Solver} replaced with the flat arena, kept as the
    ablation baseline and as the oracle for the arena parity tests. The
    interface is identical to {!Solver}'s (minus the batch-content
    accessor); the one behavioral deviation from the historical code is
    that the dirty set seeds solve worklists in insertion order, making
    [worklist_pops] deterministic and comparable across the two cores.

    Atomic qualifier-constraint solver (Sections 3.1–3.2 of the paper).

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
    them later under a fresh renaming of the scheme-local variables. *)

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

val create : ?cycle_elim:bool -> Space.t -> t
(** [cycle_elim] (default [true]) enables online cycle elimination:
    whenever a full-mask [var <= var] edge closes a cycle, the whole
    strongly-connected component is unified into one union-find
    representative. Disable it to get the plain worklist solver (the
    ablation baseline). *)

val space : t -> Space.t

val num_vars : t -> int
(** number of variables created so far (also a size proxy) *)

val set_budget : t -> Budget.t option -> unit
(** Attach (or detach) a resource budget. Variable creation counts toward
    [max_vars]; every worklist pop counts toward [max_pops] and polls the
    deadline. Once the budget trips, propagation stops early and the
    least/greatest solutions may be {e partial} — callers must check
    {!Budget.exhausted} and report results from a tripped store as
    degraded rather than trusting classifications. *)

val fresh : ?name:string -> t -> var

val var_id : var -> int
(** stable creation-order id; unaffected by unification. Unique within one
    store only — use {!var_uid} when variables of two stores can mix. *)

val var_uid : var -> int
(** globally unique id (across stores); stable under unification *)

val var_name : var -> string

val repr : var -> var
(** the variable's current union-find representative (itself unless a
    cycle collapse merged it); solution queries resolve this internally *)

val pp_var : var Fmt.t

(** {1 Adding constraints}

    All take an optional [mask] restricting the affected coordinates
    (default: all) and an optional human-readable [reason]. Edges and
    constant bounds are deduplicated on insertion (per representative), so
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
(** reset every representative to its constant bounds and solve the whole
    system; same fixpoint as {!solve} (it is unique), kept as the
    incremental-solving ablation baseline *)

val last_errors : t -> error list
(** the errors known from solving so far, without forcing a re-solve:
    ground violations plus every bound violation detected by past
    {!solve}s (violations are monotone — constraints are only ever added —
    so this is also the error set of the current system whenever the store
    is solved). Lets callers of {!least}/{!greatest}/{!classify} tell
    whether the values they read come from an unsatisfiable system. *)

val least : t -> var -> Elt.t
val greatest : t -> var -> Elt.t

(** classification of one coordinate of a variable (Section 4.4) *)
type verdict =
  | Forced_up  (** the least solution has it: e.g. "must be const" *)
  | Forced_down  (** the greatest lacks it: "must not be const" *)
  | Free  (** could be either *)

val classify : t -> var -> int -> verdict
val classify_name : t -> var -> string -> verdict
val pp_verdict : verdict Fmt.t

val error_message : error -> string
val pp_error : error Fmt.t

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

val scheme_size : scheme -> int
(** number of atoms *)

val instantiate : ?bind:(var -> var option) -> t -> scheme -> var -> var
(** Re-emit the scheme's constraints under a fresh renaming of all its
    locals (so instances cannot interfere — the existential binding of
    Section 3.2); returns the renaming, the identity on non-locals.

    [?bind] resolves a scheme variable (local or free) to an existing
    variable of [t] instead of freshening it. The parallel analysis uses
    it to instantiate a scheme recorded in another store: scheme-local
    variables still freshen, but the scheme's free variables — which name
    the {e other} store's globals — are redirected to this store's mirrors
    rather than used as-is. *)

(** {1 Batched constraint merge (parallel map-reduce)} *)

type batch
(** the complete ordered content of a store: every variable in creation
    order, every atom in insertion order *)

val export : t -> batch

val batch_vars : batch -> int
val batch_atoms : batch -> int

val absorb : t -> ?bind:(var -> var option) -> batch -> var -> var option
(** Replay a batch (typically exported from a worker's private store) into
    [t]: batch variables resolved by [?bind] map to existing variables of
    [t] (the worker's mirrors of shared globals) and are {e not}
    re-created; every other batch variable is created fresh in the batch's
    creation order; then every atom is re-added through the normal
    [add_leq_*] entry points, so edge/bound dedup and online cycle
    elimination apply exactly as if the constraints had been generated
    serially. Returns the realized renaming ([None] for batch variables
    the batch did not contain). *)

val batch_skippable : bind:(var -> var option) -> batch -> bool
(** [true] iff absorbing the batch would be a literal no-op: it carries no
    atoms and every variable is already resolved by [bind] (so no fresh
    variables would be created). The parallel merge skips such batches
    (common for leaf-function tasks) without perturbing variable-creation
    parity with a serial run. *)

val simplify_scheme : t -> interface:var list -> scheme -> scheme
(** Simplify a scheme (a basic answer to the open problem of Section 6):
    duplicate and vacuous atoms are dropped, and existentially bound
    internal variables are eliminated by exact pairwise composition when
    that does not grow the system. The projection of the solution set
    onto [interface] and the scheme's free variables is preserved
    (property-tested). Variables carrying masked atoms are kept
    conservatively. *)

val compact : t -> interface:var list -> scheme -> scheme
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
    {!stats}. *)

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

(** {1 Baseline (ablation)} *)

val solve_least : t -> unit
(** worklist least-solution pass only (used by benchmarks) *)

val solve_least_naive : t -> unit
(** round-robin iteration baseline; computes the same least solution *)

val solve_atoms : Space.t -> atom list -> int -> Lattice.Elt.t * Lattice.Elt.t
(** least/greatest solutions of a bare atom list, computed locally without
    touching any store (unmentioned variables default to (bottom, top));
    used to summarize schemes in isolation *)

val naive_bounds : t -> int -> Lattice.Elt.t * Lattice.Elt.t
(** replay the store's full constraint log through {!solve_atoms}: an
    independent oracle for the optimized solver, keyed by original
    (stable) {!var_id}s; used by the equivalence property tests *)

(** {1 Statistics} *)

(** counters accumulated over the store's lifetime *)
type stats = {
  vars_created : int;
  vars_unified : int;  (** absorbed into another representative *)
  edges_added : int;
  edges_deduped : int;  (** duplicate insertions skipped *)
  cycles_collapsed : int;  (** cycles detected and unified online *)
  incr_solves : int;  (** incremental {!solve} runs *)
  full_solves : int;  (** {!solve_from_scratch} runs *)
  worklist_pops : int;  (** total propagation steps across all solves *)
  solve_s : float;  (** wall seconds inside {!solve}/{!solve_from_scratch} *)
  absorb_s : float;  (** wall seconds inside {!absorb} *)
  congen_s : float;  (** phase timers: always 0 in this core; see {!Solver} *)
  generalize_s : float;
  compact_s : float;
  instantiate_s : float;
  report_s : float;
  scheme_vars_before : int;
      (** scheme locals entering {!compact}, summed over all compactions *)
  scheme_vars_after : int;  (** scheme locals surviving {!compact} *)
  scheme_edges_before : int;  (** constraint atoms entering {!compact} *)
  scheme_edges_after : int;  (** constraint atoms surviving {!compact} *)
  instantiations_memo_hits : int;
      (** instantiations served from the per-scope memo table *)
  memo_candidates : int;
      (** memo-rejection breakdown: always 0 in this core; see {!Solver} *)
  memo_reject_nonflat_ret : int;
  memo_reject_may_violate : int;
  memo_misses : int;
  empty_batches_skipped : int;
      (** worker batches whose absorb was skipped as a no-op *)
  heap_words : int;  (** live major-heap words at sampling time *)
  top_heap_words : int;  (** peak major-heap size over the process life *)
  cores_available : int;  (** [Domain.recommended_domain_count] *)
}

val stats : t -> stats
val pp_stats : stats Fmt.t

val note_memo_hit : t -> unit
(** count one memoized instantiation (the memo table lives in the client) *)

val note_skipped_batch : t -> unit
(** count one skipped empty batch *)

val merge_aux_stats : t -> stats -> unit
(** fold the compaction/memo counters of a worker store's stats into this
    store, so parallel runs report totals; the structural counters (vars,
    edges, solve times) are not touched — they flow through {!absorb} *)

val pp_scheme : Space.t -> scheme Fmt.t
(** render a constrained scheme (Section 6's presentation concern);
    combine with {!simplify_scheme} for readable output *)
