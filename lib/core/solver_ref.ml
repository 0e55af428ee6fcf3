(** Pre-arena reference solver: the records + [Hashtbl] implementation the
    flat-arena {!Solver} replaced, kept in-tree verbatim as

    - the apples-to-apples ablation baseline for the [scale] benchmark
      (same host, same op stream, both cores driven through the identical
      public API), and
    - the oracle for the arena parity property tests: both stores are
      driven through identical operation sequences and must agree on every
      counter, every solution bound and every error message, byte for
      byte.

    The only intended difference from the historical implementation is
    that the dirty set remembers {e insertion order} and seeds the solve
    worklists in that order (the historical code iterated a [Hashtbl],
    whose bucket order is an implementation accident). The fixpoint,
    the touched set and the error reports are seed-order independent; only
    the [worklist_pops] counter is sensitive to it, and pinning the order
    makes that counter comparable across solver implementations.

    Everything below this header is the PR 5 solver. See {!Solver} for the
    arena core and DESIGN.md ("Flat-arena solver") for the comparison.

    ------------------------------------------------------------------

    Atomic qualifier-constraint solver (Sections 3.1–3.2 of the paper).

    After decomposing subtype constraints on qualified types structurally,
    qualifier inference is left with {e atomic} constraints over the
    qualifier lattice [L]:

    - [kappa <= L] and [L <= kappa] (variable/constant bounds),
    - [kappa1 <= kappa2] (variable/variable edges),
    - [L1 <= L2] (ground, checked immediately).

    This is an atomic subtyping system, solvable in linear time for a fixed
    set of qualifiers (Henglein–Rehof); we use worklist-based join
    propagation for the least solution and meet propagation over reversed
    edges for the greatest solution. The solver also supports {e masked}
    constraints that relate only a subset of the lattice coordinates; these
    express per-qualifier side conditions such as the binding-time
    well-formedness rule ("nothing dynamic inside a static value") without
    touching the other qualifiers.

    The pair (least, greatest) solution classifies every variable per
    Section 4.4: a coordinate is {e forced up} (e.g. must-const) when the
    least solution already has it, {e forced down} (must-not-const) when
    even the greatest solution lacks it, and {e unconstrained} otherwise.

    Performance architecture (see DESIGN.md, "Solver architecture"):

    - Variables are union-find nodes. When [add_leq_vv] closes a cycle of
      full-mask edges — detected online by a bounded path search, in the
      style of partial online cycle elimination for inclusion constraints —
      the strongly-connected component is unified into one representative,
      merging bounds, edges and provenance. All members of an SCC share one
      solution, so this is exact. Masked edges never trigger unification
      (two variables related on a strict subset of coordinates may differ
      on the rest).
    - Edges are deduplicated on insertion, hash-keyed by
      [(source, target, mask)] over representatives, so repeated scheme
      instantiations against the same variables stop growing edge lists.
    - Solving is incremental: a dirty set tracks representatives whose
      bounds or incident edges changed since the last [solve]; worklists
      seed from the dirty set, and [lo]/[hi] are updated monotonically
      ([lo] only rises, [hi] only falls — sound because constraints are
      only ever added). Violations are likewise monotone and accumulate in
      a persistent error table exposed via {!last_errors}.

    Polymorphism support: constraint sets can be captured while they are
    generated ({!recording}) and later re-instantiated under a renaming of
    their local variables ({!instantiate}), implementing the constrained
    type schemes [forall k. rho \ C] of Section 3.2 (with the existential
    binding of purely-local variables realized by renaming {e all} scheme
    locals at each instantiation). Atoms store the original variables, not
    representatives, so instantiation re-derives any unifications for the
    fresh copies. *)

module Elt = Lattice.Elt
module Space = Lattice.Space

type reason = string option

type var = {
  id : int;
      (* stable creation-order id; kept as the first field so structural
         compare decides on it before reaching the cyclic [parent] *)
  vname : string;
  uid : int;
      (* globally unique across stores (atomic counter). Renaming maps that
         can mix variables of two stores — [instantiate] on an imported
         scheme whose free variables were resolved to local mirrors — must
         key on [uid]: per-store [id]s both count from 0 and collide. *)
  mutable parent : var;  (* union-find: self iff representative *)
  mutable rank : int;
  mutable lo_bound : Elt.t;  (* join of constant lower bounds (embedded) *)
  mutable hi_bound : Elt.t;  (* meet of constant upper bounds (embedded) *)
  mutable lo : Elt.t;        (* least solution, valid after [solve] *)
  mutable hi : Elt.t;        (* greatest solution, valid after [solve] *)
  mutable succs : (var * int * reason) list;  (* v <= succ on mask *)
  mutable preds : (var * int * reason) list;
  mutable lo_reasons : (Elt.t * int * reason) list;  (* provenance *)
  mutable hi_reasons : (Elt.t * int * reason) list;
}

let rec find v =
  if v.parent == v then v
  else begin
    let r = find v.parent in
    v.parent <- r;
    r
  end

let repr = find

type atom =
  | Avc of var * Elt.t * int * reason  (* var <= const on mask *)
  | Acv of Elt.t * var * int * reason  (* const <= var on mask *)
  | Avv of var * var * int * reason    (* var <= var on mask *)

type error = {
  err_var : var option;
  err_msg : string;
}

type stats = {
  vars_created : int;
  vars_unified : int;
  edges_added : int;
  edges_deduped : int;
  cycles_collapsed : int;
  incr_solves : int;
  full_solves : int;
  worklist_pops : int;
  solve_s : float;
  absorb_s : float;
  congen_s : float;  (* phase timers: always 0 here; see Solver *)
  generalize_s : float;
  compact_s : float;
  instantiate_s : float;
  report_s : float;
  scheme_vars_before : int;  (* locals entering [compact], summed *)
  scheme_vars_after : int;
  scheme_edges_before : int;  (* constraint atoms entering [compact], summed *)
  scheme_edges_after : int;
  instantiations_memo_hits : int;
  memo_candidates : int;  (* memo-rejection breakdown: always 0 here *)
  memo_reject_nonflat_ret : int;
  memo_reject_may_violate : int;
  memo_misses : int;
  empty_batches_skipped : int;
  heap_words : int;
  top_heap_words : int;
  cores_available : int;
}

type t = {
  space : Space.t;
  mutable vars : var list;  (* in reverse creation order, absorbed included *)
  mutable nvars : int;
  mutable ground_errors : error list;
  errors : (int, error) Hashtbl.t;
      (* persistent bound-violation table, keyed by the id of the
         representative at detection time; monotone since constraints are
         only ever added *)
  mutable recorders : atom list ref list;
  mutable log : atom list;
      (* every atom ever added, original variables — replayed by
         [naive_bounds] as an independent oracle *)
  mutable solved : bool;
  dirty : (int, var) Hashtbl.t;
  mutable dirty_order : var list;
      (* reverse insertion order of the dirty set (first marking only; an
         entry removed and re-marked appears twice, with membership decided
         by [dirty]) — seeds the solve worklists deterministically *)
  edge_seen : (int * int * int, unit) Hashtbl.t;  (* (src, dst, mask) *)
  bound_seen : (int * int * int * bool, unit) Hashtbl.t;
      (* (rep, const, mask, is_upper): constant bounds already applied to a
         representative, so repeated scheme instantiation against shared
         variables stops growing provenance lists — the bound-side twin of
         [edge_seen] *)
  cycle_elim : bool;
  mutable budget : Budget.t option;
      (* optional resource guard: propagation stops early once it trips,
         leaving partial (lo, hi) — callers must check Budget.exhausted
         and treat classifications as degraded *)
  mutable s_unified : int;
  mutable s_edges : int;
  mutable s_dedup : int;
  mutable s_cycles : int;
  mutable s_incr : int;
  mutable s_full : int;
  mutable s_pops : int;
  mutable s_solve_s : float;
  mutable s_absorb_s : float;
  mutable s_sv_before : int;
  mutable s_sv_after : int;
  mutable s_se_before : int;
  mutable s_se_after : int;
  mutable s_memo_hits : int;
  mutable s_skipped_batches : int;
}

let create ?(cycle_elim = true) space =
  {
    space;
    vars = [];
    nvars = 0;
    ground_errors = [];
    errors = Hashtbl.create 16;
    recorders = [];
    log = [];
    solved = false;
    dirty = Hashtbl.create 64;
    dirty_order = [];
    edge_seen = Hashtbl.create 256;
    bound_seen = Hashtbl.create 256;
    cycle_elim;
    budget = None;
    s_unified = 0;
    s_edges = 0;
    s_dedup = 0;
    s_cycles = 0;
    s_incr = 0;
    s_full = 0;
    s_pops = 0;
    s_solve_s = 0.;
    s_absorb_s = 0.;
    s_sv_before = 0;
    s_sv_after = 0;
    s_se_before = 0;
    s_se_after = 0;
    s_memo_hits = 0;
    s_skipped_batches = 0;
  }

let space t = t.space
let num_vars t = t.nvars
let set_budget t b = t.budget <- b

let budget_tripped t =
  match t.budget with Some b -> Budget.is_exhausted b | None -> false

let stats t =
  {
    vars_created = t.nvars;
    vars_unified = t.s_unified;
    edges_added = t.s_edges;
    edges_deduped = t.s_dedup;
    cycles_collapsed = t.s_cycles;
    incr_solves = t.s_incr;
    full_solves = t.s_full;
    worklist_pops = t.s_pops;
    solve_s = t.s_solve_s;
    absorb_s = t.s_absorb_s;
    congen_s = 0.;
    generalize_s = 0.;
    compact_s = 0.;
    instantiate_s = 0.;
    report_s = 0.;
    scheme_vars_before = t.s_sv_before;
    scheme_vars_after = t.s_sv_after;
    scheme_edges_before = t.s_se_before;
    scheme_edges_after = t.s_se_after;
    instantiations_memo_hits = t.s_memo_hits;
    memo_candidates = 0;
    memo_reject_nonflat_ret = 0;
    memo_reject_may_violate = 0;
    memo_misses = 0;
    empty_batches_skipped = t.s_skipped_batches;
    heap_words = (Gc.quick_stat ()).Gc.heap_words;
    top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
    cores_available = Domain.recommended_domain_count ();
  }

(* Fold compaction/memo counters accrued in a worker-private store into the
   shared store, so `--stats` totals cover parallel runs. Only the additive
   bookkeeping counters transfer; everything else (vars, edges, solve
   times) already flows through the batch absorb path. *)
let merge_aux_stats t (s : stats) =
  t.s_sv_before <- t.s_sv_before + s.scheme_vars_before;
  t.s_sv_after <- t.s_sv_after + s.scheme_vars_after;
  t.s_se_before <- t.s_se_before + s.scheme_edges_before;
  t.s_se_after <- t.s_se_after + s.scheme_edges_after;
  t.s_memo_hits <- t.s_memo_hits + s.instantiations_memo_hits;
  t.s_skipped_batches <- t.s_skipped_batches + s.empty_batches_skipped

let note_memo_hit t = t.s_memo_hits <- t.s_memo_hits + 1
let note_skipped_batch t = t.s_skipped_batches <- t.s_skipped_batches + 1

let pp_stats ppf s =
  Fmt.pf ppf
    "vars %d (%d unified), edges %d (%d deduped), cycles %d, solves %d incr + \
     %d full, %d worklist pops, %.3fs solving, %.3fs absorbing; compaction: \
     scheme vars %d -> %d, scheme atoms %d -> %d, %d memoized \
     instantiations"
    s.vars_created s.vars_unified s.edges_added s.edges_deduped
    s.cycles_collapsed s.incr_solves s.full_solves s.worklist_pops s.solve_s
    s.absorb_s s.scheme_vars_before s.scheme_vars_after s.scheme_edges_before
    s.scheme_edges_after s.instantiations_memo_hits;
  Fmt.pf ppf "; heap %d words (peak %d), %d cores" s.heap_words
    s.top_heap_words s.cores_available

let uid_counter = Atomic.make 0

let fresh ?(name = "q") t =
  let sp = t.space in
  let rec v =
    {
      id = t.nvars;
      vname = name;
      uid = Atomic.fetch_and_add uid_counter 1;
      parent = v;
      rank = 0;
      lo_bound = Elt.bottom sp;
      hi_bound = Elt.top sp;
      lo = Elt.bottom sp;
      hi = Elt.top sp;
      succs = [];
      preds = [];
      lo_reasons = [];
      hi_reasons = [];
    }
  in
  t.nvars <- t.nvars + 1;
  t.vars <- v :: t.vars;
  Option.iter Budget.note_var t.budget;
  (* a fresh variable has no constraints: its current (lo, hi) is already
     its solution, so [solved] and the dirty set are untouched *)
  v

let var_id v = v.id
let var_uid v = v.uid
let var_name v = v.vname
let pp_var ppf v = Fmt.pf ppf "%s#%d" v.vname v.id

let record t atom = List.iter (fun r -> r := atom :: !r) t.recorders

let log_atom t atom =
  record t atom;
  t.log <- atom :: t.log

let mark_dirty t v =
  if not (Hashtbl.mem t.dirty v.id) then t.dirty_order <- v :: t.dirty_order;
  Hashtbl.replace t.dirty v.id v

(* var <= const, restricted to the coordinates in [mask]. Constant bounds
   are deduplicated on insertion like edges: a repeated instantiation that
   re-derives an identical bound on the same representative is counted as
   deduped and adds nothing — in particular no provenance entry, so
   [hi_reasons] stops growing with the instantiation count. *)
let add_leq_vc ?reason ?mask t v c =
  let mask = Option.value mask ~default:(Elt.full_mask t.space) in
  log_atom t (Avc (v, c, mask, reason));
  let r = find v in
  let k = (r.id, (c : Elt.t), mask, true) in
  if Hashtbl.mem t.bound_seen k then t.s_dedup <- t.s_dedup + 1
  else begin
    Hashtbl.add t.bound_seen k ();
    r.hi_reasons <- (c, mask, reason) :: r.hi_reasons;
    let hb' = Elt.meet t.space r.hi_bound (Elt.embed_top t.space ~mask c) in
    if not (Elt.equal hb' r.hi_bound) then begin
      r.hi_bound <- hb';
      r.hi <- Elt.meet t.space r.hi hb';
      t.solved <- false;
      mark_dirty t r
    end
  end

(* const <= var, restricted to [mask]. Dual of [add_leq_vc], including the
   bound dedup. *)
let add_leq_cv ?reason ?mask t c v =
  let mask = Option.value mask ~default:(Elt.full_mask t.space) in
  log_atom t (Acv (c, v, mask, reason));
  let r = find v in
  let k = (r.id, (c : Elt.t), mask, false) in
  if Hashtbl.mem t.bound_seen k then t.s_dedup <- t.s_dedup + 1
  else begin
    Hashtbl.add t.bound_seen k ();
    r.lo_reasons <- (c, mask, reason) :: r.lo_reasons;
    let lb' = Elt.join t.space r.lo_bound (Elt.embed_bottom t.space ~mask c) in
    if not (Elt.equal lb' r.lo_bound) then begin
      r.lo_bound <- lb';
      r.lo <- Elt.join t.space r.lo lb';
      t.solved <- false;
      mark_dirty t r
    end
  end

(* Merge representative [o] into representative [r] (rank order decided by
   the caller): bounds join/meet, provenance concatenates, and [o]'s edges
   migrate to [r] with self-loops dropped and duplicates skipped. Stale
   entries naming [o] in {e other} variables' lists are left in place —
   propagation resolves every edge endpoint through [find]. *)
let absorb_var t r o =
  let sp = t.space in
  o.parent <- r;
  r.lo_bound <- Elt.join sp r.lo_bound o.lo_bound;
  r.hi_bound <- Elt.meet sp r.hi_bound o.hi_bound;
  r.lo <- Elt.join sp r.lo o.lo;
  r.hi <- Elt.meet sp r.hi o.hi;
  r.lo_reasons <- List.rev_append o.lo_reasons r.lo_reasons;
  r.hi_reasons <- List.rev_append o.hi_reasons r.hi_reasons;
  List.iter
    (fun (s, m, reason) ->
      let s = find s in
      if s != r then begin
        let k = (r.id, s.id, m) in
        if Hashtbl.mem t.edge_seen k then t.s_dedup <- t.s_dedup + 1
        else begin
          Hashtbl.add t.edge_seen k ();
          r.succs <- (s, m, reason) :: r.succs
        end
      end)
    o.succs;
  List.iter
    (fun (p, m, reason) ->
      let p = find p in
      if p != r then begin
        let k = (p.id, r.id, m) in
        if Hashtbl.mem t.edge_seen k then t.s_dedup <- t.s_dedup + 1
        else begin
          Hashtbl.add t.edge_seen k ();
          r.preds <- (p, m, reason) :: r.preds
        end
      end)
    o.preds;
  o.succs <- [];
  o.preds <- [];
  t.s_unified <- t.s_unified + 1;
  Hashtbl.remove t.dirty o.id;
  mark_dirty t r

let union t a b =
  let a = find a and b = find b in
  if a == b then a
  else begin
    let r, o = if a.rank >= b.rank then (a, b) else (b, a) in
    if r.rank = o.rank then r.rank <- r.rank + 1;
    absorb_var t r o;
    r
  end

(* Bounded DFS over full-mask edges from [src] looking for [dst]; returns
   the path of representatives (src first, dst last). The budget bounds
   total edge traversals, keeping cycle detection cheap on large graphs —
   partial online cycle elimination: missing a long cycle only costs
   propagation work, never soundness. *)
let cycle_budget = 64

let find_path t src dst =
  let full = Elt.full_mask t.space in
  let seen = Hashtbl.create 16 in
  let steps = ref 0 in
  let rec go v =
    let v = find v in
    if v == dst then Some [ v ]
    else if Hashtbl.mem seen v.id || !steps >= cycle_budget then None
    else begin
      Hashtbl.add seen v.id ();
      let rec try_edges = function
        | [] -> None
        | (s, m, _) :: rest ->
            incr steps;
            if m land full = full then (
              match go s with
              | Some p -> Some (v :: p)
              | None -> try_edges rest)
            else try_edges rest
      in
      try_edges v.succs
    end
  in
  go src

(* The edge [ra <= rb] was just inserted; a path [rb ~> ra] over full-mask
   edges closes a cycle, and every variable on it takes the same value in
   any solution — unify the lot. *)
let try_collapse t ra rb =
  match find_path t rb ra with
  | None | Some [] -> ()
  | Some (first :: rest) ->
      t.s_cycles <- t.s_cycles + 1;
      ignore (List.fold_left (fun acc v -> union t acc v) first rest)

(* var <= var, restricted to [mask]. *)
let add_leq_vv ?reason ?mask t a b =
  if a != b then begin
    let mask = Option.value mask ~default:(Elt.full_mask t.space) in
    log_atom t (Avv (a, b, mask, reason));
    let ra = find a and rb = find b in
    if ra != rb then begin
      let k = (ra.id, rb.id, mask) in
      if Hashtbl.mem t.edge_seen k then t.s_dedup <- t.s_dedup + 1
        (* the identical edge already exists between these representatives:
           the system is unchanged, [solved] stays valid *)
      else begin
        Hashtbl.add t.edge_seen k ();
        t.s_edges <- t.s_edges + 1;
        ra.succs <- (rb, mask, reason) :: ra.succs;
        rb.preds <- (ra, mask, reason) :: rb.preds;
        t.solved <- false;
        mark_dirty t ra;
        mark_dirty t rb;
        if t.cycle_elim && Elt.is_full_mask t.space mask then
          try_collapse t ra rb
      end
    end
  end

(* Ground constraint const <= const: checked immediately (mask-restricted). *)
let add_leq_cc ?reason ?mask t c1 c2 =
  let mask = Option.value mask ~default:(Elt.full_mask t.space) in
  if not (Elt.leq_masked t.space ~mask c1 c2) then
    t.ground_errors <-
      {
        err_var = None;
        err_msg =
          Fmt.str "unsatisfiable ground constraint %a <= %a%a"
            (Elt.pp_full t.space) c1 (Elt.pp_full t.space) c2
            Fmt.(option (any " (" ++ string ++ any ")"))
            reason;
      }
      :: t.ground_errors

let add_eq_vv ?reason ?mask t a b =
  add_leq_vv ?reason ?mask t a b;
  add_leq_vv ?reason ?mask t b a

(* Pin a variable to exactly [c] (used by annotations, whose rule types the
   result as exactly [l tau]). *)
let add_eq_vc ?reason ?mask t v c =
  add_leq_vc ?reason ?mask t v c;
  add_leq_cv ?reason ?mask t c v

(* ------------------------------------------------------------------ *)
(* Solving                                                             *)
(* ------------------------------------------------------------------ *)

(* One worklist pass. [seed] supplies the initial frontier; propagation
   pushes [lo] joins along forward edges and [hi] meets along reversed
   edges. Every popped representative is appended to [touched] so the
   caller can re-check bound violations on exactly the affected region. *)
let propagate t ~seed ~touched =
  let sp = t.space in
  let queue = Queue.create () in
  let inq = Hashtbl.create 64 in
  let push v =
    let v = find v in
    if not (Hashtbl.mem inq v.id) then begin
      Hashtbl.add inq v.id ();
      Queue.push v queue
    end
  in
  (* A tripped budget drains the worklists without propagating: (lo, hi)
     are left partial, which is why budgeted runs are reported degraded
     and classified conservatively by the caller. *)
  (* least pass *)
  seed push;
  while (not (Queue.is_empty queue)) && not (budget_tripped t) do
    let v = Queue.pop queue in
    Hashtbl.remove inq v.id;
    t.s_pops <- t.s_pops + 1;
    Option.iter Budget.note_pop t.budget;
    touched := v :: !touched;
    List.iter
      (fun (s, mask, _) ->
        let s = find s in
        if s != v then begin
          let contrib = Elt.embed_bottom sp ~mask v.lo in
          let lo' = Elt.join sp s.lo contrib in
          if not (Elt.equal lo' s.lo) then begin
            s.lo <- lo';
            push s
          end
        end)
      v.succs
  done;
  Queue.clear queue;
  Hashtbl.reset inq;
  (* greatest pass: dual, meets along reversed edges *)
  seed push;
  while (not (Queue.is_empty queue)) && not (budget_tripped t) do
    let v = Queue.pop queue in
    Hashtbl.remove inq v.id;
    t.s_pops <- t.s_pops + 1;
    Option.iter Budget.note_pop t.budget;
    touched := v :: !touched;
    List.iter
      (fun (p, mask, _) ->
        let p = find p in
        if p != v then begin
          let contrib = Elt.embed_top sp ~mask v.hi in
          let hi' = Elt.meet sp p.hi contrib in
          if not (Elt.equal hi' p.hi) then begin
            p.hi <- hi';
            push p
          end
        end)
      v.preds
  done

(* Explain why [v]'s least solution violates its upper bound: find the
   offending coordinate, then walk backwards (BFS over a queue) to a
   constant lower bound that raised it. *)
let explain t v =
  let v = find v in
  let sp = t.space in
  let bad = ref None in
  for i = 0 to Space.size sp - 1 do
    if !bad = None then begin
      let mask = Elt.singleton_mask sp i in
      if not (Elt.leq_masked sp ~mask v.lo v.hi_bound) then bad := Some i
    end
  done;
  match !bad with
  | None -> Fmt.str "%a: bound violation" pp_var v
  | Some i ->
      let q = Space.qual sp i in
      let mask = Elt.singleton_mask sp i in
      (* the value of coordinate i that lo carries *)
      let coord_of x = x land mask in
      let target = coord_of v.lo in
      (* BFS backwards for a var whose own constant lower bounds produce
         [target] on coordinate i *)
      let seen = Hashtbl.create 16 in
      let frontier = Queue.create () in
      Queue.push v frontier;
      let found = ref None in
      while Option.is_none !found && not (Queue.is_empty frontier) do
        let u = Queue.pop frontier in
        if not (Hashtbl.mem seen u.id) then begin
          Hashtbl.add seen u.id ();
          if coord_of u.lo_bound = target && coord_of u.lo = target then
            let reason =
              List.find_map
                (fun (c, m, r) ->
                  if m land mask <> 0 && coord_of c = target then
                    Some (Option.value r ~default:"constant bound")
                  else None)
                u.lo_reasons
            in
            found := Some (u, Option.value reason ~default:"constant bound")
          else
            List.iter
              (fun (p, m, _) ->
                let p = find p in
                if m land mask <> 0 && coord_of p.lo = target then
                  Queue.push p frontier)
              u.preds
        end
      done;
      let origin =
        match !found with
        | Some (u, r) -> Fmt.str "; forced at %a (%s)" pp_var u r
        | None -> ""
      in
      let bound_reason =
        List.find_map
          (fun (_, m, r) ->
            if m land mask <> 0 && not (Elt.leq_masked sp ~mask v.lo v.hi_bound)
            then r
            else None)
          v.hi_reasons
      in
      (* Ordered coordinates name the violating levels; classic two-point
         coordinates keep the historical message byte-for-byte. *)
      let levels =
        match Space.order sp i with
        | None -> ""
        | Some _ ->
            Fmt.str ": level %s exceeds bound %s"
              (Elt.level_name sp i v.lo)
              (Elt.level_name sp i v.hi_bound)
      in
      Fmt.str "qualifier %a of %a violates an upper bound%s%a%s" Qualifier.pp q
        pp_var v levels
        Fmt.(option (any " (" ++ string ++ any ")"))
        bound_reason origin

let last_errors t =
  let var_errs = Hashtbl.fold (fun _ e acc -> e :: acc) t.errors [] in
  let var_errs =
    List.sort
      (fun a b ->
        let id e = match e.err_var with Some v -> v.id | None -> -1 in
        compare (id a) (id b))
      var_errs
  in
  List.rev_append t.ground_errors var_errs

(* Record a violation for every representative in [touched] whose least
   solution escapes its constant upper bound. Violations are monotone
   (constraints are only added; [lo] only rises, [hi_bound] only falls),
   so entries never need revisiting. [explain] runs only here, after
   propagation has reached fixpoint, so it sees final [lo] values. *)
let check_violations t touched =
  List.iter
    (fun v ->
      if
        (not (Hashtbl.mem t.errors v.id))
        && not (Elt.leq t.space v.lo v.hi_bound)
      then Hashtbl.add t.errors v.id { err_var = Some v; err_msg = explain t v })
    touched

let result_of_errors t =
  match last_errors t with [] -> Ok () | es -> Error es

(* Incremental solve: seed the worklists from the dirty set only. [lo] and
   [hi] already reflect every bound added since the last solve (the add_*
   functions fold new bounds in eagerly), so propagating from the dirty
   region reaches exactly the variables whose solution can have changed. *)
let solve t =
  if not t.solved then begin
    let t0 = Unix.gettimeofday () in
    let touched = ref [] in
    (* seed in dirty-set insertion order: deterministic and matched by the
       arena solver, so [worklist_pops] is comparable across cores *)
    let seeds = List.rev t.dirty_order in
    propagate t
      ~seed:(fun push ->
        List.iter (fun v -> if Hashtbl.mem t.dirty v.id then push v) seeds)
      ~touched;
    check_violations t !touched;
    Hashtbl.reset t.dirty;
    t.dirty_order <- [];
    t.solved <- true;
    t.s_incr <- t.s_incr + 1;
    t.s_solve_s <- t.s_solve_s +. (Unix.gettimeofday () -. t0)
  end;
  result_of_errors t

(* Full solve: reset every representative to its bounds and propagate from
   everywhere. The ablation baseline for incremental solving, and a
   self-check hook (the fixpoint is unique, so the results must agree). *)
let solve_from_scratch t =
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun v ->
      if v.parent == v then begin
        v.lo <- v.lo_bound;
        v.hi <- v.hi_bound
      end)
    t.vars;
  let touched = ref [] in
  propagate t
    ~seed:(fun push -> List.iter (fun v -> if v.parent == v then push v) t.vars)
    ~touched;
  Hashtbl.reset t.errors;
  List.iter
    (fun v ->
      if
        v.parent == v
        && (not (Hashtbl.mem t.errors v.id))
        && not (Elt.leq t.space v.lo v.hi_bound)
      then Hashtbl.add t.errors v.id { err_var = Some v; err_msg = explain t v })
    t.vars;
  Hashtbl.reset t.dirty;
  t.dirty_order <- [];
  t.solved <- true;
  t.s_full <- t.s_full + 1;
  t.s_solve_s <- t.s_solve_s +. (Unix.gettimeofday () -. t0);
  result_of_errors t

let least t v =
  if not t.solved then ignore (solve t);
  (find v).lo

let greatest t v =
  if not t.solved then ignore (solve t);
  (find v).hi

(* Classification of one coordinate of a variable, per Section 4.4. *)
type verdict =
  | Forced_up    (* least solution already at the coordinate's top: "must be const" *)
  | Forced_down  (* greatest solution at its bottom: "must not be const" *)
  | Free         (* anything in between *)

let classify t v i =
  if not t.solved then ignore (solve t);
  let v = find v in
  (* In the upset encoding a coordinate is at its sub-lattice top when its
     whole bit range is set and at its bottom when the range is clear; for
     a classic two-point qualifier "top" is presence (positive) or absence
     (negative), exactly the historical verdicts. *)
  let m = Elt.singleton_mask t.space i in
  if v.lo land m = m then Forced_up
  else if v.hi land m = 0 then Forced_down
  else Free

let classify_name t v name = classify t v (Space.find t.space name)

let pp_verdict ppf = function
  | Forced_up -> Fmt.string ppf "forced-up"
  | Forced_down -> Fmt.string ppf "forced-down"
  | Free -> Fmt.string ppf "free"

(* ------------------------------------------------------------------ *)
(* Recording and schemes (Section 3.2)                                 *)
(* ------------------------------------------------------------------ *)

(* Run [f], capturing every atom added during its execution (including
   atoms emitted by nested instantiations). Recorders nest. *)
let recording t f =
  let r = ref [] in
  t.recorders <- r :: t.recorders;
  Fun.protect
    ~finally:(fun () ->
      t.recorders <- List.filter (fun r' -> r' != r) t.recorders)
    (fun () ->
      let x = f () in
      (x, List.rev !r))

type scheme = {
  sid : int;
      (* unique scheme identity (atomic counter, globally unique across
         stores); instantiation-memo keys hang off it *)
  locals : var list;
  (* every variable local to the scheme: the generalized interface
     variables plus the existentially bound internals; all are renamed at
     instantiation so instances cannot interfere (Section 3.2) *)
  atoms : atom list;
}

let scheme_counter = Atomic.make 0

let make_scheme ~locals ~atoms =
  { sid = Atomic.fetch_and_add scheme_counter 1; locals; atoms }

let scheme_id s = s.sid
let scheme_locals s = s.locals
let scheme_atoms s = s.atoms

(* Re-emit the scheme's constraints under a fresh renaming of its locals.
   Returns the renaming so callers can rebuild the instantiated type.
   Atoms name original variables, so each instance re-derives its own
   edges (and hence its own unifications) among the fresh copies.

   [?bind] lets a caller resolve some scheme variables to existing
   variables of [t] instead of freshening them: the parallel analysis uses
   it to instantiate a scheme recorded in one store into another, mapping
   the first store's variables to their mirrors without materializing any
   extra copies (which would perturb variable-creation parity with the
   serial run). A bound variable is never freshened; a free variable that
   [bind] does not resolve is used as-is, exactly as before. *)
let instantiate ?bind t s =
  let bound v = match bind with Some f -> f v | None -> None in
  let map = Hashtbl.create (List.length s.locals) in
  List.iter
    (fun v ->
      match bound v with
      | Some v' -> Hashtbl.replace map v.uid v'
      | None -> Hashtbl.replace map v.uid (fresh ~name:v.vname t))
    s.locals;
  let rn v =
    match Hashtbl.find_opt map v.uid with
    | Some v' -> v'
    | None -> ( match bound v with Some v' -> v' | None -> v)
  in
  List.iter
    (function
      | Avc (v, c, mask, reason) -> add_leq_vc ?reason ~mask t (rn v) c
      | Acv (c, v, mask, reason) -> add_leq_cv ?reason ~mask t c (rn v)
      | Avv (a, b, mask, reason) -> add_leq_vv ?reason ~mask t (rn a) (rn b))
    s.atoms;
  rn

(* ------------------------------------------------------------------ *)
(* Batched constraint merge (parallel map-reduce support)              *)
(* ------------------------------------------------------------------ *)

(* A batch is the complete, ordered content of a store: every variable in
   creation order and every atom in insertion order. Exporting a private
   worker store and absorbing it into the shared store replays exactly the
   operations the serial analysis would have performed, so dedup, cycle
   collapse and the final solution are identical. *)
type batch = {
  b_vars : var list;  (* creation order *)
  b_atoms : atom list;  (* insertion order *)
}

let export t = { b_vars = List.rev t.vars; b_atoms = List.rev t.log }

let batch_vars b = List.length b.b_vars
let batch_atoms b = List.length b.b_atoms

(* Replay [b] into [t]. [?bind] resolves batch variables that must map to
   pre-existing variables of [t] (the worker's mirrors of shared globals);
   every other batch variable is re-created fresh, {e in the batch's
   creation order}, so the absorbing store allocates the same number of
   variables in the same sequence as a serial run that had generated the
   batch's constraints directly. Returns the realized renaming. *)
let absorb t ?bind (b : batch) =
  let t0 = Unix.gettimeofday () in
  let bound v = match bind with Some f -> f v | None -> None in
  let map = Hashtbl.create (List.length b.b_vars) in
  List.iter
    (fun v ->
      match bound v with
      | Some g -> Hashtbl.replace map v.uid g
      | None -> Hashtbl.replace map v.uid (fresh ~name:v.vname t))
    b.b_vars;
  let rn v = match Hashtbl.find_opt map v.uid with Some v' -> v' | None -> v in
  List.iter
    (function
      | Avc (v, c, mask, reason) -> add_leq_vc ?reason ~mask t (rn v) c
      | Acv (c, v, mask, reason) -> add_leq_cv ?reason ~mask t c (rn v)
      | Avv (x, y, mask, reason) -> add_leq_vv ?reason ~mask t (rn x) (rn y))
    b.b_atoms;
  t.s_absorb_s <- t.s_absorb_s +. (Unix.gettimeofday () -. t0);
  fun v -> Hashtbl.find_opt map v.uid

(* A batch whose absorb would be a literal no-op: no atoms to replay and
   every variable already bound to a shared-store variable (so no fresh
   variables would be created either). The parallel merge skips these —
   common for leaf-function tasks that touched only pre-mirrored globals —
   without perturbing variable-creation parity with a serial run. *)
let batch_skippable ~bind (b : batch) =
  b.b_atoms = []
  && List.for_all (fun v -> Option.is_some (bind v)) b.b_vars

let pp_atom sp ppf = function
  | Avc (v, c, _, _) -> Fmt.pf ppf "%a <= %a" pp_var v (Elt.pp_full sp) c
  | Acv (c, v, _, _) -> Fmt.pf ppf "%a <= %a" (Elt.pp_full sp) c pp_var v
  | Avv (a, b, _, _) -> Fmt.pf ppf "%a <= %a" pp_var a pp_var b

let pp_error ppf e = Fmt.string ppf e.err_msg
let error_message e = e.err_msg

(* ------------------------------------------------------------------ *)
(* Baseline solvers (ablation; see DESIGN.md)                          *)
(* ------------------------------------------------------------------ *)

(* Forced full worklist least-solution pass (no incrementality), over
   representatives. Kept as a benchmark arm. *)
let solve_least t =
  let sp = t.space in
  let queue = Queue.create () in
  let inq = Hashtbl.create 64 in
  let push v =
    if not (Hashtbl.mem inq v.id) then begin
      Hashtbl.add inq v.id ();
      Queue.push v queue
    end
  in
  List.iter
    (fun v ->
      if v.parent == v then begin
        v.lo <- v.lo_bound;
        push v
      end)
    t.vars;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Hashtbl.remove inq v.id;
    t.s_pops <- t.s_pops + 1;
    List.iter
      (fun (s, mask, _) ->
        let s = find s in
        if s != v then begin
          let contrib = Elt.embed_bottom sp ~mask v.lo in
          let lo' = Elt.join sp s.lo contrib in
          if not (Elt.equal lo' s.lo) then begin
            s.lo <- lo';
            push s
          end
        end)
      v.succs
  done

(* Same least solution computed by round-robin iteration to fixpoint, with
   no worklist. Kept as the ablation baseline for the micro-benchmarks. *)
let solve_least_naive t =
  let sp = t.space in
  List.iter (fun v -> if v.parent == v then v.lo <- v.lo_bound) t.vars;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun v ->
        if v.parent == v then
          List.iter
            (fun (s, mask, _) ->
              let s = find s in
              if s != v then begin
                let contrib = Elt.embed_bottom sp ~mask v.lo in
                let lo' = Elt.join sp s.lo contrib in
                if not (Elt.equal lo' s.lo) then begin
                  s.lo <- lo';
                  changed := true
                end
              end)
            v.succs)
      t.vars
  done

(* ------------------------------------------------------------------ *)
(* Scheme simplification (the open problem of Section 6, basic form)   *)
(* ------------------------------------------------------------------ *)

(* A scheme's meaning is the projection of its solution set onto the
   observable variables (the interface variables of the generalized type
   plus any free variables); the existentially bound internals can be
   eliminated whenever elimination is exact. Over a lattice, a variable v
   with full-mask constraints {a_i <= v, L_i <= v, v <= b_j, v <= U_j} can
   be replaced by the pairwise compositions (take v = the join of its
   lower bounds), which is exact. We apply three passes to a fixed point:

   1. duplicate atoms are dropped;
   2. a non-observable local with no upper (resp. no lower) atoms is
      dropped together with its atoms — they are vacuous;
   3. a non-observable local whose in-degree or out-degree is at most 1
      (so composition does not grow the system) is eliminated by pairwise
      composition.

   Masked atoms (per-coordinate well-formedness conditions) are treated
   conservatively: a variable with any non-full-mask atom is kept. *)

let simplify_scheme t ~(interface : var list) (s : scheme) : scheme =
  let full = Lattice.Elt.full_mask t.space in
  let sp = t.space in
  let local_ids = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.replace local_ids v.id ()) s.locals;
  let observable = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.replace observable v.id ()) interface;
  (* free variables of the scheme are observable too *)
  List.iter
    (fun a ->
      let mark v =
        if not (Hashtbl.mem local_ids v.id) then
          Hashtbl.replace observable v.id ()
      in
      match a with
      | Avc (v, _, _, _) | Acv (_, v, _, _) -> mark v
      | Avv (x, y, _, _) ->
          mark x;
          mark y)
    s.atoms;
  (* dedup *)
  let key = function
    | Avc (v, c, m, _) -> (0, v.id, -1, c, m)
    | Acv (c, v, m, _) -> (1, v.id, -1, c, m)
    | Avv (x, y, m, _) -> (2, x.id, y.id, 0, m)
  in
  let seen = Hashtbl.create 128 in
  let atoms =
    ref
      (List.filter
         (fun a ->
           let k = key a in
           if Hashtbl.mem seen k then false
           else begin
             Hashtbl.add seen k ();
             (* drop trivially vacuous atoms *)
             match a with
             | Avc (_, c, m, _) ->
                 not (Lattice.Elt.leq_masked sp ~mask:m (Lattice.Elt.top sp) c)
             | Acv (c, _, m, _) ->
                 not
                   (Lattice.Elt.leq_masked sp ~mask:m c (Lattice.Elt.bottom sp))
             | Avv (x, y, _, _) -> x.id <> y.id
           end)
         s.atoms)
  in
  let eliminated = Hashtbl.create 32 in
  let changed = ref true in
  let passes = ref 0 in
  while !changed && !passes < 20 do
    changed := false;
    incr passes;
    (* index: per variable, lower-side atoms (x <= v) and upper-side *)
    let lowers = Hashtbl.create 64 and uppers = Hashtbl.create 64 in
    let masked_ok = Hashtbl.create 64 in
    let add tbl id a = Hashtbl.replace tbl id (a :: try Hashtbl.find tbl id with Not_found -> []) in
    List.iter
      (fun a ->
        match a with
        | Avc (v, _, m, _) ->
            add uppers v.id a;
            if m <> full then Hashtbl.replace masked_ok v.id ()
        | Acv (_, v, m, _) ->
            add lowers v.id a;
            if m <> full then Hashtbl.replace masked_ok v.id ()
        | Avv (x, y, m, _) ->
            add uppers x.id a;
            add lowers y.id a;
            if m <> full then begin
              Hashtbl.replace masked_ok x.id ();
              Hashtbl.replace masked_ok y.id ()
            end)
      !atoms;
    let eliminable v =
      Hashtbl.mem local_ids v.id
      && (not (Hashtbl.mem observable v.id))
      && (not (Hashtbl.mem masked_ok v.id))
      && not (Hashtbl.mem eliminated v.id)
    in
    let kill = Hashtbl.create 16 in
    let extra = ref [] in
    List.iter
      (fun v ->
        if eliminable v && not (Hashtbl.mem kill v.id) then begin
          let lo = try Hashtbl.find lowers v.id with Not_found -> [] in
          let up = try Hashtbl.find uppers v.id with Not_found -> [] in
          let nlo = List.length lo and nup = List.length up in
          (* never touch a neighbour killed this pass: a freshly composed
             atom may reference this variable, and deleting or composing
             against the stale pass-start index would resurrect dead
             variables; the next pass sees the rebuilt index *)
          let neighbour_killed =
            List.exists
              (fun a ->
                match a with
                | Avc (v', _, _, _) | Acv (_, v', _, _) ->
                    Hashtbl.mem kill v'.id
                | Avv (x, y, _, _) ->
                    Hashtbl.mem kill x.id || Hashtbl.mem kill y.id)
              (lo @ up)
          in
          if neighbour_killed then ()
          else if nlo = 0 || nup = 0 then begin
            (* vacuous: delete the variable and its atoms *)
            Hashtbl.replace kill v.id ();
            Hashtbl.replace eliminated v.id ();
            changed := true
          end
          else if nlo <= 1 || nup <= 1 then begin
            (* exact pairwise composition *)
            let ok = ref true in
            let comps = ref [] in
            List.iter
              (fun la ->
                List.iter
                  (fun ua ->
                    match (la, ua) with
                    | Acv (c, _, _, r), Avc (_, c', _, r') ->
                        if Lattice.Elt.leq sp c c' then ()
                        else (
                          ignore (r, r');
                          ok := false)
                    | Acv (c, _, _, r), Avv (_, y, _, _) ->
                        comps := Acv (c, y, full, r) :: !comps
                    | Avv (x, _, _, r), Avc (_, c', _, _) ->
                        comps := Avc (x, c', full, r) :: !comps
                    | Avv (x, _, _, r), Avv (_, y, _, _) ->
                        if x.id <> y.id then comps := Avv (x, y, full, r) :: !comps
                    | _ -> ok := false)
                  up)
              lo;
            if !ok then begin
              Hashtbl.replace kill v.id ();
              Hashtbl.replace eliminated v.id ();
              extra := !comps @ !extra;
              changed := true
            end
          end
        end)
      s.locals;
    if !changed then begin
      let touches id = Hashtbl.mem kill id in
      atoms :=
        List.filter
          (fun a ->
            match a with
            | Avc (v, _, _, _) | Acv (_, v, _, _) -> not (touches v.id)
            | Avv (x, y, _, _) -> not (touches x.id || touches y.id))
          !atoms
        @ !extra
    end
  done;
  let locals =
    List.filter (fun v -> not (Hashtbl.mem eliminated v.id)) s.locals
  in
  make_scheme ~locals ~atoms:!atoms

let scheme_size s = List.length s.atoms

(* ------------------------------------------------------------------ *)
(* Scheme compaction (exact projection onto the interface)             *)
(* ------------------------------------------------------------------ *)

(* [compact t ~interface s] projects the scheme's constraint set onto its
   observable variables: the [interface] list (the qualifier variables
   reachable from the generalized qualified type) plus every free variable
   mentioned by an atom. The result is observationally equivalent — not a
   heuristic: instantiating the compacted scheme yields exactly the same
   least and greatest solutions on the interface and free variables, and
   the same bound violations, as instantiating the original.

   The pass (iterated to a fixed point):

   - duplicate and vacuous atoms are dropped (a self-edge [v <= v on m]
     contributes [embed_bottom m lo(v) <= lo(v)] and dually — a no-op);
   - a purely internal variable [v] is eliminated by composing each of its
     lower atoms with each of its upper edges. Masked atoms compose
     exactly: [embed_bottom m2 (embed_bottom m1 x) = embed_bottom (m1&m2) x]
     (dually for [embed_top]), so [c <= v on mc, v <= s on ms] becomes
     [embed_bottom mc c <= s on ms] and [p <= v on mp, v <= s on ms]
     becomes [p <= s on mp&ms];
   - elimination requires that dropping [v]'s own constant upper bounds
     cannot hide a violation: [v] must have no upper-bound atoms at all,
     or no predecessor edges and constant bounds that already satisfy
     [join(lowers) <= meet(uppers)] (its least solution is then exactly
     the join of its constant lower bounds, so the check is decided at
     compaction time once and for all instances). Inconsistently bounded
     internals are kept, preserving the error report;
   - a growth cap keeps composition from densifying the graph: [v] is
     eliminated only if the composed atoms do not outnumber the removed
     ones (plus slack 2); iteration can unlock such variables later.

   Unification with (or among) interface variables needs no special case:
   full-mask cycles survive as composed edge chains, which the store
   re-collapses at instantiation.

   Determinism matters downstream (parallel workers must publish the same
   scheme the serial run builds): the pass never consults representatives
   ([find]) or iterates a hashtable for output; surviving atoms keep their
   original order, composed atoms append in generation order, and the
   local list keeps its original order filtered to interface members and
   variables still mentioned. *)
let compact t ~(interface : var list) (s : scheme) : scheme =
  let sp = t.space in
  t.s_sv_before <- t.s_sv_before + List.length s.locals;
  t.s_se_before <- t.s_se_before + List.length s.atoms;
  let local_uids = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.replace local_uids v.uid ()) s.locals;
  let iface = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.replace iface v.uid ()) interface;
  (* dedup + vacuous-drop filter; [seen] persists across passes: a key can
     only name a removed atom if one of its endpoints was eliminated, and
     composition never reproduces atoms on eliminated endpoints *)
  let seen = Hashtbl.create 128 in
  let vacuous = function
    | Avc (_, c, m, _) -> Elt.leq_masked sp ~mask:m (Elt.top sp) c
    | Acv (c, _, m, _) -> Elt.leq_masked sp ~mask:m c (Elt.bottom sp)
    | Avv (x, y, m, _) -> x.uid = y.uid || m land Elt.full_mask sp = 0
  in
  let key = function
    | Avc (v, c, m, _) -> (0, v.uid, -1, (c : Elt.t), m)
    | Acv (c, v, m, _) -> (1, v.uid, -1, c, m)
    | Avv (x, y, m, _) -> (2, x.uid, y.uid, 0, m)
  in
  let fresh_atom a =
    (not (vacuous a))
    &&
    let k = key a in
    if Hashtbl.mem seen k then false
    else begin
      Hashtbl.add seen k ();
      true
    end
  in
  let atoms = ref (List.filter fresh_atom s.atoms) in
  let eliminated = Hashtbl.create 32 in
  let changed = ref true in
  let passes = ref 0 in
  while !changed && !passes < 64 do
    changed := false;
    incr passes;
    let lowers = Hashtbl.create 64 and uppers = Hashtbl.create 64 in
    let add tbl uid a =
      Hashtbl.replace tbl uid
        (a :: (try Hashtbl.find tbl uid with Not_found -> []))
    in
    List.iter
      (fun a ->
        match a with
        | Avc (v, _, _, _) -> add uppers v.uid a
        | Acv (_, v, _, _) -> add lowers v.uid a
        | Avv (x, y, _, _) ->
            add uppers x.uid a;
            add lowers y.uid a)
      !atoms;
    let kill = Hashtbl.create 16 in
    let extra = ref [] in
    List.iter
      (fun v ->
        if
          Hashtbl.mem local_uids v.uid
          && (not (Hashtbl.mem iface v.uid))
          && (not (Hashtbl.mem eliminated v.uid))
          && not (Hashtbl.mem kill v.uid)
        then begin
          let lo = try Hashtbl.find lowers v.uid with Not_found -> [] in
          let up = try Hashtbl.find uppers v.uid with Not_found -> [] in
          (* never compose against a neighbour killed this pass: the
             pass-start index would resurrect its atoms; the next pass
             sees the rebuilt index *)
          let neighbour_killed =
            List.exists
              (fun a ->
                match a with
                | Avc (x, _, _, _) | Acv (_, x, _, _) -> Hashtbl.mem kill x.uid
                | Avv (x, y, _, _) ->
                    Hashtbl.mem kill x.uid || Hashtbl.mem kill y.uid)
              (lo @ up)
          in
          if not neighbour_killed then begin
            let acvs =
              List.filter_map
                (function Acv (c, _, m, r) -> Some (c, m, r) | _ -> None)
                lo
            in
            let preds =
              List.filter_map
                (function Avv (p, _, m, r) -> Some (p, m, r) | _ -> None)
                lo
            in
            let avcs =
              List.filter_map
                (function Avc (_, c, m, r) -> Some (c, m, r) | _ -> None)
                up
            in
            let succs =
              List.filter_map
                (function Avv (_, s, m, r) -> Some (s, m, r) | _ -> None)
                up
            in
            let eliminable =
              match avcs with
              | [] -> true
              | _ :: _ ->
                  preds = []
                  &&
                  let lo_const =
                    List.fold_left
                      (fun acc (c, m, _) ->
                        Elt.join sp acc (Elt.embed_bottom sp ~mask:m c))
                      (Elt.bottom sp) acvs
                  in
                  let hi_const =
                    List.fold_left
                      (fun acc (c, m, _) ->
                        Elt.meet sp acc (Elt.embed_top sp ~mask:m c))
                      (Elt.top sp) avcs
                  in
                  Elt.leq sp lo_const hi_const
            in
            let nlo = List.length acvs + List.length preds in
            let nup = List.length avcs + List.length succs in
            let ncomposed = nlo * List.length succs in
            if eliminable && ncomposed <= nlo + nup + 2 then begin
              Hashtbl.replace kill v.uid ();
              Hashtbl.replace eliminated v.uid ();
              changed := true;
              List.iter
                (fun (sv, ms, rs) ->
                  List.iter
                    (fun (c, mc, _) ->
                      extra :=
                        Acv (Elt.embed_bottom sp ~mask:mc c, sv, ms, rs)
                        :: !extra)
                    acvs;
                  List.iter
                    (fun (p, mp, _) ->
                      extra := Avv (p, sv, mp land ms, rs) :: !extra)
                    preds)
                succs
            end
          end
        end)
      s.locals;
    if !changed then begin
      let touches uid = Hashtbl.mem kill uid in
      let kept =
        List.filter
          (fun a ->
            match a with
            | Avc (v, _, _, _) | Acv (_, v, _, _) -> not (touches v.uid)
            | Avv (x, y, _, _) -> not (touches x.uid || touches y.uid))
          !atoms
      in
      atoms := kept @ List.filter fresh_atom (List.rev !extra)
    end
  done;
  let mentioned = Hashtbl.create 64 in
  List.iter
    (fun a ->
      let mark v = Hashtbl.replace mentioned v.uid () in
      match a with
      | Avc (v, _, _, _) | Acv (_, v, _, _) -> mark v
      | Avv (x, y, _, _) ->
          mark x;
          mark y)
    !atoms;
  (* interface variables stay local even when unconstrained: they occur in
     the generalized type and must still be freshened per instance *)
  let locals =
    List.filter
      (fun v -> Hashtbl.mem iface v.uid || Hashtbl.mem mentioned v.uid)
      s.locals
  in
  t.s_sv_after <- t.s_sv_after + List.length locals;
  t.s_se_after <- t.s_se_after + List.length !atoms;
  make_scheme ~locals ~atoms:!atoms

(* Can this scheme's constraints, alone, ever produce a bound violation in
   an instance — under the most pessimistic assumption about inflow from
   the outside? Free variables and [exposed] locals (the interface, which
   receives call-site inflow not part of the scheme) are pinned to top;
   least solutions propagate from there over the scheme's edges; every
   local must still satisfy its own constant upper bounds. A [true] answer
   licenses sharing one instantiation between call sites: the shared copy
   cannot under-report errors, because it can produce none. *)
let atoms_never_violate sp ~(locals : var list) ~(exposed : var list)
    (atoms : atom list) : bool =
  let local_uids = Hashtbl.create 32 in
  List.iter (fun v -> Hashtbl.replace local_uids v.uid ()) locals;
  let pinned = Hashtbl.create 32 in
  List.iter (fun v -> Hashtbl.replace pinned v.uid ()) exposed;
  let is_pinned v =
    (not (Hashtbl.mem local_uids v.uid)) || Hashtbl.mem pinned v.uid
  in
  let bot = Elt.bottom sp and top = Elt.top sp in
  let lo = Hashtbl.create 32 and hib = Hashtbl.create 32 in
  let get tbl dflt uid = try Hashtbl.find tbl uid with Not_found -> dflt in
  let lo_of v = if is_pinned v then top else get lo bot v.uid in
  let edges = ref [] in
  List.iter
    (function
      | Acv (c, v, m, _) ->
          if not (is_pinned v) then
            Hashtbl.replace lo v.uid
              (Elt.join sp (get lo bot v.uid) (Elt.embed_bottom sp ~mask:m c))
      | Avc (v, c, m, _) ->
          if Hashtbl.mem local_uids v.uid then
            Hashtbl.replace hib v.uid
              (Elt.meet sp (get hib top v.uid) (Elt.embed_top sp ~mask:m c))
      | Avv (x, y, m, _) -> edges := (x, y, m) :: !edges)
    atoms;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (x, y, m) ->
        if not (is_pinned y) then begin
          let contrib = Elt.embed_bottom sp ~mask:m (lo_of x) in
          let lo' = Elt.join sp (get lo bot y.uid) contrib in
          if not (Elt.equal lo' (get lo bot y.uid)) then begin
            Hashtbl.replace lo y.uid lo';
            changed := true
          end
        end)
      !edges
  done;
  List.for_all (fun v -> Elt.leq sp (lo_of v) (get hib top v.uid)) locals

(* ------------------------------------------------------------------ *)
(* Standalone evaluation of an atom list                               *)
(* ------------------------------------------------------------------ *)

(* Least/greatest solutions of a bare atom list, computed with local
   tables and without touching any store or variable record. Variables not
   mentioned default to (bottom, top). Used to summarize schemes in
   isolation (polymorphic recursion's convergence test). *)
let solve_atoms sp (atoms : atom list) : int -> Elt.t * Elt.t =
  let lo = Hashtbl.create 64 and hi = Hashtbl.create 64 in
  let get tbl dflt id = try Hashtbl.find tbl id with Not_found -> dflt in
  let bot = Elt.bottom sp and top = Elt.top sp in
  let edges = ref [] in
  List.iter
    (function
      | Acv (c, v, m, _) ->
          Hashtbl.replace lo v.id
            (Elt.join sp (get lo bot v.id) (Elt.embed_bottom sp ~mask:m c))
      | Avc (v, c, m, _) ->
          Hashtbl.replace hi v.id
            (Elt.meet sp (get hi top v.id) (Elt.embed_top sp ~mask:m c))
      | Avv (x, y, m, _) -> edges := (x.id, y.id, m) :: !edges)
    atoms;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (x, y, m) ->
        (* forward: lo flows x -> y *)
        let contrib = Elt.embed_bottom sp ~mask:m (get lo bot x) in
        let lo' = Elt.join sp (get lo bot y) contrib in
        if not (Elt.equal lo' (get lo bot y)) then begin
          Hashtbl.replace lo y lo';
          changed := true
        end;
        (* backward: hi flows y -> x *)
        let contrib = Elt.embed_top sp ~mask:m (get hi top y) in
        let hi' = Elt.meet sp (get hi top x) contrib in
        if not (Elt.equal hi' (get hi top x)) then begin
          Hashtbl.replace hi x hi';
          changed := true
        end)
      !edges
  done;
  fun id -> (get lo bot id, get hi top id)

(* Replay the full constraint log through the store-free evaluator: an
   independent oracle for the optimized solver, keyed by original (stable)
   variable ids. Used by the equivalence property tests. *)
let naive_bounds t = solve_atoms t.space (List.rev t.log)

(* Present a scheme as a constrained type qualifier prefix — the notation
   question raised in Section 6 ("we currently do not have a notation for
   specifying constraints in the source language"). Combine with
   [simplify_scheme] for readable output. *)
let pp_scheme space ppf (s : scheme) =
  Fmt.pf ppf "∀%a. {%a}"
    (Fmt.list ~sep:(Fmt.any " ") pp_var)
    s.locals
    (Fmt.list ~sep:(Fmt.any ", ") (pp_atom space))
    s.atoms
