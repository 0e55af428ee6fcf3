(** Atomic qualifier-constraint solver (Sections 3.1–3.2 of the paper) —
    flat-arena implementation.

    The constraint system and algorithms: masked atomic constraints
    over a Birkhoff-encoded lattice, union-find with partial online cycle
    elimination, insertion-time edge/bound dedup, incremental worklist
    solving with a monotone error table, and recorded constraint schemes
    with renaming instantiation.

    The {e representation} (DESIGN.md, "Flat-arena solver"):

    - Variable state (union-find parent/rank, constant bounds, current
      least/greatest solution, adjacency heads) lives in dense [int]
      columns indexed by the creation-order id. A [var] handle is a tiny
      immutable record — id, name, uid, store back-pointer — shared with
      atoms, schemes and error values, so the public interface is
      unchanged.
    - Adjacency is a linked {e edge arena}: per logical edge one succ cell
      and one pred cell in the packed [ecells] arena, chained by the
      cell's next slot with
      prepend-to-head insertion, so enumeration order matches the old
      list-prepend order cell for cell. Cycle collapse relinks cells
      between chains without allocating.
    - The [(src, dst, mask)] edge-dedup and [(rep, const, mask, side)]
      bound-dedup tables are open-addressing int-keyed hash sets
      ([Iset]) — no tuple allocation, no polymorphic hashing.
    - The propagation worklist is an int ring buffer with a byte-array
      in-queue mark; the dirty set is an insertion-ordered int stack with
      a byte-array membership mark.

    Solutions are checked against their definition: the property tests
    re-solve the store's atom log with the store-free {!solve_atoms} and
    compare. Every order below (worklist seeds, violation checks, edge
    enumeration) is deterministic, so the counters and error messages
    are too: test_arena pins their digests on a fixed op stream, the
    [solver] bench pins its counters, and CI diffs [--stats] against the
    base branch. *)

module Elt = Lattice.Elt
module Space = Lattice.Space

type reason = string option

(* ------------------------------------------------------------------ *)
(* Open-addressing int-keyed hash set (4-int keys)                     *)
(* ------------------------------------------------------------------ *)

(* The dedup tables: linear probing over a power-of-two table, keys
   stored inline in a flat [int array] (4 slots per entry), occupancy in
   a byte array. Deterministic by construction (the hash mixes the key
   ints only), so dedup decisions — which feed the [edges_deduped]
   counter — are reproducible across runs. *)
module Iset = struct
  type t = {
    mutable keys : int array;  (* 4 * cap *)
    mutable state : Bytes.t;   (* cap bytes; '\001' = occupied *)
    mutable vals : int array;
        (* per slot, packed: a client value above bit 31 (the store keeps
           the log index of the atom holding the key there), and below it
           how many insertions named the key (the store's refcount of the
           atoms holding it) *)
    mutable cap : int;         (* power of two *)
    mutable count : int;
    mutable last : int;  (* the slot [mem_add] last hit or filled *)
  }

  let create ?(cap = 64) () =
    { keys = Array.make (4 * cap) 0; state = Bytes.make cap '\000';
      vals = Array.make cap 0; cap; count = 0;
      last = -1 }

  let hash a b c d =
    ((a * 0x9E3779B1) lxor (b * 0x85EBCA77) lxor (c * 0xC2B2AE35)
     lxor (d * 0x27D4EB2F))
    land max_int

  (* the slot holding the key, or the empty slot that ends its probe run *)
  let probe s a b c d =
    let m = s.cap - 1 in
    let i = ref (hash a b c d land m) in
    let r = ref (-1) in
    while !r < 0 do
      let j = !i in
      let k = 4 * j in
      if
        Bytes.unsafe_get s.state j = '\000'
        || Array.unsafe_get s.keys k = a
           && Array.unsafe_get s.keys (k + 1) = b
           && Array.unsafe_get s.keys (k + 2) = c
           && Array.unsafe_get s.keys (k + 3) = d
      then r := j
      else i := (j + 1) land m
    done;
    !r

  let fill s j a b c d =
    Bytes.unsafe_set s.state j '\001';
    let k = 4 * j in
    Array.unsafe_set s.keys k a;
    Array.unsafe_set s.keys (k + 1) b;
    Array.unsafe_set s.keys (k + 2) c;
    Array.unsafe_set s.keys (k + 3) d

  let grow s =
    let ocap = s.cap and okeys = s.keys and ostate = s.state in
    let ovals = s.vals in
    s.cap <- s.cap * 2;
    s.keys <- Array.make (4 * s.cap) 0;
    s.state <- Bytes.make s.cap '\000';
    s.vals <- Array.make s.cap 0;
    for j = 0 to ocap - 1 do
      if Bytes.unsafe_get ostate j = '\001' then begin
        let k = 4 * j in
        let a = okeys.(k) and b = okeys.(k + 1) and c = okeys.(k + 2)
        and d = okeys.(k + 3) in
        let j' = probe s a b c d in
        fill s j' a b c d;
        s.vals.(j') <- ovals.(j)
      end
    done

  (* membership test that inserts on miss; returns [true] iff the key was
     already present. Either way the key's count goes up by one and
     [last] names its slot. *)
  let mem_add s a b c d =
    if 2 * s.count >= s.cap then grow s;
    let j = probe s a b c d in
    s.last <- j;
    if Bytes.unsafe_get s.state j = '\001' then begin
      Array.unsafe_set s.vals j (Array.unsafe_get s.vals j + 1);
      true
    end
    else begin
      fill s j a b c d;
      s.vals.(j) <- 1;
      s.count <- s.count + 1;
      false
    end

  (* the key's slot, or -1 *)
  let find s a b c d =
    let j = probe s a b c d in
    if Bytes.unsafe_get s.state j = '\001' then j else -1

  (* delete the entry in slot [j], shifting later entries of its probe run
     back so that every remaining key stays reachable *)
  let remove_slot s j =
    let m = s.cap - 1 in
    Bytes.unsafe_set s.state j '\000';
    s.count <- s.count - 1;
    let hole = ref j and k = ref ((j + 1) land m) in
    while Bytes.unsafe_get s.state !k = '\001' do
      let b = 4 * !k in
      let h =
        hash s.keys.(b) s.keys.(b + 1) s.keys.(b + 2) s.keys.(b + 3) land m
      in
      (* the entry may fill the hole unless its home lies cyclically in
         (hole, k] *)
      let stays =
        if !hole <= !k then h > !hole && h <= !k else h > !hole || h <= !k
      in
      if not stays then begin
        fill s !hole s.keys.(b) s.keys.(b + 1) s.keys.(b + 2) s.keys.(b + 3);
        s.vals.(!hole) <- s.vals.(!k);
        Bytes.unsafe_set s.state !k '\000';
        hole := !k
      end;
      k := (!k + 1) land m
    done

  let clear s =
    Bytes.fill s.state 0 s.cap '\000';
    s.count <- 0

  (* the packed [vals] fields *)
  let low = (1 lsl 31) - 1
  let count_at s j = s.vals.(j) land low
  let set_count s j c = s.vals.(j) <- s.vals.(j) land lnot low lor c
  let owner s j = (s.vals.(j) lsr 31) - 1
  let set_owner s j o = s.vals.(j) <- ((o + 1) lsl 31) lor (s.vals.(j) land low)
end

(* ------------------------------------------------------------------ *)
(* Store layout                                                        *)
(* ------------------------------------------------------------------ *)

type var = {
  id : int;  (* stable creation-order id; the arena index *)
  vname : string;
  uid : int;
      (* globally unique across stores (atomic counter); renaming maps
         that can mix variables of two stores key on it *)
  store : t;  (* back-pointer: lets [repr] resolve without a store arg *)
}

and t = {
  sp : Space.t;
  mutable nvars : int;
  (* variable columns, indexed by id; grown together *)
  mutable objs : var array;  (* id -> the (unique) handle *)
  mutable parent : int array;  (* union-find: self iff representative *)
  mutable rank : int array;
  mutable lo_bound : int array;  (* join of constant lower bounds *)
  mutable hi_bound : int array;  (* meet of constant upper bounds *)
  mutable lo : int array;  (* least solution, valid after [solve] *)
  mutable hi : int array;  (* greatest solution *)
  mutable succ_head : int array;  (* head cell of the succ chain, -1 end *)
  mutable pred_head : int array;
  mutable lo_reasons : (Elt.t * int * reason) list array;
      (* provenance: one entry per distinct constant bound *)
  mutable hi_reasons : (Elt.t * int * reason) list array;
  (* edge arena: one cell per chain entry (two per logical edge) *)
  mutable ecells : int array;
      (* 3 ints per cell, adjacent: dst, mask, next — one cache line per
         traversal step, the reason the chains beat pointer-chased lists *)
  mutable e_reason : reason array;
  mutable necells : int;
  (* the atom log, insertion order *)
  mutable log : atom array;
  mutable nlog : int;
  mutable ord : int array;
      (* per log entry: its rank in the client's task order, which is the
         order a cold store would have received it (see {!retract}); -1
         once deleted. Entries past its end rank as their log index: a
         store no retraction has touched needs no column. *)
  mutable live_slices : (int * int) list;
      (* the live atoms below [fresh_from], as log slices in task order *)
  mutable fresh_from : int;
      (* log entries from here on were added since the last {!checkpoint} *)
  mutable fresh_var0 : int;  (* variables from here on likewise *)
  mutable chk_unified : int;  (* [s_unified] at the checkpoint *)
  mutable chk_cycles : int;  (* [s_cycles] at the checkpoint *)
  dfs_rec : (int, int list) Hashtbl.t;
      (* variable -> the log indices of the atoms whose cycle search read
         its succ chain and was cut short or closed a cycle (rare: four
         searches of 17 k on midi-project-sim) *)
  mutable fp_buf : int array;  (* the variables the current search read *)
  mutable nfp : int;
  mutable fresh_hazards : (int * int array) list;
      (* the cycle searches since the checkpoint that were cut short or
         closed a cycle: trigger and the variables whose chains it read *)
  mutable ground_errors : error list;
  errors : (int, error) Hashtbl.t;
      (* persistent bound-violation table, keyed by the representative id
         at detection time; monotone since constraints are only added *)
  mutable recorders : atom list ref list;
  mutable solved : bool;
  (* dirty set: insertion-ordered stack + membership mark. Removal clears
     the mark and leaves a stale stack entry; re-marking pushes again —
     seeding filters on the mark, so semantics match a Hashtbl dirty set
     with a separate insertion-order list. *)
  mutable dirty_stack : int array;
  mutable ndirty : int;
  mutable dirty_mark : Bytes.t;
  (* propagation worklist: int ring buffer with monotonic head/tail over
     a power-of-two array, plus an in-queue byte mark *)
  mutable wl : int array;
  mutable wl_head : int;
  mutable wl_tail : int;
  mutable inq : Bytes.t;
  (* representatives popped by the last propagate, in pop order *)
  mutable touched : int array;
  mutable ntouched : int;
  mutable fp_stamp : int array;
      (* generation-stamped seen-set for the cycle-detection DFS: a slot
         equal to [fp_gen] means visited this call — no per-call allocation *)
  mutable fp_gen : int;
  edge_seen : Iset.t;  (* (src, dst, mask, 0) *)
  bound_seen : Iset.t;
      (* ((rep << 1) | is_upper, const, mask, 0): constant bounds already
         applied to a representative *)
  cycle_elim : bool;
  mutable budget : Budget.t option;
  mutable s_unified : int;
  mutable s_edges : int;
  mutable s_dedup : int;
  mutable s_cycles : int;
  mutable s_incr : int;
  mutable s_full : int;
  mutable s_pops : int;
  mutable s_solve_s : float;
  (* per-phase wall time, accumulated here so one record travels with the
     store: compact/instantiate are credited by this module, the analysis
     phases (congen/generalize/report) by the client via [note_phase] *)
  mutable s_congen_s : float;
  mutable s_generalize_s : float;
  mutable s_compact_s : float;
  mutable s_instantiate_s : float;
  mutable s_report_s : float;
  mutable s_sv_before : int;
  mutable s_sv_after : int;
  mutable s_se_before : int;
  mutable s_se_after : int;
  mutable s_memo_hits : int;
  (* why instantiation-memo candidates were rejected (or missed): the
     counters that keep the memo from silently going dead again *)
  mutable s_memo_cands : int;
  mutable s_memo_nonflat : int;
  mutable s_memo_violate : int;
  mutable s_memo_misses : int;
  mutable s_vars_base : int;
      (* [nvars] when the counters were last reset: [vars_created] counts
         the variables created since *)
}

and atom =
  | Avc of var * Elt.t * int * reason  (* var <= const on mask *)
  | Acv of Elt.t * var * int * reason  (* const <= var on mask *)
  | Avv of var * var * int * reason    (* var <= var on mask *)

and error = {
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
  congen_s : float;
  generalize_s : float;
  compact_s : float;
  instantiate_s : float;
  report_s : float;
  scheme_vars_before : int;
  scheme_vars_after : int;
  scheme_edges_before : int;
  scheme_edges_after : int;
  instantiations_memo_hits : int;
  memo_candidates : int;
  memo_reject_nonflat_ret : int;
  memo_reject_may_violate : int;
  memo_misses : int;
  heap_words : int;
  top_heap_words : int;
  cores_available : int;
}

let create ?(cycle_elim = true) space =
  {
    sp = space;
    nvars = 0;
    objs = [||];
    parent = [||];
    rank = [||];
    lo_bound = [||];
    hi_bound = [||];
    lo = [||];
    hi = [||];
    succ_head = [||];
    pred_head = [||];
    lo_reasons = [||];
    hi_reasons = [||];
    ecells = [||];
    e_reason = [||];
    necells = 0;
    log = [||];
    nlog = 0;
    ord = [||];
    live_slices = [];
    fresh_from = 0;
    fresh_var0 = 0;
    chk_unified = 0;
    chk_cycles = 0;
    dfs_rec = Hashtbl.create 16;
    fp_buf = Array.make 64 0;
    nfp = 0;
    fresh_hazards = [];
    ground_errors = [];
    errors = Hashtbl.create 16;
    recorders = [];
    solved = false;
    dirty_stack = Array.make 64 0;
    ndirty = 0;
    dirty_mark = Bytes.create 0;
    wl = Array.make 64 0;
    wl_head = 0;
    wl_tail = 0;
    inq = Bytes.create 0;
    touched = Array.make 64 0;
    fp_stamp = [||];
    fp_gen = 0;
    ntouched = 0;
    edge_seen = Iset.create ~cap:256 ();
    bound_seen = Iset.create ~cap:256 ();
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
    s_congen_s = 0.;
    s_generalize_s = 0.;
    s_compact_s = 0.;
    s_instantiate_s = 0.;
    s_report_s = 0.;
    s_sv_before = 0;
    s_sv_after = 0;
    s_se_before = 0;
    s_se_after = 0;
    s_memo_hits = 0;
    s_memo_cands = 0;
    s_memo_nonflat = 0;
    s_memo_violate = 0;
    s_memo_misses = 0;
    s_vars_base = 0;
  }

let space t = t.sp
let num_vars t = t.nvars
let set_budget t b = t.budget <- b

let budget_tripped t =
  match t.budget with Some b -> Budget.is_exhausted b | None -> false

let stats t =
  {
    vars_created = t.nvars - t.s_vars_base;
    vars_unified = t.s_unified;
    edges_added = t.s_edges;
    edges_deduped = t.s_dedup;
    cycles_collapsed = t.s_cycles;
    incr_solves = t.s_incr;
    full_solves = t.s_full;
    worklist_pops = t.s_pops;
    solve_s = t.s_solve_s;
    congen_s = t.s_congen_s;
    generalize_s = t.s_generalize_s;
    compact_s = t.s_compact_s;
    instantiate_s = t.s_instantiate_s;
    report_s = t.s_report_s;
    scheme_vars_before = t.s_sv_before;
    scheme_vars_after = t.s_sv_after;
    scheme_edges_before = t.s_se_before;
    scheme_edges_after = t.s_se_after;
    instantiations_memo_hits = t.s_memo_hits;
    memo_candidates = t.s_memo_cands;
    memo_reject_nonflat_ret = t.s_memo_nonflat;
    memo_reject_may_violate = t.s_memo_violate;
    memo_misses = t.s_memo_misses;
    heap_words = (Gc.quick_stat ()).Gc.heap_words;
    top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
    cores_available = Domain.recommended_domain_count ();
  }

let note_memo_hit t = t.s_memo_hits <- t.s_memo_hits + 1
let note_memo_candidate t = t.s_memo_cands <- t.s_memo_cands + 1
let note_memo_reject_nonflat_ret t = t.s_memo_nonflat <- t.s_memo_nonflat + 1

let note_memo_reject_may_violate t =
  t.s_memo_violate <- t.s_memo_violate + 1

let note_memo_miss t = t.s_memo_misses <- t.s_memo_misses + 1

let reset_stats t =
  t.s_vars_base <- t.nvars;
  t.s_incr <- 0;
  t.s_full <- 0;
  t.s_pops <- 0;
  t.s_solve_s <- 0.;
  t.s_congen_s <- 0.;
  t.s_generalize_s <- 0.;
  t.s_compact_s <- 0.;
  t.s_instantiate_s <- 0.;
  t.s_report_s <- 0.;
  t.s_sv_before <- 0;
  t.s_sv_after <- 0;
  t.s_se_before <- 0;
  t.s_se_after <- 0;
  t.s_memo_hits <- 0;
  t.s_memo_cands <- 0;
  t.s_memo_nonflat <- 0;
  t.s_memo_violate <- 0;
  t.s_memo_misses <- 0

type phase = Congen | Generalize | Compact | Instantiate | Report

let note_phase t p dt =
  match p with
  | Congen -> t.s_congen_s <- t.s_congen_s +. dt
  | Generalize -> t.s_generalize_s <- t.s_generalize_s +. dt
  | Compact -> t.s_compact_s <- t.s_compact_s +. dt
  | Instantiate -> t.s_instantiate_s <- t.s_instantiate_s +. dt
  | Report -> t.s_report_s <- t.s_report_s +. dt

let phase_seconds t = function
  | Congen -> t.s_congen_s
  | Generalize -> t.s_generalize_s
  | Compact -> t.s_compact_s
  | Instantiate -> t.s_instantiate_s
  | Report -> t.s_report_s

let pp_stats ppf s =
  Fmt.pf ppf
    "vars %d (%d unified), edges %d (%d deduped), cycles %d, solves %d incr + \
     %d full, %d worklist pops, %.3fs solving; compaction: scheme vars %d \
     -> %d, scheme atoms %d -> %d, %d memoized instantiations"
    s.vars_created s.vars_unified s.edges_added s.edges_deduped
    s.cycles_collapsed s.incr_solves s.full_solves s.worklist_pops s.solve_s
    s.scheme_vars_before s.scheme_vars_after s.scheme_edges_before
    s.scheme_edges_after s.instantiations_memo_hits;
  Fmt.pf ppf
    "; memo: %d candidates, %d misses, %d nonflat-ret, %d may-violate"
    s.memo_candidates s.memo_misses s.memo_reject_nonflat_ret
    s.memo_reject_may_violate;
  Fmt.pf ppf
    "; phases: congen %.3fs generalize %.3fs compact %.3fs instantiate \
     %.3fs report %.3fs"
    s.congen_s s.generalize_s s.compact_s s.instantiate_s s.report_s;
  Fmt.pf ppf "; heap %d words (peak %d), %d cores" s.heap_words
    s.top_heap_words s.cores_available

(* ------------------------------------------------------------------ *)
(* Arena growth and variable creation                                  *)
(* ------------------------------------------------------------------ *)

let grow_int a cap' =
  let b = Array.make cap' 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_bytes a cap' =
  let b = Bytes.make cap' '\000' in
  Bytes.blit a 0 b 0 (Bytes.length a);
  b

(* grow every per-variable column to hold id [t.nvars]; [v] supplies the
   fill value for [objs] (an empty store has no var to fabricate one) *)
let ensure_var_capacity t v =
  let cap = Array.length t.parent in
  if t.nvars >= cap then begin
    let cap' = if cap = 0 then 64 else cap * 2 in
    t.parent <- grow_int t.parent cap';
    t.rank <- grow_int t.rank cap';
    t.lo_bound <- grow_int t.lo_bound cap';
    t.hi_bound <- grow_int t.hi_bound cap';
    t.lo <- grow_int t.lo cap';
    t.hi <- grow_int t.hi cap';
    t.succ_head <- grow_int t.succ_head cap';
    t.pred_head <- grow_int t.pred_head cap';
    (let b = Array.make cap' v in
     Array.blit t.objs 0 b 0 cap;
     t.objs <- b);
    (let b = Array.make cap' [] in
     Array.blit t.lo_reasons 0 b 0 cap;
     t.lo_reasons <- b);
    (let b = Array.make cap' [] in
     Array.blit t.hi_reasons 0 b 0 cap;
     t.hi_reasons <- b);

    t.dirty_mark <- grow_bytes t.dirty_mark cap';
    t.inq <- grow_bytes t.inq cap';
    t.fp_stamp <- grow_int t.fp_stamp cap'
  end

let ensure_edge_capacity t =
  let cap = Array.length t.e_reason in
  if t.necells >= cap then begin
    let cap' = if cap = 0 then 256 else cap * 2 in
    t.ecells <- grow_int t.ecells (3 * cap');
    let b = Array.make cap' None in
    Array.blit t.e_reason 0 b 0 cap;
    t.e_reason <- b
  end

let uid_counter = Atomic.make 0

let fresh ?(name = "q") t =
  let id = t.nvars in
  let v =
    { id; vname = name; uid = Atomic.fetch_and_add uid_counter 1; store = t }
  in
  ensure_var_capacity t v;
  t.objs.(id) <- v;
  t.parent.(id) <- id;
  t.rank.(id) <- 0;
  t.lo_bound.(id) <- Elt.bottom t.sp;
  t.hi_bound.(id) <- Elt.top t.sp;
  t.lo.(id) <- Elt.bottom t.sp;
  t.hi.(id) <- Elt.top t.sp;
  t.succ_head.(id) <- -1;
  t.pred_head.(id) <- -1;
  t.lo_reasons.(id) <- [];
  t.hi_reasons.(id) <- [];
  t.nvars <- id + 1;
  Option.iter Budget.note_var t.budget;
  (* a fresh variable has no constraints: its current (lo, hi) is already
     its solution, so [solved] and the dirty set are untouched *)
  v

let var_id v = v.id
let var_of_id t i = t.objs.(i)
let var_uid v = v.uid
let var_name v = v.vname
let pp_var ppf v = Fmt.pf ppf "%s#%d" v.vname v.id

(* union-find over the parent column, with path compression *)
let rec find_id t i =
  let p = Array.unsafe_get t.parent i in
  if p = i then i
  else begin
    let r = find_id t p in
    Array.unsafe_set t.parent i r;
    r
  end

(* the same lookup without path compression: it writes nothing, so any
   number of domains may run it on a store no one is mutating *)
let rec find_ro t i =
  let p = Array.unsafe_get t.parent i in
  if p = i then i else find_ro t p

let repr v =
  let t = v.store in
  t.objs.(find_id t v.id)

let record t atom = List.iter (fun r -> r := atom :: !r) t.recorders

let log_atom t atom =
  record t atom;
  let cap = Array.length t.log in
  if t.nlog >= cap then begin
    let cap' = if cap = 0 then 256 else cap * 2 in
    let b = Array.make cap' atom in
    Array.blit t.log 0 b 0 cap;
    t.log <- b
  end;
  t.log.(t.nlog) <- atom;
  (* until a retraction ranks it, an atom sorts after every earlier one *)
  if t.nlog < Array.length t.ord then t.ord.(t.nlog) <- t.nlog;
  t.nlog <- t.nlog + 1

let mark_dirty t i =
  if Bytes.unsafe_get t.dirty_mark i = '\000' then begin
    Bytes.unsafe_set t.dirty_mark i '\001';
    let cap = Array.length t.dirty_stack in
    if t.ndirty >= cap then t.dirty_stack <- grow_int t.dirty_stack (cap * 2);
    t.dirty_stack.(t.ndirty) <- i;
    t.ndirty <- t.ndirty + 1
  end

let dirty_remove t i = Bytes.unsafe_set t.dirty_mark i '\000'

let dirty_reset t =
  for k = 0 to t.ndirty - 1 do
    Bytes.unsafe_set t.dirty_mark t.dirty_stack.(k) '\000'
  done;
  t.ndirty <- 0

(* ------------------------------------------------------------------ *)
(* Adding constraints                                                  *)
(* ------------------------------------------------------------------ *)

let new_cell t dst mask reason next =
  ensure_edge_capacity t;
  let e = t.necells in
  let b = 3 * e in
  t.ecells.(b) <- dst;
  t.ecells.(b + 1) <- mask;
  t.ecells.(b + 2) <- next;
  t.e_reason.(e) <- reason;
  t.necells <- e + 1;
  e

(* var <= const, restricted to the coordinates in [mask]. Constant bounds
   are deduplicated on insertion like edges: a repeated instantiation that
   re-derives an identical bound on the same representative is counted as
   deduped and adds nothing — in particular no provenance entry, so
   [hi_reasons] stops growing with the instantiation count. The dedup key
   packs the side flag into the representative id's low bit. *)
let add_leq_vc ?reason ?mask t v c =
  let mask = Option.value mask ~default:(Elt.full_mask t.sp) in
  log_atom t (Avc (v, c, mask, reason));
  let r = find_id t v.id in
  if Iset.mem_add t.bound_seen ((r lsl 1) lor 1) c mask 0 then
    t.s_dedup <- t.s_dedup + 1
  else begin
    Iset.set_owner t.bound_seen t.bound_seen.last (t.nlog - 1);
    t.hi_reasons.(r) <- (c, mask, reason) :: t.hi_reasons.(r);
    let hb' = Elt.meet t.sp t.hi_bound.(r) (Elt.embed_top t.sp ~mask c) in
    if hb' <> t.hi_bound.(r) then begin
      t.hi_bound.(r) <- hb';
      t.hi.(r) <- Elt.meet t.sp t.hi.(r) hb';
      t.solved <- false;
      mark_dirty t r
    end
  end

(* const <= var, restricted to [mask]. Dual of [add_leq_vc]. *)
let add_leq_cv ?reason ?mask t c v =
  let mask = Option.value mask ~default:(Elt.full_mask t.sp) in
  log_atom t (Acv (c, v, mask, reason));
  let r = find_id t v.id in
  if Iset.mem_add t.bound_seen ((r lsl 1) lor 0) c mask 0 then
    t.s_dedup <- t.s_dedup + 1
  else begin
    Iset.set_owner t.bound_seen t.bound_seen.last (t.nlog - 1);
    t.lo_reasons.(r) <- (c, mask, reason) :: t.lo_reasons.(r);
    let lb' = Elt.join t.sp t.lo_bound.(r) (Elt.embed_bottom t.sp ~mask c) in
    if lb' <> t.lo_bound.(r) then begin
      t.lo_bound.(r) <- lb';
      t.lo.(r) <- Elt.join t.sp t.lo.(r) lb';
      t.solved <- false;
      mark_dirty t r
    end
  end

(* Merge representative [o] into representative [r] (rank order decided by
   the caller): bounds join/meet, provenance concatenates, and [o]'s edge
   cells are {e relinked} into [r]'s chains — no allocation — with
   self-loops dropped and duplicates skipped. Cells left behind (dropped
   self-loops/duplicates) simply go dead in the arena. Stale cells naming
   [o] as a destination in other chains stay; traversal resolves every
   endpoint through [find_id]. *)
let absorb_id t r o =
  let sp = t.sp in
  t.parent.(o) <- r;
  t.lo_bound.(r) <- Elt.join sp t.lo_bound.(r) t.lo_bound.(o);
  t.hi_bound.(r) <- Elt.meet sp t.hi_bound.(r) t.hi_bound.(o);
  t.lo.(r) <- Elt.join sp t.lo.(r) t.lo.(o);
  t.hi.(r) <- Elt.meet sp t.hi.(r) t.hi.(o);
  t.lo_reasons.(r) <- List.rev_append t.lo_reasons.(o) t.lo_reasons.(r);
  t.hi_reasons.(r) <- List.rev_append t.hi_reasons.(o) t.hi_reasons.(r);
  t.lo_reasons.(o) <- [];
  t.hi_reasons.(o) <- [];
  let e = ref t.succ_head.(o) in
  t.succ_head.(o) <- -1;
  while !e >= 0 do
    let cell = !e in
    let b = 3 * cell in
    e := t.ecells.(b + 2);
    let s = find_id t t.ecells.(b) in
    if s <> r then begin
      if Iset.mem_add t.edge_seen r s t.ecells.(b + 1) 0 then
        t.s_dedup <- t.s_dedup + 1
      else begin
        t.ecells.(b) <- s;
        t.ecells.(b + 2) <- t.succ_head.(r);
        t.succ_head.(r) <- cell
      end
    end
  done;
  let e = ref t.pred_head.(o) in
  t.pred_head.(o) <- -1;
  while !e >= 0 do
    let cell = !e in
    let b = 3 * cell in
    e := t.ecells.(b + 2);
    let p = find_id t t.ecells.(b) in
    if p <> r then begin
      if Iset.mem_add t.edge_seen p r t.ecells.(b + 1) 0 then
        t.s_dedup <- t.s_dedup + 1
      else begin
        t.ecells.(b) <- p;
        t.ecells.(b + 2) <- t.pred_head.(r);
        t.pred_head.(r) <- cell
      end
    end
  done;
  t.s_unified <- t.s_unified + 1;
  dirty_remove t o;
  mark_dirty t r

let union_id t a b =
  let a = find_id t a and b = find_id t b in
  if a = b then a
  else begin
    let r, o = if t.rank.(a) >= t.rank.(b) then (a, b) else (b, a) in
    if t.rank.(r) = t.rank.(o) then t.rank.(r) <- t.rank.(r) + 1;
    absorb_id t r o;
    r
  end

(* Bounded DFS over full-mask edges from [src] looking for [dst]; returns
   the path of representative ids (src first, dst last). The budget bounds
   total edge traversals, keeping cycle detection cheap on large graphs —
   partial online cycle elimination: missing a long cycle only costs
   propagation work, never soundness. *)
let cycle_budget = 64

let dfs_rec t v = Option.value (Hashtbl.find_opt t.dfs_rec v) ~default:[]

let find_path t src dst =
  let full = Elt.full_mask t.sp in
  t.fp_gen <- t.fp_gen + 1;
  let gen = t.fp_gen in
  let steps = ref 0 in
  let cut = ref false in
  t.nfp <- 0;
  let rec go v =
    let v = find_id t v in
    if v = dst then Some [ v ]
    else if Array.unsafe_get t.fp_stamp v = gen then None
    else if !steps >= cycle_budget then begin
      cut := true;
      None
    end
    else begin
      Array.unsafe_set t.fp_stamp v gen;
      if t.nfp >= Array.length t.fp_buf then
        t.fp_buf <- grow_int t.fp_buf (2 * t.nfp);
      Array.unsafe_set t.fp_buf t.nfp v;
      t.nfp <- t.nfp + 1;
      let rec try_edges e =
        if e < 0 then None
        else begin
          incr steps;
          let b = 3 * e in
          if Array.unsafe_get t.ecells (b + 1) land full = full then (
            match go (Array.unsafe_get t.ecells b) with
            | Some p -> Some (v :: p)
            | None -> try_edges (Array.unsafe_get t.ecells (b + 2)))
          else try_edges (Array.unsafe_get t.ecells (b + 2))
        end
      in
      try_edges t.succ_head.(v)
    end
  in
  let path = go src in
  (* A search that was cut short, or that found a cycle, could end
     differently over other edges: record which chains it read, so that
     a retraction touching them falls back to a rebuild. A search that
     ran to the end without a path needs no record: no edge added later
     or deleted can give it one (see {!retract}). *)
  if !cut || path <> None then begin
    let trig = t.nlog - 1 in
    for k = 0 to t.nfp - 1 do
      let v = t.fp_buf.(k) in
      Hashtbl.replace t.dfs_rec v (trig :: dfs_rec t v)
    done;
    if trig >= t.fresh_from then
      t.fresh_hazards <- (trig, Array.sub t.fp_buf 0 t.nfp) :: t.fresh_hazards
  end;
  path

(* The edge [ra <= rb] was just inserted; a path [rb ~> ra] over full-mask
   edges closes a cycle, and every variable on it takes the same value in
   any solution — unify the lot. *)
let try_collapse t ra rb =
  match find_path t rb ra with
  | None | Some [] -> ()
  | Some (first :: rest) ->
      t.s_cycles <- t.s_cycles + 1;
      ignore (List.fold_left (fun acc v -> union_id t acc v) first rest)

(* var <= var, restricted to [mask]. *)
let add_leq_vv ?reason ?mask t a b =
  if a != b then begin
    let mask = Option.value mask ~default:(Elt.full_mask t.sp) in
    log_atom t (Avv (a, b, mask, reason));
    let ra = find_id t a.id and rb = find_id t b.id in
    if ra <> rb then begin
      if Iset.mem_add t.edge_seen ra rb mask 0 then
        t.s_dedup <- t.s_dedup + 1
        (* the identical edge already exists between these representatives:
           the system is unchanged, [solved] stays valid *)
      else begin
        t.s_edges <- t.s_edges + 1;
        Iset.set_owner t.edge_seen t.edge_seen.last (t.nlog - 1);
        t.succ_head.(ra) <- new_cell t rb mask reason t.succ_head.(ra);
        t.pred_head.(rb) <- new_cell t ra mask reason t.pred_head.(rb);
        t.solved <- false;
        mark_dirty t ra;
        mark_dirty t rb;
        if t.cycle_elim && Elt.is_full_mask t.sp mask then
          try_collapse t ra rb
      end
    end
  end

(* Ground constraint const <= const: checked immediately (mask-restricted). *)
let add_leq_cc ?reason ?mask t c1 c2 =
  let mask = Option.value mask ~default:(Elt.full_mask t.sp) in
  if not (Elt.leq_masked t.sp ~mask c1 c2) then
    t.ground_errors <-
      {
        err_var = None;
        err_msg =
          Fmt.str "unsatisfiable ground constraint %a <= %a%a"
            (Elt.pp_full t.sp) c1 (Elt.pp_full t.sp) c2
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

(* ring-buffer worklist: head/tail are monotonic, indices wrap with a
   power-of-two mask; the [inq] byte per variable dedups pushes *)
let wl_push t i =
  if Bytes.unsafe_get t.inq i = '\000' then begin
    Bytes.unsafe_set t.inq i '\001';
    let cap = Array.length t.wl in
    if t.wl_tail - t.wl_head = cap then begin
      (* full: double, copying the live region in queue order *)
      let cap' = cap * 2 in
      let w = Array.make cap' 0 in
      for k = 0 to cap - 1 do
        w.(k) <- t.wl.((t.wl_head + k) land (cap - 1))
      done;
      t.wl <- w;
      t.wl_head <- 0;
      t.wl_tail <- cap
    end;
    Array.unsafe_set t.wl (t.wl_tail land (Array.length t.wl - 1)) i;
    t.wl_tail <- t.wl_tail + 1
  end

let wl_pop t =
  let i = Array.unsafe_get t.wl (t.wl_head land (Array.length t.wl - 1)) in
  t.wl_head <- t.wl_head + 1;
  Bytes.unsafe_set t.inq i '\000';
  i

(* drain without processing, clearing the in-queue marks (a tripped budget
   leaves entries behind; the marks are persistent state and must not leak
   into the next pass) *)
let wl_reset t =
  let m = Array.length t.wl - 1 in
  for k = t.wl_head to t.wl_tail - 1 do
    Bytes.unsafe_set t.inq t.wl.(k land m) '\000'
  done;
  t.wl_head <- 0;
  t.wl_tail <- 0

let touched_push t i =
  let cap = Array.length t.touched in
  if t.ntouched >= cap then t.touched <- grow_int t.touched (cap * 2);
  Array.unsafe_set t.touched t.ntouched i;
  t.ntouched <- t.ntouched + 1

(* One worklist pass. [seed] supplies the initial frontier; propagation
   pushes [lo] joins along forward edges and [hi] meets along reversed
   edges. The lattice operations are inlined bit operations (join = lor,
   meet = land, embed_bottom = mask off, embed_top = mask off + fill the
   complement with top): this loop is the hot core of the solver and must
   not allocate. Every popped representative is appended to [touched] so
   the caller can re-check bound violations on exactly the affected
   region. *)
let propagate t ~seed =
  let top = Elt.top t.sp in
  t.ntouched <- 0;
  let push i = wl_push t (find_id t i) in
  (* A tripped budget drains the worklists without propagating: (lo, hi)
     are left partial, which is why budgeted runs are reported degraded
     and classified conservatively by the caller. *)
  (* least pass *)
  seed push;
  while t.wl_head < t.wl_tail && not (budget_tripped t) do
    let v = wl_pop t in
    t.s_pops <- t.s_pops + 1;
    Option.iter Budget.note_pop t.budget;
    touched_push t v;
    let lov = Array.unsafe_get t.lo v in
    let e = ref (Array.unsafe_get t.succ_head v) in
    while !e >= 0 do
      let b = 3 * !e in
      e := Array.unsafe_get t.ecells (b + 2);
      let d = Array.unsafe_get t.ecells b in
      let s = if Array.unsafe_get t.parent d = d then d else find_id t d in
      if s <> v then begin
        let los = Array.unsafe_get t.lo s in
        let lo' = los lor (lov land Array.unsafe_get t.ecells (b + 1)) in
        if lo' <> los then begin
          Array.unsafe_set t.lo s lo';
          wl_push t s
        end
      end
    done
  done;
  wl_reset t;
  (* greatest pass: dual, meets along reversed edges *)
  seed push;
  while t.wl_head < t.wl_tail && not (budget_tripped t) do
    let v = wl_pop t in
    t.s_pops <- t.s_pops + 1;
    Option.iter Budget.note_pop t.budget;
    touched_push t v;
    let hiv = Array.unsafe_get t.hi v in
    let e = ref (Array.unsafe_get t.pred_head v) in
    while !e >= 0 do
      let b = 3 * !e in
      e := Array.unsafe_get t.ecells (b + 2);
      let d = Array.unsafe_get t.ecells b in
      let p = if Array.unsafe_get t.parent d = d then d else find_id t d in
      if p <> v then begin
        let m = Array.unsafe_get t.ecells (b + 1) in
        let hip = Array.unsafe_get t.hi p in
        let hi' = hip land ((hiv land m) lor (top land lnot m)) in
        if hi' <> hip then begin
          Array.unsafe_set t.hi p hi';
          wl_push t p
        end
      end
    done
  done;
  wl_reset t

(* Explain why [v]'s least solution violates its upper bound: find the
   offending coordinate, then walk backwards (BFS over a queue) to a
   constant lower bound that raised it. *)
let explain t v =
  let vi = find_id t v.id in
  let sp = t.sp in
  let bad = ref None in
  for i = 0 to Space.size sp - 1 do
    if !bad = None then begin
      let mask = Elt.singleton_mask sp i in
      if not (Elt.leq_masked sp ~mask t.lo.(vi) t.hi_bound.(vi)) then
        bad := Some i
    end
  done;
  match !bad with
  | None -> Fmt.str "%a: bound violation" pp_var t.objs.(vi)
  | Some i ->
      let q = Space.qual sp i in
      let mask = Elt.singleton_mask sp i in
      (* the value of coordinate i that lo carries *)
      let coord_of x = x land mask in
      let target = coord_of t.lo.(vi) in
      (* BFS backwards for a var whose own constant lower bounds produce
         [target] on coordinate i *)
      let seen = Hashtbl.create 16 in
      let frontier = Queue.create () in
      Queue.push vi frontier;
      let found = ref None in
      while Option.is_none !found && not (Queue.is_empty frontier) do
        let u = Queue.pop frontier in
        if not (Hashtbl.mem seen u) then begin
          Hashtbl.add seen u ();
          if coord_of t.lo_bound.(u) = target && coord_of t.lo.(u) = target
          then
            let reason =
              List.find_map
                (fun (c, m, r) ->
                  if m land mask <> 0 && coord_of c = target then
                    Some (Option.value r ~default:"constant bound")
                  else None)
                t.lo_reasons.(u)
            in
            found :=
              Some (u, Option.value reason ~default:"constant bound")
          else begin
            let e = ref t.pred_head.(u) in
            while !e >= 0 do
              let cell = !e in
              let b = 3 * cell in
              e := t.ecells.(b + 2);
              let p = find_id t t.ecells.(b) in
              if t.ecells.(b + 1) land mask <> 0 && coord_of t.lo.(p) = target
              then Queue.push p frontier
            done
          end
        end
      done;
      let origin =
        match !found with
        | Some (u, r) -> Fmt.str "; forced at %a (%s)" pp_var t.objs.(u) r
        | None -> ""
      in
      let bound_reason =
        List.find_map
          (fun (_, m, r) ->
            if
              m land mask <> 0
              && not (Elt.leq_masked sp ~mask t.lo.(vi) t.hi_bound.(vi))
            then r
            else None)
          t.hi_reasons.(vi)
      in
      (* Ordered coordinates name the violating levels; classic two-point
         coordinates keep the historical message byte-for-byte. *)
      let levels =
        match Space.order sp i with
        | None -> ""
        | Some _ ->
            Fmt.str ": level %s exceeds bound %s"
              (Elt.level_name sp i t.lo.(vi))
              (Elt.level_name sp i t.hi_bound.(vi))
      in
      Fmt.str "qualifier %a of %a violates an upper bound%s%a%s" Qualifier.pp
        q pp_var t.objs.(vi) levels
        Fmt.(option (any " (" ++ string ++ any ")"))
        bound_reason origin

(* Public query surface for store-resident clients (the analysis daemon):
   explain one variable on demand instead of scanning [last_errors]. *)
let explain_var t v =
  let vi = find_id t v.id in
  if Elt.leq t.sp t.lo.(vi) t.hi_bound.(vi) then None else Some (explain t v)

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

(* no sort: ground violations are rare, the table keeps its size *)
let error_count t = List.length t.ground_errors + Hashtbl.length t.errors

(* Record a violation for every representative popped by the last
   propagate whose least solution escapes its constant upper bound.
   Violations are monotone (constraints are only added; [lo] only rises,
   [hi_bound] only falls), so entries never need revisiting. [explain]
   runs only here, after propagation has reached fixpoint, so it sees
   final [lo] values. Iterates in reverse pop order, a fixed order that
   keeps the error messages deterministic. *)
let check_violations t =
  for k = t.ntouched - 1 downto 0 do
    let i = t.touched.(k) in
    if
      (not (Hashtbl.mem t.errors i))
      && not (Elt.leq t.sp t.lo.(i) t.hi_bound.(i))
    then
      Hashtbl.add t.errors i
        { err_var = Some t.objs.(i); err_msg = explain t t.objs.(i) }
  done

let result_of_errors t =
  match last_errors t with [] -> Ok () | es -> Error es

(* Incremental solve: seed the worklists from the dirty set only. [lo] and
   [hi] already reflect every bound added since the last solve (the add_*
   functions fold new bounds in eagerly), so propagating from the dirty
   region reaches exactly the variables whose solution can have changed.
   Seeds go in dirty-set insertion order, so [worklist_pops] is
   deterministic (pinned by the tests). *)
let solve t =
  if not t.solved then begin
    let t0 = Unix.gettimeofday () in
    propagate t ~seed:(fun push ->
        for k = 0 to t.ndirty - 1 do
          let i = t.dirty_stack.(k) in
          if Bytes.unsafe_get t.dirty_mark i = '\001' then push i
        done);
    check_violations t;
    dirty_reset t;
    t.solved <- true;
    t.s_incr <- t.s_incr + 1;
    t.s_solve_s <- t.s_solve_s +. (Unix.gettimeofday () -. t0)
  end;
  result_of_errors t

(* Full solve: reset every representative to its bounds and propagate from
   everywhere (in reverse creation order, a fixed order that keeps the
   counters deterministic). The ablation baseline for incremental solving,
   and a self-check hook (the fixpoint is unique, so the results must
   agree). *)
let solve_from_scratch t =
  let t0 = Unix.gettimeofday () in
  for i = t.nvars - 1 downto 0 do
    if t.parent.(i) = i then begin
      t.lo.(i) <- t.lo_bound.(i);
      t.hi.(i) <- t.hi_bound.(i)
    end
  done;
  propagate t ~seed:(fun push ->
      for i = t.nvars - 1 downto 0 do
        if t.parent.(i) = i then push i
      done);
  Hashtbl.reset t.errors;
  for i = t.nvars - 1 downto 0 do
    if
      t.parent.(i) = i
      && (not (Hashtbl.mem t.errors i))
      && not (Elt.leq t.sp t.lo.(i) t.hi_bound.(i))
    then
      Hashtbl.add t.errors i
        { err_var = Some t.objs.(i); err_msg = explain t t.objs.(i) }
  done;
  dirty_reset t;
  t.solved <- true;
  t.s_full <- t.s_full + 1;
  t.s_solve_s <- t.s_solve_s +. (Unix.gettimeofday () -. t0);
  result_of_errors t

let least t v =
  if not t.solved then ignore (solve t);
  t.lo.(find_id t v.id)

let greatest t v =
  if not t.solved then ignore (solve t);
  t.hi.(find_id t v.id)

(* Classification of one coordinate of a variable, per Section 4.4. *)
type verdict =
  | Forced_up    (* least solution already at the coordinate's top: "must be const" *)
  | Forced_down  (* greatest solution at its bottom: "must not be const" *)
  | Free         (* anything in between *)

(* In the upset encoding a coordinate is at its sub-lattice top when its
   whole bit range is set and at its bottom when the range is clear; for a
   classic two-point qualifier "top" is presence (positive) or absence
   (negative), exactly the historical verdicts. *)
let verdict_of sp ~lo ~hi i =
  let m = Elt.singleton_mask sp i in
  if lo land m = m then Forced_up
  else if hi land m = 0 then Forced_down
  else Free

(* read-only on a solved store, so a what-if query leaves it as it was *)
let classify t v i =
  if not t.solved then ignore (solve t);
  let r = find_ro t v.id in
  verdict_of t.sp ~lo:t.lo.(r) ~hi:t.hi.(r) i

let classify_name t v name = classify t v (Space.find t.sp name)

let pp_verdict ppf = function
  | Forced_up -> Fmt.string ppf "forced-up"
  | Forced_down -> Fmt.string ppf "forced-down"
  | Free -> Fmt.string ppf "free"

(* ------------------------------------------------------------------ *)
(* Speculative queries (what-if)                                       *)
(* ------------------------------------------------------------------ *)

(* Adding [c <= v] to a solved store can only raise least solutions, and
   only on [v]'s forward closure; greatest solutions depend on upper
   bounds alone and do not move (the least/greatest-solution
   characterization of Section 3.1). So the new least solution is the
   solved [lo] plus a sparse overlay over that cone, computed by the same
   [lor]/mask step as [propagate]'s least pass, seeded exactly as
   [add_leq_cv] seeds it. Nothing in the store is written: lookups go
   through [find_ro], and the overlay, queue and result are private. *)
type speculation = {
  sp_store : t;
  sp_lo : (int, Elt.t) Hashtbl.t;
      (* representative id -> raised least solution; only raised ids *)
  sp_raised : int list;  (* the same ids, in the order first raised *)
}

let speculate_leq_cv ?mask t c v =
  if not t.solved then invalid_arg "Solver.speculate_leq_cv: unsolved store";
  let mask = Option.value mask ~default:(Elt.full_mask t.sp) in
  let overlay = Hashtbl.create 8 in
  let raised = ref [] in
  let queue = Queue.create () in
  let lo_of i =
    match Hashtbl.find_opt overlay i with
    | Some x -> x
    | None -> Array.unsafe_get t.lo i
  in
  let raise_to i x =
    if not (Hashtbl.mem overlay i) then raised := i :: !raised;
    Hashtbl.replace overlay i x;
    Queue.push i queue
  in
  let r = find_ro t v.id in
  let lo' = Elt.join t.sp t.lo.(r) (Elt.embed_bottom t.sp ~mask c) in
  if lo' <> t.lo.(r) then raise_to r lo';
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    let lou = lo_of u in
    let e = ref (Array.unsafe_get t.succ_head u) in
    while !e >= 0 do
      let b = 3 * !e in
      e := Array.unsafe_get t.ecells (b + 2);
      let s = find_ro t (Array.unsafe_get t.ecells b) in
      if s <> u then begin
        let los = lo_of s in
        let lo' = los lor (lou land Array.unsafe_get t.ecells (b + 1)) in
        if lo' <> los then raise_to s lo'
      end
    done
  done;
  { sp_store = t; sp_lo = overlay; sp_raised = List.rev !raised }

let speculation_reps s = List.map (fun i -> s.sp_store.objs.(i)) s.sp_raised

let classify_speculative s v i =
  let t = s.sp_store in
  let r = find_ro t v.id in
  let lo =
    match Hashtbl.find_opt s.sp_lo r with Some x -> x | None -> t.lo.(r)
  in
  verdict_of t.sp ~lo ~hi:t.hi.(r) i

(* the violations [solve] would add: [check_violations] over the raised
   representatives, which are exactly the ones whose [lo] moves *)
let speculation_new_errors s =
  let t = s.sp_store in
  List.fold_left
    (fun n i ->
      if
        (not (Hashtbl.mem t.errors i))
        && not (Elt.leq t.sp (Hashtbl.find s.sp_lo i) t.hi_bound.(i))
      then n + 1
      else n)
    0 s.sp_raised

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
   edges (and hence its own unifications) among the fresh copies. *)
let instantiate t s =
  let t0 = Unix.gettimeofday () in
  let map = Hashtbl.create (List.length s.locals) in
  List.iter
    (fun v -> Hashtbl.replace map v.uid (fresh ~name:v.vname t))
    s.locals;
  let rn v = match Hashtbl.find_opt map v.uid with Some v' -> v' | None -> v in
  List.iter
    (function
      | Avc (v, c, mask, reason) -> add_leq_vc ?reason ~mask t (rn v) c
      | Acv (c, v, mask, reason) -> add_leq_cv ?reason ~mask t c (rn v)
      | Avv (a, b, mask, reason) -> add_leq_vv ?reason ~mask t (rn a) (rn b))
    s.atoms;
  t.s_instantiate_s <- t.s_instantiate_s +. (Unix.gettimeofday () -. t0);
  rn

(* ------------------------------------------------------------------ *)
(* Segments and rebuild (the fallback of the warm session's deletion) *)
(* ------------------------------------------------------------------ *)

(* A segment is the stretch of the arena one unit of client work (one
   analysis task) produced: the variables it created, the atoms it
   logged, and the ground violations it raised — which [add_leq_cc]
   checks on the spot and never logs. A mark taken before the work and
   read after it delimits all three. *)
type mark = { mk_var : int; mk_log : int; mk_ground : error list }

let mark t = { mk_var = t.nvars; mk_log = t.nlog; mk_ground = t.ground_errors }
let mark_var m = m.mk_var
let mark_log m = m.mk_log
let num_atoms t = t.nlog

let ground_since t m =
  let rec take = function
    | l when l == m.mk_ground -> []
    | [] -> []
    | e :: rest -> e :: take rest
  in
  take t.ground_errors

(* Delete every atom outside [slices] by rebuilding the derived state from
   the live ones: reset the union-find, bounds, solutions, chains,
   provenance, dedup sets and error table of every variable, replay each
   slice of the atom log in the order given through the normal add path
   (which re-logs it, so the log ends up holding exactly the live atoms,
   compacted), restore the live ground violations, and solve from
   scratch. Variables are neither created nor freed: a dead segment's
   variables stay in the arena as unconstrained singletons. Replaying the
   live atoms in the order a fresh store would have received them makes
   unions, partial cycle collapse and dedup — and so the structural
   counters, which restart from zero — match that store's up to variable
   renaming. Returns each slice's new start in the log. *)
let rebuild t ~(slices : (int * int) list) ~(ground : error list) : int list =
  if t.recorders <> [] then invalid_arg "Solver.rebuild: inside a recording";
  let bot = Elt.bottom t.sp and top = Elt.top t.sp in
  for i = 0 to t.nvars - 1 do
    t.parent.(i) <- i;
    t.rank.(i) <- 0;
    t.lo_bound.(i) <- bot;
    t.hi_bound.(i) <- top;
    t.lo.(i) <- bot;
    t.hi.(i) <- top;
    t.succ_head.(i) <- -1;
    t.pred_head.(i) <- -1;
    t.lo_reasons.(i) <- [];
    t.hi_reasons.(i) <- []
  done;
  Hashtbl.reset t.dfs_rec;
  dirty_reset t;
  wl_reset t;
  t.necells <- 0;
  Iset.clear t.edge_seen;
  Iset.clear t.bound_seen;
  Hashtbl.reset t.errors;
  t.s_unified <- 0;
  t.s_edges <- 0;
  t.s_dedup <- 0;
  t.s_cycles <- 0;
  let old = t.log in
  let live = List.fold_left (fun n (_, len) -> n + len) 0 slices in
  (* a little headroom for the next segments, so they do not double it *)
  t.log <- (if live = 0 then [||] else Array.make (max 256 (live + (live / 8))) old.(0));
  t.ord <- [||];
  t.nlog <- 0;
  t.live_slices <- [];
  t.fresh_from <- 0;
  t.fresh_hazards <- [];
  let starts =
    List.map
      (fun (start, len) ->
        let at = t.nlog in
        for i = start to start + len - 1 do
          match old.(i) with
          | Avc (v, c, mask, reason) -> add_leq_vc ?reason ~mask t v c
          | Acv (c, v, mask, reason) -> add_leq_cv ?reason ~mask t c v
          | Avv (x, y, mask, reason) -> add_leq_vv ?reason ~mask t x y
        done;
        at)
      slices
  in
  t.ground_errors <- ground;
  ignore (solve_from_scratch t : (unit, error list) result);
  starts

(* ------------------------------------------------------------------ *)
(* Decremental retraction (delete-and-rederive)                        *)
(* ------------------------------------------------------------------ *)

(* Everything logged so far is the live store (or atoms a retraction
   will delete); everything logged after this point is the edit's fresh
   work, which the next [retract] keeps. *)
let checkpoint t =
  if t.nlog > t.fresh_from then
    t.live_slices <- t.live_slices @ [ (t.fresh_from, t.nlog - t.fresh_from) ];
  t.fresh_from <- t.nlog;
  t.fresh_var0 <- t.nvars;
  t.chk_unified <- t.s_unified;
  t.chk_cycles <- t.s_cycles;
  t.fresh_hazards <- []

type retract_path = Decremental | Rebuilt of string

type retraction = {
  rt_path : retract_path;
  rt_deleted : int;
  rt_reset : int;
  rt_starts : int list;
}

let singleton t i = t.parent.(i) = i && t.rank.(i) = 0

let endpoints_singleton t = function
  | Avv (a, b, _, _) -> singleton t a.id && singleton t b.id
  | Avc (v, _, _, _) | Acv (_, v, _, _) -> singleton t v.id

(* An atom's dedup key, for an atom whose endpoints are singletons (so
   each endpoint is its own representative): the three leading key ints
   its insertion used, the last one saying which table (edge or
   bound). *)
let key_of = function
  | Avv (a, b, m, _) -> (a.id, b.id, m, true)
  | Avc (v, c, m, _) -> ((v.id lsl 1) lor 1, c, m, false)
  | Acv (c, v, m, _) -> (v.id lsl 1, c, m, false)

let key_slot t atom =
  let a, b, c, edge = key_of atom in
  let s = if edge then t.edge_seen else t.bound_seen in
  (s, Iset.find s a b c 0)

(* the log index of the atom holding a key's cell or provenance entry *)
let key_owner t atom =
  let s, j = key_slot t atom in
  Iset.owner s j

(* a log entry's task rank (see [ord]) *)
let rank t i = if i < Array.length t.ord then t.ord.(i) else i

(* The atom holding cell [c] of [v]'s succ ([succ]) or pred chain, by the
   cell's key: -1 when a union's relinking formed the key (no one atom
   holds it), -2 when the key is gone (the cell is deleted). *)
let cell_owner t ~succ v c =
  let b = 3 * c in
  let d = t.ecells.(b) and m = t.ecells.(b + 1) in
  let j =
    if succ then Iset.find t.edge_seen v d m 0 else Iset.find t.edge_seen d v m 0
  in
  if j < 0 then -2 else Iset.owner t.edge_seen j

(* Is the key of succ cell [c] of [v] among [pending], the edge keys a
   dead or a fresh atom holds? Its holder is then not yet the one a cold
   store inserted first. *)
let pending_cell t pending v c =
  let b = 3 * c in
  Hashtbl.mem pending (v, t.ecells.(b), t.ecells.(b + 1))

let atom_reason = function
  | Avv (_, _, _, r) | Avc (_, _, _, r) | Acv (_, _, _, r) -> r

(* Could the cycle search of the edge logged at [trig] find a path over
   the live full-mask cells ranked below [below]? An exact breadth-first
   walk, bounded: past [path_cap] cells it answers yes. A search with no
   such path returns no cycle whatever order or budget it runs with. *)
let path_cap = 4096

let path_possible t pending trig ~below =
  match t.log.(trig) with
  | Avc _ | Acv _ -> true
  | Avv (a, b, _, _) ->
      let src = find_id t b.id and dst = find_id t a.id in
      src = dst
      ||
      let full = Elt.full_mask t.sp in
      t.fp_gen <- t.fp_gen + 1;
      let gen = t.fp_gen in
      let q = Queue.create () in
      t.fp_stamp.(src) <- gen;
      Queue.push src q;
      let steps = ref 0 and found = ref false in
      while (not !found) && not (Queue.is_empty q) do
        let v = Queue.pop q in
        let e = ref t.succ_head.(v) in
        while !e >= 0 && not !found do
          let c = !e in
          let b = 3 * c in
          e := t.ecells.(b + 2);
          incr steps;
          if !steps > path_cap then found := true;
          if
            t.ecells.(b + 1) land full = full
            &&
            let o = cell_owner t ~succ:true v c in
            o = -1
            || pending_cell t pending v c
            || (o >= 0 && rank t o >= 0 && rank t o < below)
          then begin
            let s = find_id t t.ecells.(b) in
            if s = dst then found := true
            else if t.fp_stamp.(s) <> gen then begin
              t.fp_stamp.(s) <- gen;
              Queue.push s q
            end
          end
        done
      done;
      !found

(* Would a cold store show a search ranked [trig] the chain of [x] it
   read here? Yes if, at the time, the chain held only live cells ranked
   before it, newest rank first, on a singleton. *)
let chain_as_cold t pending x trig =
  singleton t x
  &&
  let ok = ref true and prev = ref max_int and e = ref t.succ_head.(x) in
  while !ok && !e >= 0 do
    let c = !e in
    e := t.ecells.((3 * c) + 2);
    let o = cell_owner t ~succ:true x c in
    if o >= 0 && o < trig then begin
      let r = rank t o in
      if r < 0 || r >= rank t trig || r >= !prev || pending_cell t pending x c then
        ok := false;
      prev := r
    end
  done;
  !ok

(* A singleton's chain in the order a cold store builds it: newest first,
   i.e. by falling task rank of the holding atom; deleted cells drop. *)
let normalize_chain t ~succ x =
  let heads = if succ then t.succ_head else t.pred_head in
  let cells = ref [] in
  let e = ref heads.(x) in
  while !e >= 0 do
    let c = !e in
    e := t.ecells.((3 * c) + 2);
    let o = cell_owner t ~succ x c in
    if o >= 0 && rank t o >= 0 then cells := (rank t o, c) :: !cells
  done;
  let a = Array.of_list !cells in
  Array.sort (fun (r1, _) (r2, _) -> compare r2 r1) a;
  let head = ref (-1) in
  for k = Array.length a - 1 downto 0 do
    let c = snd a.(k) in
    t.ecells.((3 * c) + 2) <- !head;
    head := c
  done;
  heads.(x) <- !head

(* the same for a singleton's provenance list on one side (1: upper) *)
let normalize_reasons t x side l =
  let ranked =
    List.filter_map
      (fun ((c, m, _) as e) ->
        let j = Iset.find t.bound_seen ((x lsl 1) lor side) c m 0 in
        if j < 0 then None
        else
          let r = rank t (Iset.owner t.bound_seen j) in
          if r < 0 then None else Some (r, e))
      l
  in
  List.map snd (List.stable_sort (fun (r1, _) (r2, _) -> compare r2 r1) ranked)

(* Keep only the atoms of [slices] (log slices in task order), deleting
   the rest: delete-and-rederive (DRed; Gupta, Mumick and Subrahmanian
   1993) over the least/greatest solutions, which are monotone in the
   atoms (Section 3.1).

   The atoms logged since the last {!checkpoint} are the edit's fresh
   ones; they were added through the normal path while the dead ones
   were still in place. What a cold store would hold — the live atoms
   inserted in task order — differs from this store only where the dead
   or fresh atoms reached, and [retract] repairs exactly that:

   - each dedup key counts the atoms holding it, so deleting an atom
     another live atom duplicates keeps the key, and the key's cell or
     provenance entry moves to the holder of least task rank, which is
     the one a cold store inserted first (the fresh atoms are checked
     the same way against the live holders ranked after them);
   - the chains and provenance lists of the singletons involved are put
     back in cold order (newest task rank first), which [explain]'s
     breadth-first walk and the cycle search read;
   - the least-solution bits forward-reachable from a deleted atom's
     target and the greatest-solution bits backward-reachable from its
     source are reset where they could have come through it, then
     re-derived from the surviving atoms over that cone only; the fresh
     atoms' effects propagate in the same incremental solve;
   - violations are re-checked on the cone, every recorded message is
     re-explained on the repaired store, and the live ground violations
     are restored; the structural counters lose the deleted atoms'
     contributions.

   It falls back to {!rebuild}, which reaches the same store by replay,
   whenever the store shows that a cold run could have unified, deduped
   or searched differently: a dead atom or a fresh atom on a collapsed
   cycle, a fresh atom that unified classes or whose cycle search was cut
   short or closed a cycle, a search that was cut short or closed a
   cycle after reading a chain the edit changes, kept segments out of
   their earlier order, or dead log entries outnumbering live ones (the
   rebuild then compacts the log). A search that ran to the end without
   finding a path needs no such guard: no deleted edge can have been on
   a path it missed, and a fresh edge on such a path would close a cycle
   through a fresh atom, which that atom's own full search would have
   found. *)
let retract t ~(slices : (int * int) list) ~(ground : error list) : retraction =
  if t.recorders <> [] then invalid_arg "Solver.retract: inside a recording";
  let t0 = Unix.gettimeofday () in
  let n = t.nlog in
  if Array.length t.ord < n then begin
    let o = t.ord in
    t.ord <- Array.init (Array.length t.log) (fun i -> if i < Array.length o then o.(i) else i)
  end;
  let bad = ref None in
  let fallback r = if !bad = None then bad := Some r in
  let covered = Bytes.make n '\000' in
  let nlive = ref 0 in
  List.iter
    (fun (start, len) ->
      for i = start to start + len - 1 do
        if Bytes.get covered i = '\001' || t.ord.(i) < 0 then
          fallback "a slice names a deleted or repeated atom";
        Bytes.set covered i '\001'
      done;
      nlive := !nlive + len)
    slices;
  if n - !nlive > !nlive then fallback "dead log entries outnumber live ones";
  for i = t.fresh_from to n - 1 do
    if Bytes.get covered i = '\000' then fallback "a fresh atom outside the live slices"
  done;
  (let last = ref (-1) in
   List.iter
     (fun (start, len) ->
       if len > 0 && start < t.fresh_from then begin
         if t.ord.(start) <= !last then fallback "kept segments reordered";
         last := t.ord.(start + len - 1)
       end)
     slices);
  let dead = ref [] in
  for i = t.fresh_from - 1 downto 0 do
    if t.ord.(i) >= 0 && Bytes.get covered i = '\000' then dead := i :: !dead
  done;
  let dead = !dead in
  let ndead = List.length dead in
  List.iter
    (fun i ->
      if not (endpoints_singleton t t.log.(i)) then
        fallback "a dead atom on a collapsed cycle")
    dead;
  if t.s_unified <> t.chk_unified || t.s_cycles <> t.chk_cycles then
    fallback "a fresh atom unified classes";
  for i = t.fresh_from to n - 1 do
    if not (endpoints_singleton t t.log.(i)) then
      fallback "a fresh atom on a collapsed cycle"
  done;
  (* the chains the edit changes, as the cycle search reads them *)
  let changed = ref [] in
  let note_changed i =
    match t.log.(i) with
    | Avv (a, _, _, _) when a.id < t.fresh_var0 -> changed := a.id :: !changed
    | _ -> ()
  in
  List.iter note_changed dead;
  for i = t.fresh_from to n - 1 do note_changed i done;
  (* the edge keys whose holder this retraction may change *)
  let pending = Hashtbl.create 64 in
  let note_pending i =
    match t.log.(i) with
    | Avv (a, b, m, _) -> Hashtbl.replace pending (a.id, b.id, m) ()
    | Avc _ | Acv _ -> ()
  in
  if !bad = None then begin
    List.iter note_pending dead;
    for i = t.fresh_from to n - 1 do note_pending i done
  end;
  (* task ranks: the live atoms in slice order (a rebuild resets them) *)
  let last_live = ref (-1) in
  if !bad = None then begin
    List.iter (fun i -> t.ord.(i) <- -1) dead;
    let k = ref 0 in
    List.iter
      (fun (start, len) ->
        if start < t.fresh_from && len > 0 then last_live := !k + len - 1;
        for i = start to start + len - 1 do
          t.ord.(i) <- !k;
          incr k
        done)
      slices
  end;
  (* A kept search that was cut short or closed a cycle, and read a
     chain the edit changes, may end otherwise over the cold chains; it
     cannot if no path was there to find. *)
  if !bad = None then
    List.iter
      (fun x ->
        if
          List.exists
            (fun trig ->
              trig < t.fresh_from && t.ord.(trig) >= 0
              && path_possible t pending trig ~below:t.ord.(trig))
            (dfs_rec t x)
        then fallback "a cut-short or cycle-closing search read an edited chain")
      !changed;
  (* A fresh search that was cut short saw the dead atoms and the fresh
     atoms ahead of the live ones. It is the search a cold store runs if
     every chain it read was as cold and no live atom ranks after it (no
     later live search could then see its edge); otherwise it must have
     had no cycle to find at all. *)
  if !bad = None then
    List.iter
      (fun (trig, visited) ->
        if
          not
            (t.ord.(trig) > !last_live
            && Array.for_all (fun x -> chain_as_cold t pending x trig) visited)
          && path_possible t pending trig ~below:max_int
        then fallback "a fresh atom's cut-short search read an edited chain")
      t.fresh_hazards;
  match !bad with
  | Some reason ->
      let starts = rebuild t ~slices ~ground in
      { rt_path = Rebuilt reason; rt_deleted = ndead; rt_reset = t.nvars;
        rt_starts = starts }
  | None ->
      let sp = t.sp in
      let top = Elt.top sp in
      t.fresh_hazards <- [];
      List.iter
        (fun x ->
          match List.filter (fun i -> t.ord.(i) >= 0) (dfs_rec t x) with
          | [] -> Hashtbl.remove t.dfs_rec x
          | l -> Hashtbl.replace t.dfs_rec x l)
        !changed;
      (* the vertices whose chains or provenance the repair touches *)
      let touched = Hashtbl.create 16 in
      let touch x = Hashtbl.replace touched x () in
      let touch_atom = function
        | Avv (a, b, _, _) ->
            touch a.id;
            touch b.id
        | Avc (v, _, _, _) | Acv (_, v, _, _) -> touch v.id
      in
      (* 1. the dead atoms leave their keys *)
      let removed = ref [] and orphans = Hashtbl.create 8 in
      List.iter
        (fun i ->
          let atom = t.log.(i) in
          touch_atom atom;
          let s, j = key_slot t atom in
          let c = Iset.count_at s j - 1 in
          Iset.set_count s j c;
          if c > 0 then begin
            t.s_dedup <- t.s_dedup - 1;
            if t.ord.(key_owner t atom) < 0 then Hashtbl.replace orphans (key_of atom) (-1)
          end
          else begin
            (* the cell goes with its key (the chains drop it below) *)
            (match atom with
            | Avv _ -> t.s_edges <- t.s_edges - 1
            | Avc (v, c, m, _) ->
                t.hi_reasons.(v.id) <-
                  List.filter (fun (c', m', _) -> c' <> c || m' <> m) t.hi_reasons.(v.id)
            | Acv (c, v, m, _) ->
                t.lo_reasons.(v.id) <-
                  List.filter (fun (c', m', _) -> c' <> c || m' <> m) t.lo_reasons.(v.id));
            Iset.remove_slot s j;
            removed := atom :: !removed
          end)
        dead;
      (* a key whose last holders were all dead is gone already *)
      Hashtbl.filter_map_inplace
        (fun ((a, b, c, edge) as _k) v ->
          if Iset.find (if edge then t.edge_seen else t.bound_seen) a b c 0 >= 0
          then Some v
          else None)
        orphans;
      (* 2. a key whose holder died passes to its live holder of least
         rank: one scan of the live log, in task order, over the atoms
         whose first endpoint holds such a key *)
      let transfer atom i =
        let s, j = key_slot t atom in
        let r = atom_reason t.log.(i) in
        touch_atom atom;
        Iset.set_owner s j i;
        let retag l c m =
          List.map (fun ((c', m', _) as e) -> if c' = c && m' = m then (c, m, r) else e) l
        in
        match atom with
        | Avv (a, b, m, _) ->
            (* the key's cell pair: its succ cell in [a]'s chain, the pred
               cell next to it *)
            let e = ref t.succ_head.(a.id) in
            while !e >= 0 do
              let c = !e in
              let bc = 3 * c in
              e := t.ecells.(bc + 2);
              if t.ecells.(bc) = b.id && t.ecells.(bc + 1) = m then begin
                t.e_reason.(c) <- r;
                t.e_reason.(c + 1) <- r;
                e := -1
              end
            done
        | Avc (v, c, m, _) -> t.hi_reasons.(v.id) <- retag t.hi_reasons.(v.id) c m
        | Acv (c, v, m, _) -> t.lo_reasons.(v.id) <- retag t.lo_reasons.(v.id) c m
      in
      if Hashtbl.length orphans > 0 then begin
        t.fp_gen <- t.fp_gen + 1;
        let g = t.fp_gen in
        let first = function
          | Avv (a, _, _, _) -> a.id
          | Avc (v, _, _, _) | Acv (_, v, _, _) -> v.id
        in
        (* a bound key packs the side into the variable id *)
        Hashtbl.iter
          (fun (a, _, _, edge) _ -> t.fp_stamp.(if edge then a else a lsr 1) <- g)
          orphans;
        let left = ref (Hashtbl.length orphans) in
        List.iter
          (fun (start, len) ->
            let i = ref start in
            while !left > 0 && !i < start + len do
              let atom = t.log.(!i) in
              if t.fp_stamp.(first atom) = g then begin
                let k = key_of atom in
                match Hashtbl.find_opt orphans k with
                | Some (-1) ->
                    Hashtbl.replace orphans k !i;
                    decr left;
                    transfer atom !i
                | _ -> ()
              end;
              incr i
            done)
          slices
      end;
      (* 3. a fresh atom ranked before its key's holder takes the key *)
      for i = t.fresh_from to n - 1 do
        let atom = t.log.(i) in
        (match atom with
        | Avv (a, b, _, _) ->
            if a.id < t.fresh_var0 then touch a.id;
            if b.id < t.fresh_var0 then touch b.id
        | Avc (v, _, _, _) | Acv (_, v, _, _) ->
            if v.id < t.fresh_var0 then touch v.id);
        let o = key_owner t atom in
        if o <> i && t.ord.(o) > t.ord.(i) then transfer atom i
      done;
      (* 4. cold order for the chains and provenance involved, and the
         constant bounds of the vertices that lost one *)
      Hashtbl.iter
        (fun x () ->
          normalize_chain t ~succ:true x;
          normalize_chain t ~succ:false x;
          t.lo_reasons.(x) <- normalize_reasons t x 0 t.lo_reasons.(x);
          t.hi_reasons.(x) <- normalize_reasons t x 1 t.hi_reasons.(x))
        touched;
      let rlo = Hashtbl.create 16 and rhi = Hashtbl.create 16 in
      let qlo = Queue.create () and qhi = Queue.create () in
      let grow tbl q v bits =
        if bits <> 0 then begin
          let old = Option.value (Hashtbl.find_opt tbl v) ~default:0 in
          if bits land lnot old <> 0 then begin
            Hashtbl.replace tbl v (old lor bits);
            Queue.push v q
          end
        end
      in
      let rebound = ref [] in
      List.iter
        (function
          | Avc (v, c, m, _) ->
              let v = v.id in
              t.hi_bound.(v) <-
                List.fold_left
                  (fun acc (c, m, _) -> Elt.meet sp acc (Elt.embed_top sp ~mask:m c))
                  top t.hi_reasons.(v);
              rebound := v :: !rebound;
              grow rhi qhi v
                (lnot (Elt.embed_top sp ~mask:m c) land lnot t.hi.(v) land t.hi_bound.(v))
          | Acv (c, v, m, _) ->
              let v = v.id in
              t.lo_bound.(v) <-
                List.fold_left
                  (fun acc (c, m, _) -> Elt.join sp acc (Elt.embed_bottom sp ~mask:m c))
                  (Elt.bottom sp) t.lo_reasons.(v);
              rebound := v :: !rebound;
              grow rlo qlo v
                (Elt.embed_bottom sp ~mask:m c land t.lo.(v) land lnot t.lo_bound.(v))
          | Avv _ -> ())
        !removed;
      List.iter
        (function
          | Avv (a, b, m, _) ->
              let a = a.id and b = b.id in
              grow rlo qlo b (t.lo.(a) land m land t.lo.(b) land lnot t.lo_bound.(b));
              grow rhi qhi a (m land lnot t.hi.(b) land lnot t.hi.(a) land t.hi_bound.(a))
          | Avc _ | Acv _ -> ())
        !removed;
      (* 5. overdelete: the bits that may have flowed through a deleted
         atom, along surviving edges that carry them, except where the
         vertex's own constant bound supplies them *)
      while not (Queue.is_empty qlo) do
        let v = Queue.pop qlo in
        let r = Hashtbl.find rlo v in
        let e = ref t.succ_head.(v) in
        while !e >= 0 do
          let b = 3 * !e in
          e := t.ecells.(b + 2);
          let s = find_id t t.ecells.(b) in
          if s <> v then
            grow rlo qlo s
              (r land t.ecells.(b + 1) land t.lo.(s) land lnot t.lo_bound.(s))
        done
      done;
      while not (Queue.is_empty qhi) do
        let v = Queue.pop qhi in
        let z = Hashtbl.find rhi v in
        let e = ref t.pred_head.(v) in
        while !e >= 0 do
          let b = 3 * !e in
          e := t.ecells.(b + 2);
          let p = find_id t t.ecells.(b) in
          if p <> v then
            grow rhi qhi p
              (z land t.ecells.(b + 1) land lnot t.hi.(p) land t.hi_bound.(p))
        done
      done;
      Hashtbl.iter (fun v r -> t.lo.(v) <- t.lo.(v) land lnot r) rlo;
      Hashtbl.iter (fun v z -> t.hi.(v) <- t.hi.(v) lor z) rhi;
      (* 6. rederive the cone from its surviving inflow; the incremental
         solve below then closes it, together with the fresh atoms *)
      Hashtbl.iter
        (fun v _ ->
          let acc = ref (t.lo.(v) lor t.lo_bound.(v)) in
          let e = ref t.pred_head.(v) in
          while !e >= 0 do
            let b = 3 * !e in
            e := t.ecells.(b + 2);
            acc := !acc lor (t.lo.(find_id t t.ecells.(b)) land t.ecells.(b + 1))
          done;
          t.lo.(v) <- !acc)
        rlo;
      Hashtbl.iter
        (fun v _ ->
          let acc = ref (t.hi.(v) land t.hi_bound.(v)) in
          let e = ref t.succ_head.(v) in
          while !e >= 0 do
            let b = 3 * !e in
            e := t.ecells.(b + 2);
            let m = t.ecells.(b + 1) in
            acc :=
              !acc land ((t.hi.(find_id t t.ecells.(b)) land m) lor (top land lnot m))
          done;
          t.hi.(v) <- !acc)
        rhi;
      let recheck v =
        Hashtbl.remove t.errors v;
        mark_dirty t v
      in
      Hashtbl.iter (fun v _ -> recheck v) rlo;
      Hashtbl.iter (fun v _ -> if not (Hashtbl.mem rlo v) then recheck v) rhi;
      List.iter recheck !rebound;
      let reset =
        Hashtbl.length rlo
        + Hashtbl.fold (fun v _ n -> if Hashtbl.mem rlo v then n else n + 1) rhi 0
      in
      t.ground_errors <- ground;
      t.live_slices <- slices;
      t.fresh_from <- n;
      t.solved <- false;
      t.s_solve_s <- t.s_solve_s +. (Unix.gettimeofday () -. t0);
      ignore (solve t : (unit, error list) result);
      (* 7. an explanation reads the chains upstream of its variable,
         which the edit may have changed anywhere: explain every
         recorded violation afresh. An entry a solve recorded before its
         variable was unified into another class stands for that class,
         as a fresh store would record it. *)
      let merged = ref [] in
      Hashtbl.filter_map_inplace
        (fun i e ->
          if t.parent.(i) = i then Some { e with err_msg = explain t t.objs.(i) }
          else begin
            merged := find_id t i :: !merged;
            None
          end)
        t.errors;
      List.iter
        (fun r ->
          if (not (Hashtbl.mem t.errors r)) && not (Elt.leq sp t.lo.(r) t.hi_bound.(r))
          then
            Hashtbl.add t.errors r { err_var = Some t.objs.(r); err_msg = explain t t.objs.(r) })
        !merged;
      { rt_path = Decremental; rt_deleted = ndead; rt_reset = reset;
        rt_starts = List.map fst slices }

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
  for i = t.nvars - 1 downto 0 do
    if t.parent.(i) = i then begin
      t.lo.(i) <- t.lo_bound.(i);
      wl_push t i
    end
  done;
  while t.wl_head < t.wl_tail do
    let v = wl_pop t in
    t.s_pops <- t.s_pops + 1;
    let lov = Array.unsafe_get t.lo v in
    let e = ref (Array.unsafe_get t.succ_head v) in
    while !e >= 0 do
      let b = 3 * !e in
      e := Array.unsafe_get t.ecells (b + 2);
      let d = Array.unsafe_get t.ecells b in
      let s = if Array.unsafe_get t.parent d = d then d else find_id t d in
      if s <> v then begin
        let los = Array.unsafe_get t.lo s in
        let lo' = los lor (lov land Array.unsafe_get t.ecells (b + 1)) in
        if lo' <> los then begin
          Array.unsafe_set t.lo s lo';
          wl_push t s
        end
      end
    done
  done;
  wl_reset t

(* Same least solution computed by round-robin iteration to fixpoint, with
   no worklist. Kept as the ablation baseline for the micro-benchmarks. *)
let solve_least_naive t =
  for i = t.nvars - 1 downto 0 do
    if t.parent.(i) = i then t.lo.(i) <- t.lo_bound.(i)
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    for i = t.nvars - 1 downto 0 do
      if t.parent.(i) = i then begin
        let e = ref t.succ_head.(i) in
        while !e >= 0 do
          let cell = !e in
          let b = 3 * cell in
          e := t.ecells.(b + 2);
          let s = find_id t t.ecells.(b) in
          if s <> i then begin
            let lo' = t.lo.(s) lor (t.lo.(i) land t.ecells.(b + 1)) in
            if lo' <> t.lo.(s) then begin
              t.lo.(s) <- lo';
              changed := true
            end
          end
        done
      end
    done
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
   conservatively: a variable with any non-full-mask atom is kept.

   Atom dedup packs the (tag, var ids, const, mask) key into int-keyed
   [Iset] entries — the tag rides in the low bits of the first id — so no
   tuple is allocated and no polymorphic hashing runs. *)

let simplify_scheme t ~(interface : var list) (s : scheme) : scheme =
  let full = Lattice.Elt.full_mask t.sp in
  let sp = t.sp in
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
  (* dedup: key = (tag in low bits of id1, id2, const, mask) *)
  let seen = Iset.create ~cap:128 () in
  let seen_before = function
    | Avc (v, c, m, _) -> Iset.mem_add seen ((v.id lsl 2) lor 0) (-1) c m
    | Acv (c, v, m, _) -> Iset.mem_add seen ((v.id lsl 2) lor 1) (-1) c m
    | Avv (x, y, m, _) -> Iset.mem_add seen ((x.id lsl 2) lor 2) y.id 0 m
  in
  let atoms =
    ref
      (List.filter
         (fun a ->
           if seen_before a then false
           else begin
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

   Determinism matters downstream (a warm rerun must rebuild the scheme a
   cold run builds): the pass never consults representatives
   ([find_id]) or iterates a hashtable for output; surviving atoms keep
   their original order, composed atoms append in generation order, and
   the local list keeps its original order filtered to interface members
   and variables still mentioned. The atom-dedup keys are packed into
   int-keyed [Iset] entries exactly as in {!simplify_scheme}, but over
   [uid]s, which are unique across stores. *)
let compact ?(count = true) t ~(interface : var list) (s : scheme) : scheme =
  let c0 = Unix.gettimeofday () in
  let sp = t.sp in
  let nl = List.length s.locals and na = List.length s.atoms in
  if count then begin
    t.s_sv_before <- t.s_sv_before + nl;
    t.s_se_before <- t.s_se_before + na
  end;
  (* scratch tables sized to the scheme: most schemes are a handful of
     locals and atoms, and this runs once per SCC — fixed 64-bucket
     tables dominated the pass's allocation at scale *)
  let local_uids = Hashtbl.create (max 8 nl) in
  List.iter (fun v -> Hashtbl.replace local_uids v.uid ()) s.locals;
  let iface = Hashtbl.create (max 8 (List.length interface)) in
  List.iter (fun v -> Hashtbl.replace iface v.uid ()) interface;
  (* dedup + vacuous-drop filter; [seen] persists across passes: a key can
     only name a removed atom if one of its endpoints was eliminated, and
     composition never reproduces atoms on eliminated endpoints *)
  let seen =
    (* Iset caps are powers of two (the probe mask requires it) *)
    let rec pow2 c = if c >= na || c >= 128 then c else pow2 (2 * c) in
    Iset.create ~cap:(pow2 16) ()
  in
  let vacuous = function
    | Avc (_, c, m, _) -> Elt.leq_masked sp ~mask:m (Elt.top sp) c
    | Acv (c, _, m, _) -> Elt.leq_masked sp ~mask:m c (Elt.bottom sp)
    | Avv (x, y, m, _) -> x.uid = y.uid || m land Elt.full_mask sp = 0
  in
  let seen_before = function
    | Avc (v, c, m, _) -> Iset.mem_add seen ((v.uid lsl 2) lor 0) (-1) c m
    | Acv (c, v, m, _) -> Iset.mem_add seen ((v.uid lsl 2) lor 1) (-1) c m
    | Avv (x, y, m, _) -> Iset.mem_add seen ((x.uid lsl 2) lor 2) y.uid 0 m
  in
  let fresh_atom a = (not (vacuous a)) && not (seen_before a) in
  let atoms = ref (List.filter fresh_atom s.atoms) in
  let eliminated = Hashtbl.create (max 8 nl) in
  let changed = ref true in
  let passes = ref 0 in
  while !changed && !passes < 64 do
    changed := false;
    incr passes;
    let lowers = Hashtbl.create (max 8 nl)
    and uppers = Hashtbl.create (max 8 nl) in
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
  let mentioned = Hashtbl.create (max 8 nl) in
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
  if count then begin
    t.s_sv_after <- t.s_sv_after + List.length locals;
    t.s_se_after <- t.s_se_after + List.length !atoms
  end;
  t.s_compact_s <- t.s_compact_s +. (Unix.gettimeofday () -. c0);
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
   variable ids. Used by the property tests and the [solver] bench. *)
let atoms t =
  let acc = ref [] in
  for i = t.nlog - 1 downto t.fresh_from do
    acc := t.log.(i) :: !acc
  done;
  List.iter
    (fun (start, len) ->
      for i = start + len - 1 downto start do
        acc := t.log.(i) :: !acc
      done)
    (List.rev t.live_slices);
  !acc
let naive_bounds t = solve_atoms t.sp (atoms t)

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
