(** Atomic qualifier-constraint solver (Sections 3.1–3.2 of the paper) —
    flat-arena implementation.

    The constraint system and algorithms: masked atomic constraints
    over a Birkhoff-encoded lattice, insertion-time edge/bound dedup,
    incremental worklist solving with a monotone error table, and
    recorded constraint schemes with renaming instantiation. Every
    variable is its own graph node: propagation raises a variable's
    solution at most once per lattice bit (Section 3.1), so cycles need
    no special case.

    The {e representation} (DESIGN.md, "Flat-arena solver"):

    - Variable state (constant bounds, current least/greatest solution,
      adjacency heads) lives in dense [int] columns indexed by the
      creation-order id. A [var] handle is a tiny immutable record — id,
      name, uid — shared with atoms, schemes and error values.
    - Adjacency is a linked {e edge arena}: per logical edge one succ cell
      and one pred cell in the packed [ecells] arena, chained by the
      cell's next slot with
      prepend-to-head insertion, so enumeration order matches the old
      list-prepend order cell for cell.
    - The [(src, dst, mask)] edge-dedup and [(var, const, mask, side)]
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
}

and t = {
  sp : Space.t;
  mutable nvars : int;
  (* variable columns, indexed by id; grown together *)
  mutable objs : var array;  (* id -> the (unique) handle *)
  mutable lo_bound : int array;  (* join of constant lower bounds *)
  mutable hi_bound : int array;  (* meet of constant upper bounds *)
  mutable lo : int array;  (* least solution, valid after [solve] *)
  mutable hi : int array;  (* greatest solution *)
  mutable succ_head : int array;  (* head cell of the succ chain, -1 end *)
  mutable pred_head : int array;
  mutable lo_consts : (Elt.t * int) list array;
      (* one (const, mask) entry per distinct constant lower bound; the
         atom holding its dedup key carries the reason *)
  mutable hi_consts : (Elt.t * int) list array;
  (* edge arena: one cell per chain entry (two per logical edge) *)
  mutable ecells : int array;
      (* 3 ints per cell, adjacent: dst, mask, next — one cache line per
         traversal step, the reason the chains beat pointer-chased lists *)
  mutable necells : int;
  (* the atom log, insertion order *)
  mutable log : atom array;
  mutable nlog : int;
  mutable live_slices : (int * int) list;
      (* the live atoms below [fresh_from], as log slices in task order *)
  mutable slice_index : (int * int * int) array;
      (* [live_slices] as runs of the log, sorted by start: start,
         length, task rank of the first atom (see [rank]) *)
  mutable fresh_from : int;
      (* log entries from here on were added since the last {!checkpoint} *)
  mutable ground_errors : error list;
  errors : (int, error) Hashtbl.t;
      (* persistent bound-violation table, keyed by variable id;
         monotone since constraints are only added *)
  mutable recorders : atom list ref list;
  mutable solved : bool;
  (* dirty set: insertion-ordered stack + membership mark, which keeps
     each variable on the stack once *)
  mutable dirty_stack : int array;
  mutable ndirty : int;
  mutable dirty_mark : Bytes.t;
  (* propagation worklist: int ring buffer with monotonic head/tail over
     a power-of-two array, plus an in-queue byte mark *)
  mutable wl : int array;
  mutable wl_head : int;
  mutable wl_tail : int;
  mutable inq : Bytes.t;
  (* variables popped by the last propagate, in pop order *)
  mutable touched : int array;
  mutable ntouched : int;
  mutable fp_stamp : int array;
      (* generation-stamped variable mark for {!retract}'s key-transfer
         scan: a slot equal to [fp_gen] means marked this call — no
         per-call allocation *)
  mutable fp_gen : int;
  edge_seen : Iset.t;  (* (src, dst, mask, 0) *)
  bound_seen : Iset.t;
      (* ((var << 1) | is_upper, const, mask, 0): constant bounds already
         applied to a variable *)
  mutable budget : Budget.t option;
  mutable s_edges : int;
  mutable s_dedup : int;
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

let create space =
  {
    sp = space;
    nvars = 0;
    objs = [||];
    lo_bound = [||];
    hi_bound = [||];
    lo = [||];
    hi = [||];
    succ_head = [||];
    pred_head = [||];
    lo_consts = [||];
    hi_consts = [||];
    ecells = [||];
    necells = 0;
    log = [||];
    nlog = 0;
    live_slices = [];
    slice_index = [||];
    fresh_from = 0;
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
    budget = None;
    s_edges = 0;
    s_dedup = 0;
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
    edges_added = t.s_edges;
    edges_deduped = t.s_dedup;
    cycles_collapsed = 0;
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
    "vars %d, edges %d (%d deduped), solves %d incr + %d full, %d worklist \
     pops, %.3fs solving; compaction: scheme vars %d -> %d, scheme atoms %d \
     -> %d, %d memoized instantiations"
    s.vars_created s.edges_added s.edges_deduped s.incr_solves s.full_solves
    s.worklist_pops s.solve_s
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
  let cap = Array.length t.lo in
  if t.nvars >= cap then begin
    let cap' = if cap = 0 then 64 else cap * 2 in
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
     Array.blit t.lo_consts 0 b 0 cap;
     t.lo_consts <- b);
    (let b = Array.make cap' [] in
     Array.blit t.hi_consts 0 b 0 cap;
     t.hi_consts <- b);

    t.dirty_mark <- grow_bytes t.dirty_mark cap';
    t.inq <- grow_bytes t.inq cap';
    t.fp_stamp <- grow_int t.fp_stamp cap'
  end

let ensure_edge_capacity t =
  let cap = Array.length t.ecells / 3 in
  if t.necells >= cap then
    t.ecells <- grow_int t.ecells (3 * if cap = 0 then 256 else cap * 2)

let uid_counter = Atomic.make 0

let fresh ?(name = "q") t =
  let id = t.nvars in
  let v = { id; vname = name; uid = Atomic.fetch_and_add uid_counter 1 } in
  ensure_var_capacity t v;
  t.objs.(id) <- v;
  t.lo_bound.(id) <- Elt.bottom t.sp;
  t.hi_bound.(id) <- Elt.top t.sp;
  t.lo.(id) <- Elt.bottom t.sp;
  t.hi.(id) <- Elt.top t.sp;
  t.succ_head.(id) <- -1;
  t.pred_head.(id) <- -1;
  t.lo_consts.(id) <- [];
  t.hi_consts.(id) <- [];
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
  t.nlog <- t.nlog + 1

let mark_dirty t i =
  if Bytes.unsafe_get t.dirty_mark i = '\000' then begin
    Bytes.unsafe_set t.dirty_mark i '\001';
    let cap = Array.length t.dirty_stack in
    if t.ndirty >= cap then t.dirty_stack <- grow_int t.dirty_stack (cap * 2);
    t.dirty_stack.(t.ndirty) <- i;
    t.ndirty <- t.ndirty + 1
  end

let dirty_reset t =
  for k = 0 to t.ndirty - 1 do
    Bytes.unsafe_set t.dirty_mark t.dirty_stack.(k) '\000'
  done;
  t.ndirty <- 0

(* ------------------------------------------------------------------ *)
(* Task ranks                                                          *)
(* ------------------------------------------------------------------ *)

(* A log entry's task rank is its position in the order a cold store
   would have received the live atoms: the live slices in turn, then the
   atoms logged since the last {!checkpoint} (ranked by log index, which
   no live slice's rank reaches); -1 for an entry a retraction deleted.
   A store that was never retracted ranks every entry by its log index.
   Ranks are read from [slice_index], never stored per atom. Slices that
   follow each other both in task order and in the log share one entry,
   since their ranks run on: a store that kept its cold layout has a
   handful of entries, however many slices it has. *)
let set_live t slices =
  t.live_slices <- slices;
  let runs, _ =
    List.fold_left
      (fun (runs, k) (start, len) ->
        let runs =
          match runs with
          | _ when len = 0 -> runs
          | (s, l, r) :: rest when s + l = start -> (s, l + len, r) :: rest
          | _ -> (start, len, k) :: runs
        in
        (runs, k + len))
      ([], 0) slices
  in
  t.slice_index <-
    Array.of_list (List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) runs)

let rank t i =
  if i >= t.fresh_from then i
  else begin
    let ix = t.slice_index in
    (* the last slice starting at or before [i]: its start is <= i at
       [lo] and > i at [hi], with -1 and the slice count as sentinels *)
    let lo = ref (-1) and hi = ref (Array.length ix) in
    while !hi - !lo > 1 do
      let m = (!lo + !hi) / 2 in
      let start, _, _ = ix.(m) in
      if start <= i then lo := m else hi := m
    done;
    if !lo < 0 then -1
    else
      let start, len, r = ix.(!lo) in
      if i < start + len then r + i - start else -1
  end

let atom_reason = function
  | Avv (_, _, _, r) | Avc (_, _, _, r) | Acv (_, _, _, r) -> r

(* ------------------------------------------------------------------ *)
(* Adding constraints                                                  *)
(* ------------------------------------------------------------------ *)

let new_cell t dst mask next =
  ensure_edge_capacity t;
  let e = t.necells in
  let b = 3 * e in
  t.ecells.(b) <- dst;
  t.ecells.(b + 1) <- mask;
  t.ecells.(b + 2) <- next;
  t.necells <- e + 1;
  e

(* var <= const, restricted to the coordinates in [mask]. Constant bounds
   are deduplicated on insertion like edges: a repeated instantiation that
   re-derives an identical bound on the same variable is counted as
   deduped and adds nothing — in particular no [hi_consts] entry, so
   that list stops growing with the instantiation count. The dedup key
   packs the side flag into the variable id's low bit. *)
let add_leq_vc ?reason ?mask t v c =
  let mask = Option.value mask ~default:(Elt.full_mask t.sp) in
  log_atom t (Avc (v, c, mask, reason));
  let r = v.id in
  if Iset.mem_add t.bound_seen ((r lsl 1) lor 1) c mask 0 then
    t.s_dedup <- t.s_dedup + 1
  else begin
    Iset.set_owner t.bound_seen t.bound_seen.last (t.nlog - 1);
    t.hi_consts.(r) <- (c, mask) :: t.hi_consts.(r);
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
  let r = v.id in
  if Iset.mem_add t.bound_seen ((r lsl 1) lor 0) c mask 0 then
    t.s_dedup <- t.s_dedup + 1
  else begin
    Iset.set_owner t.bound_seen t.bound_seen.last (t.nlog - 1);
    t.lo_consts.(r) <- (c, mask) :: t.lo_consts.(r);
    let lb' = Elt.join t.sp t.lo_bound.(r) (Elt.embed_bottom t.sp ~mask c) in
    if lb' <> t.lo_bound.(r) then begin
      t.lo_bound.(r) <- lb';
      t.lo.(r) <- Elt.join t.sp t.lo.(r) lb';
      t.solved <- false;
      mark_dirty t r
    end
  end

(* var <= var, restricted to [mask]. A self-edge is vacuous and never
   logged, so no chain holds one. *)
let add_leq_vv ?reason ?mask t a b =
  if a != b then begin
    let mask = Option.value mask ~default:(Elt.full_mask t.sp) in
    log_atom t (Avv (a, b, mask, reason));
    let ra = a.id and rb = b.id in
    if Iset.mem_add t.edge_seen ra rb mask 0 then
      t.s_dedup <- t.s_dedup + 1
      (* the identical edge already exists: the system is unchanged,
         [solved] stays valid *)
    else begin
      t.s_edges <- t.s_edges + 1;
      Iset.set_owner t.edge_seen t.edge_seen.last (t.nlog - 1);
      t.succ_head.(ra) <- new_cell t rb mask t.succ_head.(ra);
      t.pred_head.(rb) <- new_cell t ra mask t.pred_head.(rb);
      t.solved <- false;
      mark_dirty t ra;
      mark_dirty t rb
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
   not allocate. Every popped variable is appended to [touched] so the
   caller can re-check bound violations on exactly the affected region. *)
let propagate t ~seed =
  let top = Elt.top t.sp in
  t.ntouched <- 0;
  (* A tripped budget drains the worklists without propagating: (lo, hi)
     are left partial, which is why budgeted runs are reported degraded
     and classified conservatively by the caller. *)
  (* least pass *)
  seed (wl_push t);
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
      let s = Array.unsafe_get t.ecells b in
      let los = Array.unsafe_get t.lo s in
      let lo' = los lor (lov land Array.unsafe_get t.ecells (b + 1)) in
      if lo' <> los then begin
        Array.unsafe_set t.lo s lo';
        wl_push t s
      end
    done
  done;
  wl_reset t;
  (* greatest pass: dual, meets along reversed edges *)
  seed (wl_push t);
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
      let p = Array.unsafe_get t.ecells b in
      let m = Array.unsafe_get t.ecells (b + 1) in
      let hip = Array.unsafe_get t.hi p in
      let hi' = hip land ((hiv land m) lor (top land lnot m)) in
      if hi' <> hip then begin
        Array.unsafe_set t.hi p hi';
        wl_push t p
      end
    done
  done;
  wl_reset t

(* [x]'s constant bounds on one side (1: upper) with the reason of the
   atom holding each one's key, newest holder first *)
let consts_by_rank t x side l =
  List.map
    (fun (c, m) ->
      let s = t.bound_seen in
      let o = Iset.owner s (Iset.find s ((x lsl 1) lor side) c m 0) in
      (rank t o, (c, m, atom_reason t.log.(o))))
    l
  |> List.sort (fun (r1, _) (r2, _) -> Int.compare r2 r1)
  |> List.map snd

(* Explain why [v]'s least solution violates its upper bound: find the
   offending coordinate, then walk backwards (BFS over a queue) to a
   constant lower bound that raised it. The walk reads each pred chain,
   and each list of constant bounds, in falling task rank of the atom
   holding the entry's key: the newest-first order a cold store's
   prepend-on-insert chains have, whatever order a retraction left them
   in. So which origin and reason the message names depends only on the
   live atoms in task order. *)
let explain t v =
  let vi = v.id in
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
  | None -> Fmt.str "%a: bound violation" pp_var v
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
                (consts_by_rank t u 0 t.lo_consts.(u))
            in
            found :=
              Some (u, Option.value reason ~default:"constant bound")
          else begin
            let preds = ref [] in
            let e = ref t.pred_head.(u) in
            while !e >= 0 do
              let b = 3 * !e in
              e := t.ecells.(b + 2);
              let p = t.ecells.(b) and m = t.ecells.(b + 1) in
              if m land mask <> 0 && coord_of t.lo.(p) = target then
                let o = Iset.owner t.edge_seen (Iset.find t.edge_seen p u m 0) in
                preds := (rank t o, p) :: !preds
            done;
            List.iter
              (fun (_, p) -> Queue.push p frontier)
              (List.sort (fun (r1, _) (r2, _) -> Int.compare r2 r1) !preds)
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
          (consts_by_rank t vi 1 t.hi_consts.(vi))
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
        q pp_var v levels
        Fmt.(option (any " (" ++ string ++ any ")"))
        bound_reason origin

(* Public query surface for store-resident clients (the analysis daemon):
   explain one variable on demand instead of scanning [last_errors]. *)
let explain_var t v =
  let vi = v.id in
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

(* Record a violation for every variable popped by the last
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
          push t.dirty_stack.(k)
        done);
    check_violations t;
    dirty_reset t;
    t.solved <- true;
    t.s_incr <- t.s_incr + 1;
    t.s_solve_s <- t.s_solve_s +. (Unix.gettimeofday () -. t0)
  end;
  result_of_errors t

(* Full solve: reset every variable to its bounds and propagate from
   everywhere (in reverse creation order, a fixed order that keeps the
   counters deterministic). The ablation baseline for incremental solving,
   and a self-check hook (the fixpoint is unique, so the results must
   agree). *)
let solve_from_scratch t =
  let t0 = Unix.gettimeofday () in
  for i = t.nvars - 1 downto 0 do
    t.lo.(i) <- t.lo_bound.(i);
    t.hi.(i) <- t.hi_bound.(i)
  done;
  propagate t ~seed:(fun push ->
      for i = t.nvars - 1 downto 0 do
        push i
      done);
  Hashtbl.reset t.errors;
  for i = t.nvars - 1 downto 0 do
    if not (Elt.leq t.sp t.lo.(i) t.hi_bound.(i)) then
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
  t.lo.(v.id)

let greatest t v =
  if not t.solved then ignore (solve t);
  t.hi.(v.id)

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
  verdict_of t.sp ~lo:t.lo.(v.id) ~hi:t.hi.(v.id) i

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
   [add_leq_cv] seeds it. Nothing in the store is written: the overlay,
   queue and result are private. *)
type speculation = {
  sp_store : t;
  sp_lo : (int, Elt.t) Hashtbl.t;
      (* variable id -> raised least solution; only raised ids *)
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
  let r = v.id in
  let lo' = Elt.join t.sp t.lo.(r) (Elt.embed_bottom t.sp ~mask c) in
  if lo' <> t.lo.(r) then raise_to r lo';
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    let lou = lo_of u in
    let e = ref (Array.unsafe_get t.succ_head u) in
    while !e >= 0 do
      let b = 3 * !e in
      e := Array.unsafe_get t.ecells (b + 2);
      let s = Array.unsafe_get t.ecells b in
      let los = lo_of s in
      let lo' = los lor (lou land Array.unsafe_get t.ecells (b + 1)) in
      if lo' <> los then raise_to s lo'
    done
  done;
  { sp_store = t; sp_lo = overlay; sp_raised = List.rev !raised }

let speculation_vars s = List.map (fun i -> s.sp_store.objs.(i)) s.sp_raised

let classify_speculative s v i =
  let t = s.sp_store in
  let r = v.id in
  let lo =
    match Hashtbl.find_opt s.sp_lo r with Some x -> x | None -> t.lo.(r)
  in
  verdict_of t.sp ~lo ~hi:t.hi.(r) i

(* the violations [solve] would add: [check_violations] over the raised
   variables, which are exactly the ones whose [lo] moves *)
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
   edges among the fresh copies. *)
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
(* Segments                                                           *)
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

(* ------------------------------------------------------------------ *)
(* Decremental retraction (delete-and-rederive)                        *)
(* ------------------------------------------------------------------ *)

(* Everything logged so far is the live store (or atoms a retraction
   will delete); everything logged after this point is the edit's fresh
   work, which the next [retract] keeps. *)
let checkpoint t =
  if t.nlog > t.fresh_from then
    set_live t (t.live_slices @ [ (t.fresh_from, t.nlog - t.fresh_from) ]);
  t.fresh_from <- t.nlog

type retraction = {
  rt_deleted : int;
  rt_reset : int;
  rt_starts : int list;
}

(* An atom's dedup key: the three leading key ints its insertion used,
   the last one saying which table (edge or bound). *)
let key_of = function
  | Avv (a, b, m, _) -> (a.id, b.id, m, true)
  | Avc (v, c, m, _) -> ((v.id lsl 1) lor 1, c, m, false)
  | Acv (c, v, m, _) -> (v.id lsl 1, c, m, false)

let key_slot t atom =
  let a, b, c, edge = key_of atom in
  let s = if edge then t.edge_seen else t.bound_seen in
  (s, Iset.find s a b c 0)

(* drop the cell [(dst, mask)], which must be there, from [x]'s chain in
   [heads] *)
let unlink t heads x dst mask =
  let rec go prev e =
    let b = 3 * e in
    let next = t.ecells.(b + 2) in
    if t.ecells.(b) <> dst || t.ecells.(b + 1) <> mask then go e next
    else if prev < 0 then heads.(x) <- next
    else t.ecells.((3 * prev) + 2) <- next
  in
  go (-1) heads.(x)

(* Move the live [slices] (log slices in task order, [live] atoms in
   all) down into a log of their own, and each dedup key's holder with
   its atom: afterwards the live atoms run from index 0 in task order,
   so an atom's rank is its index. Chains, solutions, bounds and errors
   name no log index and stay as they are. The log gets an eighth of
   headroom, so that the next edit's atoms do not double it at once.
   Returns each slice's new start. *)
let compact_log t slices live =
  let old = t.log in
  t.log <- (if live = 0 then [||] else Array.make (live + (live / 8)) old.(0));
  let moved_to = Array.make t.nlog (-1) in
  let starts =
    List.fold_left_map
      (fun at (start, len) ->
        Array.blit old start t.log at len;
        for k = 0 to len - 1 do
          moved_to.(start + k) <- at + k
        done;
        (at + len, at))
      0 slices
    |> snd
  in
  let remap (s : Iset.t) =
    for j = 0 to s.cap - 1 do
      if Bytes.get s.state j = '\001' then
        Iset.set_owner s j moved_to.(Iset.owner s j)
    done
  in
  remap t.edge_seen;
  remap t.bound_seen;
  t.nlog <- live;
  set_live t [ (0, live) ];
  t.fresh_from <- live;
  starts

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
     another live atom duplicates keeps the key, and the key passes to
     the holder of least task rank, the one a cold store inserted first
     (the fresh atoms, and the kept segments that moved ahead of one
     they used to follow, are checked the same way against the current
     holder); a key no live atom holds goes, with its two chain cells or
     its constant-bound entry;
   - the least-solution bits forward-reachable from a deleted atom's
     target and the greatest-solution bits backward-reachable from its
     source are reset where they could have come through it, then
     re-derived from the surviving atoms over that cone only; the fresh
     atoms' effects propagate in the same incremental solve;
   - violations are re-checked on the cone, every recorded message is
     re-explained on the repaired store, and the live ground violations
     are restored; the structural counters lose the deleted atoms'
     contributions.

   Chains keep whatever order the edits left: propagation reaches the
   same fixpoint in any order, and [explain] reads them by task rank.
   Ranks come from the slices (see [rank]), so a reordering of the kept
   segments costs only the re-check of the ones that moved ahead. Once
   dead log entries outnumber live ones, the repair ends with
   [compact_log], linear in the live log and so amortized over the
   deletions that made it due. A slice that names a deleted or repeated
   atom, and a fresh atom outside the slices, are caller errors. *)
let retract t ~(slices : (int * int) list) ~(ground : error list) : retraction =
  if t.recorders <> [] then invalid_arg "Solver.retract: inside a recording";
  let t0 = Unix.gettimeofday () in
  let n = t.nlog and fresh0 = t.fresh_from in
  (* per log entry: 1 while live (in a live slice, or fresh), 2 once a
     slice names it, 0 if an earlier retraction deleted it *)
  let state = Bytes.make n '\000' in
  List.iter (fun (start, len) -> Bytes.fill state start len '\001') t.live_slices;
  Bytes.fill state fresh0 (n - fresh0) '\001';
  let nlive = ref 0 in
  List.iter
    (fun (start, len) ->
      for i = start to start + len - 1 do
        if Bytes.get state i <> '\001' then
          invalid_arg "Solver.retract: a slice names a deleted or repeated atom";
        Bytes.set state i '\002'
      done;
      nlive := !nlive + len)
    slices;
  for i = fresh0 to n - 1 do
    if Bytes.get state i = '\001' then
      invalid_arg "Solver.retract: a fresh atom outside the slices"
  done;
  let dead = ref [] in
  for i = fresh0 - 1 downto 0 do
    if Bytes.get state i = '\001' then dead := i :: !dead
  done;
  let dead = !dead in
  let ndead = List.length dead in
  let sp = t.sp in
  let top = Elt.top sp in
  (* the kept segments that moved ahead of one they used to follow,
     by the ranks before this retraction (a kept slice lies inside
     one earlier live slice, so its ranks are consecutive) *)
  let moved = ref [] in
  ignore
    (List.fold_right
       (fun (start, len) least ->
         if len = 0 || start >= fresh0 then least
         else
           let r = rank t start in
           if r > least then moved := (start, len) :: !moved;
           min least r)
       slices max_int);
  (* from here on, ranks are the new task order *)
  set_live t slices;
  t.fresh_from <- n;
  (* 1. the dead atoms leave their keys *)
  let removed = ref [] and orphans = Hashtbl.create 8 in
  List.iter
    (fun i ->
      let atom = t.log.(i) in
      let s, j = key_slot t atom in
      let c = Iset.count_at s j - 1 in
      Iset.set_count s j c;
      if c > 0 then begin
        t.s_dedup <- t.s_dedup - 1;
        if rank t (Iset.owner s j) < 0 then Hashtbl.replace orphans (key_of atom) (-1)
      end
      else begin
        (match atom with
        | Avv (a, b, m, _) ->
            t.s_edges <- t.s_edges - 1;
            unlink t t.succ_head a.id b.id m;
            unlink t t.pred_head b.id a.id m
        | Avc (v, c, m, _) ->
            t.hi_consts.(v.id) <-
              List.filter (fun (c', m') -> c' <> c || m' <> m) t.hi_consts.(v.id)
        | Acv (c, v, m, _) ->
            t.lo_consts.(v.id) <-
              List.filter (fun (c', m') -> c' <> c || m' <> m) t.lo_consts.(v.id));
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
    Iset.set_owner s j i
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
  (* 3. an atom of a segment that moved ahead, or a fresh one, takes
     its key when it ranks before the key's holder *)
  let claim i =
    let s, j = key_slot t t.log.(i) in
    let o = Iset.owner s j in
    if o <> i && rank t o > rank t i then Iset.set_owner s j i
  in
  List.iter
    (fun (start, len) ->
      for i = start to start + len - 1 do
        claim i
      done)
    !moved;
  for i = fresh0 to n - 1 do
    claim i
  done;
  (* 4. the constant bounds of the vertices that lost one, and the
     overdelete's seeds *)
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
              (fun acc (c, m) -> Elt.meet sp acc (Elt.embed_top sp ~mask:m c))
              top t.hi_consts.(v);
          rebound := v :: !rebound;
          grow rhi qhi v
            (lnot (Elt.embed_top sp ~mask:m c) land lnot t.hi.(v) land t.hi_bound.(v))
      | Acv (c, v, m, _) ->
          let v = v.id in
          t.lo_bound.(v) <-
            List.fold_left
              (fun acc (c, m) -> Elt.join sp acc (Elt.embed_bottom sp ~mask:m c))
              (Elt.bottom sp) t.lo_consts.(v);
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
      let s = t.ecells.(b) in
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
      let p = t.ecells.(b) in
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
        acc := !acc lor (t.lo.(t.ecells.(b)) land t.ecells.(b + 1))
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
          !acc land ((t.hi.(t.ecells.(b)) land m) lor (top land lnot m))
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
  t.solved <- false;
  t.s_solve_s <- t.s_solve_s +. (Unix.gettimeofday () -. t0);
  ignore (solve t : (unit, error list) result);
  (* 7. an explanation reads the chains upstream of its variable,
     which the edit may have changed anywhere: explain every
     recorded violation afresh *)
  Hashtbl.filter_map_inplace
    (fun i e -> Some { e with err_msg = explain t t.objs.(i) })
    t.errors;
  (* 8. a log more dead than live is compacted *)
  let starts =
    if n - !nlive > !nlive then compact_log t slices !nlive else List.map fst slices
  in
  { rt_deleted = ndead; rt_reset = reset; rt_starts = starts }

let pp_atom sp ppf = function
  | Avc (v, c, _, _) -> Fmt.pf ppf "%a <= %a" pp_var v (Elt.pp_full sp) c
  | Acv (c, v, _, _) -> Fmt.pf ppf "%a <= %a" (Elt.pp_full sp) c pp_var v
  | Avv (a, b, _, _) -> Fmt.pf ppf "%a <= %a" pp_var a pp_var b

let error_message e = e.err_msg

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

   Cycles through interface variables need no special case: they survive
   as composed edge chains, which instantiation re-emits as edges.

   Determinism matters downstream (a warm rerun must rebuild the scheme a
   cold run builds): the pass never consults store state or iterates a
   hashtable for output; surviving atoms keep
   their original order, composed atoms append in generation order, and
   the local list keeps its original order filtered to interface members
   and variables still mentioned. The atom-dedup keys are packed into
   int-keyed [Iset] entries — the tag rides in the low bits of the first
   [uid] (unique across stores) — so no tuple is allocated and no
   polymorphic hashing runs. *)
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

(* The dense numbering of variable ids: linear probing over a
   power-of-two table (ids are creation-order, so [id land mask] spreads
   them evenly), grown at half load. *)
module Dense = struct
  type t = { mutable keys : int array; mutable idx : int array; mutable n : int }

  let create () = { keys = Array.make 64 (-1); idx = Array.make 64 0; n = 0 }

  (* the slot holding [id], or the empty slot that ends its probe run *)
  let slot d id =
    let m = Array.length d.keys - 1 in
    let rec go i =
      let k = Array.unsafe_get d.keys i in
      if k = id || k < 0 then i else go ((i + 1) land m)
    in
    go (id land m)

  (* [id]'s index, or -1 *)
  let find d id =
    let i = slot d id in
    if d.keys.(i) = id then d.idx.(i) else -1

  (* [id]'s index, numbering it on first sight *)
  let rec add d id =
    let i = slot d id in
    if d.keys.(i) = id then d.idx.(i)
    else if 2 * d.n < Array.length d.keys then begin
      d.keys.(i) <- id;
      d.idx.(i) <- d.n;
      d.n <- d.n + 1;
      d.n - 1
    end
    else begin
      let keys = d.keys and idx = d.idx in
      d.keys <- Array.make (2 * Array.length keys) (-1);
      d.idx <- Array.make (2 * Array.length keys) 0;
      Array.iteri
        (fun j k ->
          if k >= 0 then begin
            let i = slot d k in
            d.keys.(i) <- k;
            d.idx.(i) <- idx.(j)
          end)
        keys;
      add d id
    end
end

(* Least/greatest solutions of a bare atom list, computed with local
   arrays and without touching any store or variable record. Variables not
   mentioned default to (bottom, top). Used to summarize schemes in
   isolation (polymorphic recursion's convergence test) and as the
   certificates' oracle.

   The ids are dense-indexed in first-mention order and the edges laid out
   as flat successor and predecessor arrays (counting sort by endpoint).
   [lo] is pushed forward along successors and [hi] backward along
   predecessors by two worklists; a variable is queued again only when
   its bound moves, which happens at most once per lattice bit, so the
   pass is linear in atoms × bits (Section 3.1). It shares no code with
   the store. *)
let solve_atoms sp (atoms : atom list) : int -> Elt.t * Elt.t =
  let bot = Elt.bottom sp and top = Elt.top sp in
  let index = Dense.create () in
  let dense (v : var) = Dense.add index v.id in
  (* pass 1: number the variables, remembering each atom's endpoints *)
  let na = List.length atoms in
  let ends = Array.make (2 * na) 0 in
  let ne = ref 0 in
  List.iteri
    (fun k -> function
      | Avc (v, _, _, _) | Acv (_, v, _, _) -> ends.(2 * k) <- dense v
      | Avv (x, y, _, _) ->
          ends.(2 * k) <- dense x;
          ends.((2 * k) + 1) <- dense y;
          incr ne)
    atoms;
  let n = index.n and ne = !ne in
  (* pass 2: the constant bounds and the edge list *)
  let lo = Array.make n bot and hi = Array.make n top in
  let esrc = Array.make ne 0 and edst = Array.make ne 0 in
  let emask = Array.make ne 0 in
  let e = ref 0 in
  List.iteri
    (fun k -> function
      | Acv (c, _, m, _) ->
          let i = ends.(2 * k) in
          lo.(i) <- Elt.join sp lo.(i) (Elt.embed_bottom sp ~mask:m c)
      | Avc (_, c, m, _) ->
          let i = ends.(2 * k) in
          hi.(i) <- Elt.meet sp hi.(i) (Elt.embed_top sp ~mask:m c)
      | Avv (_, _, m, _) ->
          esrc.(!e) <- ends.(2 * k);
          edst.(!e) <- ends.((2 * k) + 1);
          emask.(!e) <- m;
          incr e)
    atoms;
  (* [adj ~key ~other]: the edges grouped by [key] endpoint, as a start
     offset per variable and the [other] endpoint and mask per edge *)
  let adj ~key ~other =
    let start = Array.make (n + 1) 0 in
    for e = 0 to ne - 1 do
      start.(key.(e) + 1) <- start.(key.(e) + 1) + 1
    done;
    for i = 1 to n do
      start.(i) <- start.(i) + start.(i - 1)
    done;
    let fill = Array.sub start 0 n in
    let nbr = Array.make ne 0 and msk = Array.make ne 0 in
    for e = 0 to ne - 1 do
      let k = key.(e) in
      nbr.(fill.(k)) <- other.(e);
      msk.(fill.(k)) <- emask.(e);
      fill.(k) <- fill.(k) + 1
    done;
    (start, nbr, msk)
  in
  (* a worklist over one direction: [step m x y] is [y]'s bound after
     [x]'s flows into it along an edge of mask [m] *)
  let propagate bound (start, nbr, msk) ~unset step =
    (* a ring of [n] slots: [queued] keeps each variable in it at most
       once *)
    let queue = Array.make (max n 1) 0 and queued = Bytes.make n '\000' in
    let head = ref 0 and len = ref 0 in
    let push i =
      if Bytes.unsafe_get queued i = '\000' then begin
        Bytes.unsafe_set queued i '\001';
        queue.((!head + !len) mod n) <- i;
        incr len
      end
    in
    for i = 0 to n - 1 do
      if not (Elt.equal bound.(i) unset) then push i
    done;
    while !len > 0 do
      let x = queue.(!head) in
      head := (!head + 1) mod n;
      decr len;
      Bytes.unsafe_set queued x '\000';
      for e = start.(x) to start.(x + 1) - 1 do
        let y = nbr.(e) in
        let b = step msk.(e) bound.(x) bound.(y) in
        if not (Elt.equal b bound.(y)) then begin
          bound.(y) <- b;
          push y
        end
      done
    done
  in
  propagate lo (adj ~key:esrc ~other:edst) ~unset:bot (fun m x y ->
      Elt.join sp y (Elt.embed_bottom sp ~mask:m x));
  propagate hi (adj ~key:edst ~other:esrc) ~unset:top (fun m x y ->
      Elt.meet sp y (Elt.embed_top sp ~mask:m x));
  fun id ->
    match Dense.find index id with -1 -> (bot, top) | i -> (lo.(i), hi.(i))

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
   {!compact} for readable output. *)
let pp_scheme space ppf (s : scheme) =
  Fmt.pf ppf "∀%a. {%a}"
    (Fmt.list ~sep:(Fmt.any " ") pp_var)
    s.locals
    (Fmt.list ~sep:(Fmt.any ", ") (pp_atom space))
    s.atoms
