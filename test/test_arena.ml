(* Certificates for the flat-arena solver: on random op sequences, the
   store reports the least and greatest solutions of the atoms it logged
   (§3.1), recomputed by the store-free evaluator [Solver.solve_atoms],
   and fails exactly when that solution breaks a bound. Two pinned
   digests on a fixed-seed op stream freeze its solutions and what the
   definition does not fix: counters and error messages. Plus
   determinism of the multi-file cbench corpora and the multi-file
   Session entry point. *)

open Typequal
module S = Solver
module Sp = Lattice.Space
module E = Lattice.Elt

(* ------------------------------------------------------------------ *)
(* Random op sequences                                                 *)
(* ------------------------------------------------------------------ *)

type op =
  | Edge of int * int * int          (* a <= b under mask *)
  | Lower of E.t * int * int         (* c <= a under mask *)
  | Upper of int * E.t * int         (* a <= c under mask *)
  | Eqvv of int * int * int
  | Eqvc of int * E.t * int
  | Ground of E.t * E.t * int        (* c1 <= c2: ground check *)
  | Solve
  | Full

(* One scenario: a qualifier space, a variable count and an op list,
   drawn from the in-repo PRNG. The properties draw a random seed; the
   pinned digests use a fixed one, so they depend on no library
   version. *)
let scenario rng =
  let rint = Cbench.Rng.int rng in
  let nq = 1 + rint 6 in
  let sp =
    Sp.create
      (List.init nq (fun i ->
           if rint 2 = 0 then Qualifier.positive (Printf.sprintf "p%d" i)
           else Qualifier.negative (Printf.sprintf "n%d" i)))
  in
  let full = E.full_mask sp in
  let n = 2 + rint 19 in
  (* [let] sequences the draws, which a constructor's arguments would
     not *)
  let var () = rint n in
  let elt () = rint (full + 1) in
  let mask () = if rint 5 < 3 then full else rint (full + 1) in
  let op () =
    match rint 14 with
    | 0 | 1 | 2 | 3 | 4 ->
        let a = var () in
        let b = var () in
        Edge (a, b, mask ())
    | 5 | 6 ->
        let c = elt () in
        let a = var () in
        Lower (c, a, mask ())
    | 7 | 8 ->
        let a = var () in
        let c = elt () in
        Upper (a, c, mask ())
    | 9 ->
        let a = var () in
        let b = var () in
        Eqvv (a, b, mask ())
    | 10 ->
        let a = var () in
        let c = elt () in
        Eqvc (a, c, mask ())
    | 11 ->
        let c1 = elt () in
        let c2 = elt () in
        Ground (c1, c2, mask ())
    | 12 -> Solve
    | _ -> Full
  in
  let len = 5 + rint 76 in
  (sp, n, List.init len (fun _ -> op ()))

let scenario_prop ~name f =
  QCheck2.Test.make ~count:300 ~name ~print:(Printf.sprintf "seed %d")
    QCheck2.Gen.int (fun seed ->
      let sp, n, ops = scenario (Cbench.Rng.create seed) in
      f sp n ops)

let pinned_scenarios =
  lazy
    (let rng = Cbench.Rng.create 0x51A7 in
     List.init 300 (fun _ -> scenario rng))

(* ------------------------------------------------------------------ *)
(* What a run leaves behind                                            *)
(* ------------------------------------------------------------------ *)

type run = {
  sp : Sp.t;
  st : S.t;  (* the store that was solved *)
  vars : S.var array;  (* the scenario's variables, as [st] names them *)
  atoms : S.atom list;  (* [st]'s whole atom log *)
  failed : bool;  (* [st]'s final solve returned [Error] *)
  ground_failed : bool;  (* a [Ground] op failed in [st] itself *)
}

let apply st v = function
  | Edge (a, b, m) -> S.add_leq_vv ~mask:m st v.(a) v.(b)
  | Lower (c, a, m) -> S.add_leq_cv ~mask:m st c v.(a)
  | Upper (a, c, m) -> S.add_leq_vc ~mask:m st v.(a) c
  | Eqvv (a, b, m) -> S.add_eq_vv ~mask:m st v.(a) v.(b)
  | Eqvc (a, c, m) -> S.add_eq_vc ~mask:m st v.(a) c
  | Ground (c1, c2, m) -> S.add_leq_cc ~mask:m st c1 c2
  | Solve -> ignore (S.solve st)
  | Full -> ignore (S.solve_from_scratch st)

(* apply [ops] to a fresh store, recording the atoms they add (the
   store's whole log), then solve *)
let serial sp n ops =
  let st = S.create sp in
  let vars = Array.init n (fun _ -> S.fresh st) in
  let ground_failed =
    List.exists
      (function
        | Ground (c1, c2, m) -> not (E.leq_masked sp ~mask:m c1 c2)
        | _ -> false)
      ops
  in
  let (), atoms = S.recording st (fun () -> List.iter (apply st vars) ops) in
  assert (List.length atoms = S.num_atoms st);
  let failed = Result.is_error (S.solve st) in
  { sp; st; vars; atoms; failed; ground_failed }

let solution r = Array.map (fun v -> (S.least r.st v, S.greatest r.st v)) r.vars

(* ------------------------------------------------------------------ *)
(* The certificate                                                     *)
(* ------------------------------------------------------------------ *)

(* [solution] is the least and greatest solution of [r.atoms], and the
   store failed exactly when that least solution breaks an upper bound
   ([Avc] atom) or a ground constraint failed. The atoms are re-solved
   by the store-free evaluator, which shares no code with the arena. *)
let certify r solution =
  let nb = S.solve_atoms r.sp r.atoms in
  let agrees v (lo, hi) =
    let lo', hi' = nb (S.var_id v) in
    E.equal lo lo' && E.equal hi hi'
  in
  let over = function
    | S.Avc (v, c, m, _) -> not (E.leq_masked r.sp ~mask:m (fst (nb (S.var_id v))) c)
    | _ -> false
  in
  Array.for_all2 agrees r.vars solution
  && r.failed = (List.exists over r.atoms || r.ground_failed)

let prop_serial_certificate =
  scenario_prop ~name:"certificate: serial solve = least solution of its log"
    (fun sp n ops ->
      let r = serial sp n ops in
      certify r (solution r))

(* A certificate that cannot fail is not a check: a flipped [lo] bit, a
   dropped [Avv]/[Acv] atom, or a flipped verdict must each be rejected.
   The chain [top <= v0 <= v1 <= ...] makes every atom matter. *)
let test_certificate_rejects_tampering () =
  let sp = Cqual.Analysis.const_space in
  let full = E.full_mask sp in
  let n = 6 in
  let chain =
    Lower (E.top sp, 0, full) :: List.init (n - 1) (fun i -> Edge (i, i + 1, full))
  in
  let r = serial sp n chain in
  let sol = solution r in
  Alcotest.(check bool) "untampered run certifies" true (certify r sol);
  Array.iteri
    (fun i (lo, hi) ->
      let sol' = Array.copy sol in
      sol'.(i) <- (lo lxor 1, hi);
      Alcotest.(check bool)
        (Printf.sprintf "lo bit of v%d flipped" i)
        false (certify r sol'))
    sol;
  List.iteri
    (fun k a ->
      match a with
      | S.Avc _ -> ()
      | S.Avv _ | S.Acv _ ->
          let atoms = List.filteri (fun j _ -> j <> k) r.atoms in
          Alcotest.(check bool)
            (Printf.sprintf "atom %d dropped" k)
            false (certify { r with atoms } sol))
    r.atoms;
  Alcotest.(check bool) "verdict flipped" false
    (certify { r with failed = not r.failed } sol)

(* ------------------------------------------------------------------ *)
(* Pinned digests: what the definition does not fix                    *)
(* ------------------------------------------------------------------ *)

(* per-variable solutions *)
let observe_solutions r =
  let b = Buffer.create 512 in
  Array.iteri
    (fun i (lo, hi) ->
      Buffer.add_string b (Fmt.str "%d: %a / %a\n" i (E.pp r.sp) lo (E.pp r.sp) hi))
    (solution r);
  Buffer.contents b

(* counters (wall-clock and machine fields excluded) and error messages *)
let observe_errors r =
  let s = S.stats r.st in
  String.concat ""
    (Printf.sprintf "vars=%d edges=%d deduped=%d incr=%d full=%d pops=%d\n"
       s.S.vars_created s.S.edges_added s.S.edges_deduped s.S.incr_solves
       s.S.full_solves s.S.worklist_pops
    :: List.map (fun e -> "error " ^ S.error_message e ^ "\n") (S.last_errors r.st))

let pinned_digest observe =
  let all =
    List.map
      (fun (sp, n, ops) -> observe (serial sp n ops))
      (Lazy.force pinned_scenarios)
  in
  Digest.to_hex (Digest.string (String.concat "" all))

(* The solutions are the least and greatest solutions of the atoms, so
   this digest moves only if the op stream or the lattice encoding
   does. *)
let test_pinned_solutions () =
  Alcotest.(check string) "serial solutions digest"
    "7265c299098f8447d9dc8bb8be3bb64d"
    (pinned_digest observe_solutions)

(* What the definition does not fix: the counters, and which variables
   carry an error with which message. A change here means the solver's
   insertion, dedup or worklist order, or its explanations, moved; CI's
   --stats diffs against the base branch watch the counters on real
   programs. *)
let test_pinned_errors () =
  Alcotest.(check string) "serial errors and counters digest"
    "a502a2701444367cae240fe0faf852e3"
    (pinned_digest observe_errors)

(* ------------------------------------------------------------------ *)
(* Decremental retraction = a fresh store fed the survivors            *)
(* ------------------------------------------------------------------ *)

(* A warm client's store over segments: each segment (one task) makes a
   few variables of its own and adds atoms over them and the shared
   ones. An edit keeps some of the current segments, drops the rest and
   runs fresh ones at chosen places in the task order; then [retract]
   drops the dead atoms. The reference is what [retract] promises: a
   fresh store that makes the same variables and is fed the live
   segments' atoms in task order. *)
type seg = { own : int; sops : op list }

type step = Keep of int | Fresh of seg

let gen_seg rng sp n =
  let rint = Cbench.Rng.int rng in
  let full = E.full_mask sp in
  let own = rint 4 in
  let shared () = rint n in
  (* a variable of the segment's own when it has any *)
  let mine () = if own = 0 then rint n else n + rint own in
  let var () = rint (n + own) in
  (* constants mostly at the ends, so duplicate bounds (and the
     violations whose messages name their reasons) are common *)
  let elt () =
    match rint 4 with 0 -> E.top sp | 1 -> E.bottom sp | _ -> rint (full + 1)
  in
  let mask () = if rint 5 < 3 then full else rint (full + 1) in
  let edge a b = Edge (a, b, mask ()) in
  (* mostly task-shaped: edges among its own variables and reads of the
     shared ones, fewer writes back; then bounds, the odd cycle and
     duplicate shared edges (dedup and key transfer) *)
  let op () =
    match rint 18 with
    | 0 | 1 | 2 | 3 ->
        let a = mine () in
        let b = mine () in
        edge a b
    | 4 | 5 ->
        let a = shared () in
        let b = mine () in
        edge a b
    | 6 ->
        let a = mine () in
        let b = shared () in
        edge a b
    | 7 ->
        let a = shared () in
        let b = shared () in
        Edge (a, b, full)
    | 8 | 9 ->
        let c = elt () in
        let a = var () in
        Lower (c, a, mask ())
    | 10 | 11 ->
        let a = var () in
        let c = elt () in
        Upper (a, c, mask ())
    | 12 ->
        let a = var () in
        let b = var () in
        Eqvv (a, b, mask ())
    | 13 ->
        let a = var () in
        let c = elt () in
        Eqvc (a, c, mask ())
    | 14 ->
        let c1 = elt () in
        let c2 = elt () in
        Ground (c1, c2, mask ())
    | 15 -> Solve
    | _ ->
        let a = mine () in
        let b = var () in
        edge a b
  in
  let sops = List.init (1 + rint 8) (fun _ -> op ()) in
  (* now and then a hub: a shared variable read by some seventy own
     variables, a long pred chain for [explain] to read in task order *)
  if rint 6 = 0 then
    let h = shared () and k = 66 + rint 8 in
    { own = own + k; sops = List.init k (fun i -> Edge (h, n + own + i, full)) @ sops }
  else { own; sops }

let gen_edit rng sp n ntasks =
  let rint = Cbench.Rng.int rng in
  let kept =
    Array.of_list (List.filter (fun _ -> rint 10 < 7) (List.init ntasks Fun.id))
  in
  (* now and then two kept tasks trade places, as when an edit to the
     call graph changes the order its components come out in *)
  let nk = Array.length kept in
  if nk >= 2 && rint 3 = 0 then begin
    let i = rint nk and j = rint nk in
    let x = kept.(i) in
    kept.(i) <- kept.(j);
    kept.(j) <- x
  end;
  let steps = ref (Array.to_list (Array.map (fun i -> Keep i) kept)) in
  for _ = 1 to rint 4 do
    let at = rint (List.length !steps + 1) in
    let seg = gen_seg rng sp n in
    steps := List.filteri (fun i _ -> i < at) !steps @ (Fresh seg :: List.filteri (fun i _ -> i >= at) !steps)
  done;
  !steps

let decr_scenario rng =
  let sp, n, _ = scenario rng in
  let n = max 6 (min n 12) in
  let rint = Cbench.Rng.int rng in
  let base = List.init (1 + rint 8) (fun _ -> gen_seg rng sp n) in
  let ntasks = ref (List.length base) in
  let edits =
    List.init (1 + rint 3) (fun _ ->
        let e = gen_edit rng sp n !ntasks in
        ntasks := List.length e;
        e)
  in
  (sp, n, base, edits)

(* a segment as run: its log slice and ground violations, and what a
   replay needs: the ids of its own variables, and its number, which
   names its atoms' reasons *)
type task = {
  log0 : int;
  len : int;
  ground : S.error list;
  seg : seg;
  own_ids : int array;
  num : int;
}

type warm = {
  wst : S.t;
  nshared : int;
  live : task list;  (* in task order *)
  compactions : int;  (* retractions that compacted the atom log *)
}

(* add a segment's ops over [v] (the shared variables, then its own);
   every atom gets a reason of its own, so the error messages show which
   of two duplicate atoms holds a key. Without [solves] the [Solve] ops
   are skipped. *)
let feed ?(solves = true) st v num seg =
  List.iteri
    (fun k op ->
      let reason = Printf.sprintf "s%d.%d" num k in
      match op with
      | Edge (a, b, m) -> S.add_leq_vv ~reason ~mask:m st v.(a) v.(b)
      | Lower (c, a, m) -> S.add_leq_cv ~reason ~mask:m st c v.(a)
      | Upper (a, c, m) -> S.add_leq_vc ~reason ~mask:m st v.(a) c
      | Eqvv (a, b, m) -> S.add_eq_vv ~reason ~mask:m st v.(a) v.(b)
      | Eqvc (a, c, m) -> S.add_eq_vc ~reason ~mask:m st v.(a) c
      | Solve when not solves -> ()
      | op -> apply st v op)
    seg.sops

(* run the base segments, then each edit followed by a [retract];
   [after] sees the warm store after every retraction *)
let warm_run ?(after = fun _ -> ()) (sp, n, base, edits) =
  let st = S.create sp in
  let shared = Array.init n (fun _ -> S.fresh st) in
  let nsegs = ref 0 in
  let run_seg seg =
    let m = S.mark st in
    let own = Array.init seg.own (fun _ -> S.fresh st) in
    incr nsegs;
    feed st (Array.append shared own) !nsegs seg;
    { log0 = S.mark_log m; len = S.num_atoms st - S.mark_log m;
      ground = S.ground_since st m; seg; own_ids = Array.map S.var_id own;
      num = !nsegs }
  in
  let tasks = ref (List.map run_seg base) in
  ignore (S.solve st);
  let compactions = ref 0 in
  let warm () = { wst = st; nshared = n; live = !tasks; compactions = !compactions } in
  List.iter
    (fun edit ->
      S.checkpoint st;
      let next =
        List.rev
          (List.fold_left
             (fun acc step ->
               (match step with Keep i -> List.nth !tasks i | Fresh seg -> run_seg seg)
               :: acc)
             [] edit)
      in
      let before = S.num_atoms st in
      let rt =
        S.retract st
          ~slices:(List.map (fun t -> (t.log0, t.len)) next)
          ~ground:(List.fold_left (fun acc t -> t.ground @ acc) [] next)
      in
      (* only a compaction shortens the log *)
      if S.num_atoms st < before then incr compactions;
      tasks := List.map2 (fun t at -> { t with log0 = at }) next rt.S.rt_starts;
      after (warm ()))
    edits;
  warm ()

(* The reference, through the public API only: the same variables (same
   ids), then the live segments' atoms in task order with their
   reasons, then one solve. A [Solve] op inside a segment is not
   replayed: it would explain a violation on a store that has not yet
   seen every atom, while [retract] explains them all on the final
   one. *)
let fresh_store sp w =
  let st = S.create sp in
  let vars = Array.init (S.num_vars w.wst) (fun _ -> S.fresh st) in
  let shared = Array.sub vars 0 w.nshared in
  List.iter
    (fun t ->
      feed ~solves:false st
        (Array.append shared (Array.map (fun i -> vars.(i)) t.own_ids))
        t.num t.seg)
    w.live;
  ignore (S.solve st);
  st

let atom_key = function
  | S.Avc (v, c, m, r) -> (0, S.var_id v, c, m, r)
  | S.Acv (c, v, m, r) -> (1, S.var_id v, c, m, r)
  | S.Avv (a, b, m, r) -> (2, S.var_id a, S.var_id b * 1000 + m, 0, r)

(* everything a client can observe of a solved store *)
let observe sp st =
  let s = S.stats st in
  let vars = List.init (S.num_vars st) (S.var_of_id st) in
  ( List.map (fun v -> (S.least st v, S.greatest st v)) vars,
    List.map S.error_message (S.last_errors st),
    (s.S.edges_added, s.S.edges_deduped),
    List.map atom_key (S.atoms st),
    (* the certificate: the store's solution is the least solution of
       the atoms it reports as live *)
    (let nb = S.solve_atoms sp (S.atoms st) in
     List.for_all
       (fun v ->
         let lo, hi = nb (S.var_id v) in
         E.equal lo (S.least st v) && E.equal hi (S.greatest st v))
       vars) )

let agrees sp w =
  let (_, _, _, _, cert) as o = observe sp w.wst in
  cert && o = observe sp (fresh_store sp w)

let decremental_agrees sc =
  let sp, _, _, _ = sc in
  agrees sp (warm_run sc)

let prop_decremental =
  QCheck2.Test.make ~count:300
    ~name:"retract: decremental delete = rebuild over the survivors"
    ~print:(Printf.sprintf "seed %d") QCheck2.Gen.int (fun seed ->
      decremental_agrees (decr_scenario (Cbench.Rng.create seed)))

(* Fixed streams of 320 edits over twelve tasks, each edit re-running
   about a third of the tasks (and now and then trading two kept ones'
   places): dead atoms pile up fast, so the log is compacted again and
   again. After every retraction the log holds at most twice the live
   atoms, and the store agrees with a fresh one. Fewer shared variables
   make more atoms share a key, more make longer chains to explain. *)
let log_bound_stream n =
  let rng = Cbench.Rng.create 0xDEC in
  let rint = Cbench.Rng.int rng in
  let sp, _, _ = scenario rng in
  let base = List.init 12 (fun _ -> gen_seg rng sp n) in
  let segs = ref (Array.of_list base) in
  let edits =
    List.init 320 (fun _ ->
        let k = Array.length !segs in
        let order = Array.init k Fun.id in
        if rint 3 = 0 then begin
          let i = rint k and j = rint k in
          let x = order.(i) in
          order.(i) <- order.(j);
          order.(j) <- x
        end;
        let steps =
          Array.map (fun i -> if rint 3 = 0 then Fresh !segs.(i) else Keep i) order
        in
        segs := Array.map (fun i -> !segs.(i)) order;
        Array.to_list steps)
  in
  let edits_seen = ref 0 in
  let w =
    warm_run
      ~after:(fun w ->
        incr edits_seen;
        let live = List.length (S.atoms w.wst) in
        if S.num_atoms w.wst > 2 * live then
          Alcotest.failf "%d shared, edit %d: %d log entries for %d live atoms" n
            !edits_seen (S.num_atoms w.wst) live;
        if not (agrees sp w) then
          Alcotest.failf "%d shared, edit %d: differs from a fresh store" n !edits_seen)
      (sp, n, base, edits)
  in
  Alcotest.(check int) "every edit retracted" 320 !edits_seen;
  Alcotest.(check bool)
    (Printf.sprintf "%d shared: %d compactions" n w.compactions)
    true (w.compactions >= 20)

let test_log_bound () = List.iter log_bound_stream [ 6; 10 ]

(* a fixed scenario over three shared variables of the const space:
   every edit agrees with a fresh store *)
let in_place name base edits =
  let sc = (Cqual.Analysis.const_space, 3, base, edits) in
  Alcotest.(check bool) (name ^ ": agrees with a fresh store") true (decremental_agrees sc)

let seg sops = { own = 0; sops }

(* cycles need no special case: a dead atom on a cycle (the edge that carried
   [1]'s bound back to [0]) and a fresh atom that closes one are deleted
   and inserted in place *)
let test_decremental_cycles () =
  let sp = Cqual.Analysis.const_space in
  let full = E.full_mask sp in
  in_place "dead atom on a cycle"
    [ seg [ Edge (0, 1, full) ]; seg [ Edge (1, 0, full) ]; seg [ Lower (E.top sp, 1, full) ] ]
    [ [ Keep 0; Keep 2 ] ];
  in_place "fresh atom closing a cycle"
    [ seg [ Edge (0, 1, full) ]; seg [ Upper (2, E.bottom sp, full) ] ]
    [ [ Keep 0; Fresh (seg [ Edge (1, 0, full) ]); Keep 1 ] ]

(* nor does a reordering of kept segments. After the swap a cold store
   meets [2 <= 0] first, so [0]'s pred chain reads [1] first, and it
   inserts the second segment's bound on [1] first, so that atom's
   reason is the one the message names *)
let test_decremental_swapped () =
  let sp = Cqual.Analysis.const_space in
  let full = E.full_mask sp in
  in_place "kept segments swapped"
    [ seg [ Edge (1, 0, full); Lower (E.top sp, 1, full) ];
      seg [ Edge (2, 0, full); Lower (E.top sp, 2, full); Lower (E.top sp, 1, full) ];
      seg [ Upper (0, E.bottom sp, full) ] ]
    [ [ Keep 1; Keep 0; Keep 2 ] ]

(* [retract]'s caller errors raise and leave the store as it was. The
   store below logs [0 <= 1] (index 0) and [top <= 0] (index 1), then
   retracts index 1. *)
let contract_store () =
  let sp = Cqual.Analysis.const_space in
  let st = S.create sp in
  let a = S.fresh st and b = S.fresh st in
  S.add_leq_vv st a b;
  S.add_leq_cv st (E.top sp) a;
  ignore (S.solve st);
  S.checkpoint st;
  ignore (S.retract st ~slices:[ (0, 1) ] ~ground:[]);
  S.checkpoint st;
  (st, b)

let rejects st what slices =
  let before = (S.num_atoms st, S.atoms st) in
  (match S.retract st ~slices ~ground:[] with
  | _ -> Alcotest.failf "%s: accepted" what
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) (what ^ ": store unchanged") true
    (before = (S.num_atoms st, S.atoms st))

let test_contract_dead_slice () =
  let st, _ = contract_store () in
  rejects st "a slice over a deleted atom" [ (0, 2) ];
  rejects st "an atom named twice" [ (0, 1); (0, 1) ];
  ignore (S.retract st ~slices:[ (0, 1) ] ~ground:[])

let test_contract_fresh_outside () =
  let st, b = contract_store () in
  S.add_leq_vc st b (E.bottom Cqual.Analysis.const_space);
  rejects st "a fresh atom outside the slices" [ (0, 1) ];
  ignore (S.retract st ~slices:[ (0, 1); (2, 1) ] ~ground:[]);
  Alcotest.(check int) "both atoms live" 2 (List.length (S.atoms st))

(* ------------------------------------------------------------------ *)
(* Multi-file corpora: determinism and the Session entry point         *)
(* ------------------------------------------------------------------ *)

let test_project_deterministic () =
  let gen () =
    Cbench.Gen.generate_project ~seed:0xC0DE ~target_lines:12_000 ()
  in
  let a = gen () and b = gen () in
  Alcotest.(check int) "same file count" (List.length a) (List.length b);
  List.iter2
    (fun (na, ca) (nb, cb) ->
      Alcotest.(check string) "same file name" na nb;
      Alcotest.(check string) ("same content for " ^ na) ca cb)
    a b;
  let c = Cbench.Gen.generate_project ~seed:0xBEEF ~target_lines:12_000 () in
  Alcotest.(check bool) "different seed differs" true
    (List.map snd a <> List.map snd c)

let test_project_shape () =
  let files = Cbench.Gen.generate_project ~seed:7 ~target_lines:20_000 () in
  let lines = Cbench.Gen.project_lines files in
  Alcotest.(check bool) "reaches the line target" true (lines >= 20_000);
  Alcotest.(check bool) "multiple translation units" true
    (List.length files >= 3);
  (* every unit must parse as part of the whole program *)
  let r = Cqual.Session.(run (create ~mode:Cqual.Analysis.Poly files)) in
  Alcotest.(check bool) "functions analyzed" true (r.Cqual.Session.n_functions > 0)

let test_multifile_driver () =
  let files = Cbench.Programs.miniproject in
  let serial = Cqual.Session.(run (create ~mode:Cqual.Analysis.Poly files)) in
  Alcotest.(check int) "no degradations" 0
    (List.length
       (List.filter
          (fun (_, o) ->
            match o with Cqual.Analysis.Degraded _ -> true | _ -> false)
          serial.Cqual.Session.results.Cqual.Report.outcomes))

let test_scale_corpus_repeatable () =
  (* a small instance of the scale corpus end-to-end: two sessions
     report identically, down to the solver counters *)
  let files = Cbench.Gen.generate_project ~seed:0xA12 ~target_lines:6_000 () in
  let run () = Cqual.Session.(run (create ~mode:Cqual.Analysis.Poly files)) in
  Alcotest.(check string) "scale corpus: two runs agree"
    (Support.digest (run ())) (Support.digest (run ()))

let tests =
  [
    QCheck_alcotest.to_alcotest prop_serial_certificate;
    Alcotest.test_case "multi-file project generation deterministic" `Quick
      test_project_deterministic;
    Alcotest.test_case "multi-file project shape and analyzability" `Slow
      test_project_shape;
    Alcotest.test_case "multi-file driver: no degradations" `Quick
      test_multifile_driver;
    Alcotest.test_case "scale corpus (small): two runs agree" `Slow
      test_scale_corpus_repeatable;
    Alcotest.test_case "certificate rejects a tampered run" `Quick
      test_certificate_rejects_tampering;
    Alcotest.test_case "pinned digest: serial solutions" `Quick
      test_pinned_solutions;
    Alcotest.test_case "pinned digest: serial errors, counters" `Quick
      test_pinned_errors;
    QCheck_alcotest.to_alcotest prop_decremental;
    Alcotest.test_case "retract: the atom log stays within twice the live atoms"
      `Quick test_log_bound;
    Alcotest.test_case "retract on a cycle: in place = rebuild" `Quick
      test_decremental_cycles;
    Alcotest.test_case "retract: kept segments swapped, in place = rebuild" `Quick
      test_decremental_swapped;
    Alcotest.test_case "retract rejects a slice over a deleted or repeated atom"
      `Quick test_contract_dead_slice;
    Alcotest.test_case "retract rejects a fresh atom outside the slices" `Quick
      test_contract_fresh_outside;
  ]
