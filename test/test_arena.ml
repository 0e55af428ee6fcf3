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
(* Decremental retraction = rebuild                                    *)
(* ------------------------------------------------------------------ *)

(* A warm client's store over segments: each segment (one task) makes a
   few variables of its own and adds atoms over them and the shared
   ones. An edit keeps some of the current segments, drops the rest and
   runs fresh ones at chosen places in the task order; then the store
   drops the dead atoms, by [retract] or, as the reference, by
   [rebuild], which replays the live atoms in task order. *)
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
     variables, a long chain for the repair to put back in order *)
  if rint 6 = 0 then
    let h = shared () and k = 66 + rint 8 in
    { own = own + k; sops = List.init k (fun i -> Edge (h, n + own + i, full)) @ sops }
  else { own; sops }

let gen_edit rng sp n ntasks =
  let rint = Cbench.Rng.int rng in
  let kept = List.filter (fun _ -> rint 10 < 7) (List.init ntasks Fun.id) in
  let steps = ref (List.map (fun i -> Keep i) kept) in
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

type warm = {
  wst : S.t;
  wvars : S.var list;  (* every variable, in creation order *)
  paths : S.retract_path list;  (* each edit's, newest first *)
}

let warm_run ~decremental (sp, n, base, edits) =
  let st = S.create sp in
  let made = ref [] in
  let fresh () =
    let v = S.fresh st in
    made := v :: !made;
    v
  in
  let shared = Array.init n (fun _ -> fresh ()) in
  (* every atom gets a reason of its own, so the error messages show
     which of two duplicate atoms holds a key *)
  let nsegs = ref 0 in
  let run_seg seg =
    let m = S.mark st in
    let own = Array.init seg.own (fun _ -> fresh ()) in
    let v = Array.append shared own in
    incr nsegs;
    List.iteri
      (fun k op ->
        let reason = Printf.sprintf "s%d.%d" !nsegs k in
        match op with
        | Edge (a, b, m) -> S.add_leq_vv ~reason ~mask:m st v.(a) v.(b)
        | Lower (c, a, m) -> S.add_leq_cv ~reason ~mask:m st c v.(a)
        | Upper (a, c, m) -> S.add_leq_vc ~reason ~mask:m st v.(a) c
        | Eqvv (a, b, m) -> S.add_eq_vv ~reason ~mask:m st v.(a) v.(b)
        | Eqvc (a, c, m) -> S.add_eq_vc ~reason ~mask:m st v.(a) c
        | op -> apply st v op)
      seg.sops;
    (S.mark_log m, S.num_atoms st - S.mark_log m, S.ground_since st m)
  in
  let tasks = ref (List.map run_seg base) in
  ignore (S.solve st);
  let paths = ref [] in
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
      let slices = List.map (fun (a, l, _) -> (a, l)) next in
      let ground = List.fold_left (fun acc (_, _, g) -> g @ acc) [] next in
      let starts =
        if decremental then begin
          let rt = S.retract st ~slices ~ground in
          paths := rt.S.rt_path :: !paths;
          rt.S.rt_starts
        end
        else S.rebuild st ~slices ~ground
      in
      tasks := List.map2 (fun (_, l, g) at -> (at, l, g)) next starts)
    edits;
  { wst = st; wvars = List.rev !made; paths = !paths }

let atom_key = function
  | S.Avc (v, c, m, r) -> (0, S.var_id v, c, m, r)
  | S.Acv (c, v, m, r) -> (1, S.var_id v, c, m, r)
  | S.Avv (a, b, m, r) -> (2, S.var_id a, S.var_id b * 1000 + m, 0, r)

(* everything a client can observe of a solved store *)
let observe_warm sp w =
  let s = S.stats w.wst in
  ( List.map (fun v -> (S.least w.wst v, S.greatest w.wst v)) w.wvars,
    List.map S.error_message (S.last_errors w.wst),
    (s.S.edges_added, s.S.edges_deduped),
    List.map atom_key (S.atoms w.wst),
    (* the certificate: the store's solution is the least solution of
       the atoms it reports as live *)
    (let nb = S.solve_atoms sp (S.atoms w.wst) in
     List.for_all
       (fun v ->
         let lo, hi = nb (S.var_id v) in
         E.equal lo (S.least w.wst v) && E.equal hi (S.greatest w.wst v))
       w.wvars) )

let decremental_agrees sc =
  let sp, _, _, _ = sc in
  let d = warm_run ~decremental:true sc and r = warm_run ~decremental:false sc in
  let (_, _, _, _, cert) as od = observe_warm sp d in
  cert && od = observe_warm sp r

let prop_decremental =
  QCheck2.Test.make ~count:300
    ~name:"retract: decremental delete = rebuild over the survivors"
    ~print:(Printf.sprintf "seed %d") QCheck2.Gen.int (fun seed ->
      decremental_agrees (decr_scenario (Cbench.Rng.create seed)))

(* on a fixed stream every edit agrees with the rebuild, and a good share
   of them take the decremental path (each edit drops about a third of
   the tasks, so dead log entries soon outnumber live ones and the
   log-compacting rebuild is exercised too): the property above is not
   vacuous *)
let test_decremental_share () =
  let rng = Cbench.Rng.create 0xDEC in
  let dec = ref 0 and all = ref 0 in
  for _ = 1 to 300 do
    let sc = decr_scenario rng in
    Alcotest.(check bool) "agrees with rebuild" true (decremental_agrees sc);
    List.iter
      (fun p ->
        incr all;
        if p = S.Decremental then incr dec)
      (warm_run ~decremental:true sc).paths
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d edits decremental" !dec !all)
    true
    (3 * !dec >= !all)

(* cycles need no fallback: a dead atom on a cycle (the edge that carried
   [1]'s bound back to [0]) and a fresh atom that closes one are deleted
   and inserted in place *)
let test_decremental_cycles () =
  let sp = Cqual.Analysis.const_space in
  let full = E.full_mask sp in
  let case name base edits =
    let sc = (sp, 3, base, edits) in
    Alcotest.(check bool) (name ^ ": agrees with rebuild") true (decremental_agrees sc);
    Alcotest.(check bool) (name ^ ": decremental") true
      (List.for_all (( = ) S.Decremental) (warm_run ~decremental:true sc).paths)
  in
  let seg sops = { own = 0; sops } in
  case "dead atom on a cycle"
    [ seg [ Edge (0, 1, full) ]; seg [ Edge (1, 0, full) ]; seg [ Lower (E.top sp, 1, full) ] ]
    [ [ Keep 0; Keep 2 ] ];
  case "fresh atom closing a cycle"
    [ seg [ Edge (0, 1, full) ]; seg [ Upper (2, E.bottom sp, full) ] ]
    [ [ Keep 0; Fresh (seg [ Edge (1, 0, full) ]); Keep 1 ] ]

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
    Alcotest.test_case "retract: a third of the edits delete in place" `Quick
      test_decremental_share;
    Alcotest.test_case "retract on a cycle: in place = rebuild" `Quick
      test_decremental_cycles;
  ]
