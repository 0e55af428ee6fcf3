(* Certificates for the flat-arena solver: on random op sequences, the
   serial, batch-splice and mirror-bound absorb paths each report the
   least and greatest solutions of the atoms their store logged (§3.1),
   recomputed by the store-free evaluator [Solver.solve_atoms], and fail
   exactly when that solution breaks a bound. Pinned digests freeze what
   the definition does not fix: counters, error messages and solutions
   on a fixed-seed op stream. Plus determinism of the multi-file cbench
   corpora and the multi-file Session entry point. *)

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
(* The three paths: what each leaves behind                            *)
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

(* record the atoms [f] adds to [st] (a fresh store, so they are its
   whole log), then solve; [f] returns the scenario's variables *)
let finish sp st ~ground_failed f =
  let vars, atoms = S.recording st f in
  assert (List.length atoms = S.num_atoms st);
  let failed = Result.is_error (S.solve st) in
  { sp; st; vars; atoms; failed; ground_failed }

let serial sp n ops =
  let st = S.create sp in
  let v = Array.init n (fun _ -> S.fresh st) in
  let ground_failed =
    List.exists
      (function
        | Ground (c1, c2, m) -> not (E.leq_masked sp ~mask:m c1 c2)
        | _ -> false)
      ops
  in
  finish sp st ~ground_failed (fun () ->
      List.iter (apply st v) ops;
      v)

(* The parallel engine's path: build in a worker store, export the
   batch and splice it into a fresh main store, observed through the
   returned renaming. The first [mirrors] batch variables resolve to
   variables created in the main store beforehand, as worker mirrors of
   shared globals do. Ground violations stay in the worker. *)
let spliced ~mirrors sp n ops =
  let w = S.create sp in
  let v = Array.init n (fun _ -> S.fresh w) in
  List.iter (apply w v) ops;
  let batch = S.export w in
  let main = S.create sp in
  let pre = Array.init mirrors (fun _ -> S.fresh main) in
  let bind x =
    let r = ref None in
    Array.iteri (fun i y -> if i < mirrors && x == y then r := Some pre.(i)) v;
    !r
  in
  finish sp main ~ground_failed:false (fun () ->
      let look = S.absorb main ~bind batch in
      Array.map (fun x -> Option.get (look x)) v)

let batched = spliced ~mirrors:0
let merge sp n ops = spliced ~mirrors:(n / 3) sp n ops
let paths = [ ("serial", serial); ("batched", batched); ("merge", merge) ]

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

let certificate_prop name path =
  scenario_prop ~name (fun sp n ops ->
      let r = path sp n ops in
      certify r (solution r))

let prop_serial_certificate =
  certificate_prop "certificate: serial solve = least solution of its log" serial

let prop_batch_certificate =
  certificate_prop "certificate: batch splice = least solution of its log"
    batched

let prop_merge_certificate =
  certificate_prop "certificate: mirror-bound absorb = least solution" merge

(* A certificate that cannot fail is not a check: a flipped [lo] bit, a
   dropped [Avv]/[Acv] atom, or a flipped verdict must each be rejected
   on every path. The chain [top <= v0 <= v1 <= ...] makes every atom
   matter. *)
let test_certificate_rejects_tampering () =
  let sp = Cqual.Analysis.const_space in
  let full = E.full_mask sp in
  let n = 6 in
  let chain =
    Lower (E.top sp, 0, full) :: List.init (n - 1) (fun i -> Edge (i, i + 1, full))
  in
  List.iter
    (fun (name, path) ->
      let r = path sp n chain in
      let sol = solution r in
      Alcotest.(check bool) (name ^ ": untampered run certifies") true (certify r sol);
      Array.iteri
        (fun i (lo, hi) ->
          let sol' = Array.copy sol in
          sol'.(i) <- (lo lxor 1, hi);
          Alcotest.(check bool)
            (Printf.sprintf "%s: lo bit of v%d flipped" name i)
            false (certify r sol'))
        sol;
      List.iteri
        (fun k a ->
          match a with
          | S.Avc _ -> ()
          | S.Avv _ | S.Acv _ ->
              let atoms = List.filteri (fun j _ -> j <> k) r.atoms in
              Alcotest.(check bool)
                (Printf.sprintf "%s: atom %d dropped" name k)
                false (certify { r with atoms } sol))
        r.atoms;
      Alcotest.(check bool) (name ^ ": verdict flipped") false
        (certify { r with failed = not r.failed } sol))
    paths

(* ------------------------------------------------------------------ *)
(* Pinned digests: what the definition does not fix                    *)
(* ------------------------------------------------------------------ *)

(* counters (wall-clock and machine fields excluded), per-variable
   solutions and error messages *)
let observe r =
  let b = Buffer.create 512 in
  let s = S.stats r.st in
  Buffer.add_string b
    (Printf.sprintf
       "vars=%d unified=%d edges=%d deduped=%d cycles=%d incr=%d full=%d \
        pops=%d\n"
       s.S.vars_created s.S.vars_unified s.S.edges_added s.S.edges_deduped
       s.S.cycles_collapsed s.S.incr_solves s.S.full_solves s.S.worklist_pops);
  Array.iteri
    (fun i (lo, hi) ->
      Buffer.add_string b (Fmt.str "%d: %a / %a\n" i (E.pp r.sp) lo (E.pp r.sp) hi))
    (solution r);
  List.iter
    (fun e -> Buffer.add_string b ("error " ^ S.error_message e ^ "\n"))
    (S.last_errors r.st);
  Buffer.contents b

(* Computed through both the arena and the pre-arena store it replaced,
   which agreed on all three. The batched and merge paths create the
   same variables in the same order (mirrors come first either way),
   hence one digest. A change here means the solver's counters,
   solutions or error messages moved; the CI jobs 1 vs 4 and
   --no-compact --stats diffs watch the counters on real programs. *)
let pinned =
  [
    ("serial", "5a05228890ec99fb428b5d6efb82640d");
    ("batched", "9c9975fa2f64fdb2059cc696eb9da4c1");
    ("merge", "9c9975fa2f64fdb2059cc696eb9da4c1");
  ]

let test_pinned_digests () =
  List.iter
    (fun (name, path) ->
      let all =
        List.map
          (fun (sp, n, ops) -> observe (path sp n ops))
          (Lazy.force pinned_scenarios)
      in
      Alcotest.(check string) (name ^ " digest") (List.assoc name pinned)
        (Digest.to_hex (Digest.string (String.concat "" all))))
    paths

let prop_serial_eq_batch =
  (* absorbing a whole store into an empty one renames but must not
     change any solution (the splice invariant DESIGN.md states).
     Counters are excluded: Solve ops in the sequence run in the worker
     store, so the main store's solve cadence legitimately differs. *)
  scenario_prop ~name:"arena: batch splice preserves the serial solutions"
    (fun sp n ops ->
      solution (serial sp n ops) = solution (batched sp n ops))

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

let test_multifile_driver_parity () =
  let files = Cbench.Programs.miniproject in
  let serial = Cqual.Session.(run (create ~mode:Cqual.Analysis.Poly ~jobs:1 files)) in
  let par = Cqual.Session.(run (create ~mode:Cqual.Analysis.Poly ~jobs:4 files)) in
  Alcotest.(check string) "miniproject: jobs 4 = jobs 1"
    (Test_parallel.digest serial) (Test_parallel.digest par);
  Alcotest.(check int) "no degradations" 0
    (List.length
       (List.filter
          (fun (_, o) ->
            match o with Cqual.Analysis.Degraded _ -> true | _ -> false)
          serial.Cqual.Session.results.Cqual.Report.outcomes))

let test_scale_corpus_parity () =
  (* a small instance of the scale corpus end-to-end: serial and jobs-4
     reports identical, as CI diffs on the big one *)
  let files = Cbench.Gen.generate_project ~seed:0xA12 ~target_lines:6_000 () in
  let serial = Cqual.Session.(run (create ~mode:Cqual.Analysis.Poly ~jobs:1 files)) in
  let par = Cqual.Session.(run (create ~mode:Cqual.Analysis.Poly ~jobs:4 files)) in
  Alcotest.(check string) "scale corpus: jobs 4 = jobs 1"
    (Test_parallel.digest serial) (Test_parallel.digest par)

let tests =
  [
    QCheck_alcotest.to_alcotest prop_serial_certificate;
    QCheck_alcotest.to_alcotest prop_batch_certificate;
    QCheck_alcotest.to_alcotest prop_merge_certificate;
    QCheck_alcotest.to_alcotest prop_serial_eq_batch;
    Alcotest.test_case "multi-file project generation deterministic" `Quick
      test_project_deterministic;
    Alcotest.test_case "multi-file project shape and analyzability" `Slow
      test_project_shape;
    Alcotest.test_case "multi-file driver: jobs 4 = jobs 1" `Quick
      test_multifile_driver_parity;
    Alcotest.test_case "scale corpus (small): jobs 4 = jobs 1" `Slow
      test_scale_corpus_parity;
    Alcotest.test_case "certificate rejects a tampered run" `Quick
      test_certificate_rejects_tampering;
    Alcotest.test_case "pinned digests: serial, batched, merge" `Quick
      test_pinned_digests;
  ]
