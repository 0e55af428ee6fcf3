(* Parity of the flat-arena solver core against the pre-arena reference
   store (Solver_ref, the PR 5 implementation kept verbatim): identical
   op sequences must produce byte-identical counters, solutions, and
   error messages — serially and through the export/absorb batch path
   the parallel engine uses. Plus determinism of the multi-file cbench
   corpora and the multi-file Session entry point. *)

open Typequal
module Sp = Lattice.Space
module E = Lattice.Elt

(* ------------------------------------------------------------------ *)
(* A common signature both cores satisfy, so one driver replays the
   same op sequence through either. *)
(* ------------------------------------------------------------------ *)

module type CORE = sig
  type t
  type var
  type error
  type batch

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
    empty_batches_skipped : int;
    heap_words : int;
    top_heap_words : int;
    cores_available : int;
  }

  val create : ?cycle_elim:bool -> Sp.t -> t
  val fresh : ?name:string -> t -> var
  val add_leq_vc : ?reason:string -> ?mask:int -> t -> var -> E.t -> unit
  val add_leq_cv : ?reason:string -> ?mask:int -> t -> E.t -> var -> unit
  val add_leq_vv : ?reason:string -> ?mask:int -> t -> var -> var -> unit
  val add_leq_cc : ?reason:string -> ?mask:int -> t -> E.t -> E.t -> unit
  val add_eq_vv : ?reason:string -> ?mask:int -> t -> var -> var -> unit
  val add_eq_vc : ?reason:string -> ?mask:int -> t -> var -> E.t -> unit
  val solve : t -> (unit, error list) result
  val solve_from_scratch : t -> (unit, error list) result
  val last_errors : t -> error list
  val error_message : error -> string
  val least : t -> var -> E.t
  val greatest : t -> var -> E.t
  val stats : t -> stats
  val export : t -> batch
  val absorb : t -> ?bind:(var -> var option) -> batch -> var -> var option
end

module Arena : CORE = Typequal.Solver
module Ref : CORE = Typequal.Solver_ref

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

let space_gen : Sp.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* n = int_range 1 6 in
  let* pols = list_repeat n bool in
  return
    (Sp.create
       (List.mapi
          (fun i pos ->
            if pos then Qualifier.positive (Printf.sprintf "p%d" i)
            else Qualifier.negative (Printf.sprintf "n%d" i))
          pols))

let elt_gen sp : E.t QCheck2.Gen.t =
  QCheck2.Gen.map
    (fun bits -> bits land E.full_mask sp)
    QCheck2.Gen.(int_bound (E.full_mask sp))

let scenario_gen : (Sp.t * int * op list) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* sp = space_gen in
  let* n = int_range 2 20 in
  let full = E.full_mask sp in
  let var = int_bound (n - 1) in
  let mask = frequency [ (3, return full); (2, int_bound full) ] in
  let op =
    frequency
      [
        ( 5,
          let* a = var and* b = var and* m = mask in
          return (Edge (a, b, m)) );
        ( 2,
          let* c = elt_gen sp and* a = var and* m = mask in
          return (Lower (c, a, m)) );
        ( 2,
          let* a = var and* c = elt_gen sp and* m = mask in
          return (Upper (a, c, m)) );
        ( 1,
          let* a = var and* b = var and* m = mask in
          return (Eqvv (a, b, m)) );
        ( 1,
          let* a = var and* c = elt_gen sp and* m = mask in
          return (Eqvc (a, c, m)) );
        ( 1,
          let* c1 = elt_gen sp and* c2 = elt_gen sp and* m = mask in
          return (Ground (c1, c2, m)) );
        (1, return Solve);
        (1, return Full);
      ]
  in
  let* ops = list_size (int_range 5 80) op in
  return (sp, n, ops)

(* ------------------------------------------------------------------ *)
(* Replaying through a core and rendering everything observable        *)
(* ------------------------------------------------------------------ *)

module Drive (C : CORE) = struct
  let apply st v = function
    | Edge (a, b, m) -> C.add_leq_vv ~mask:m st v.(a) v.(b)
    | Lower (c, a, m) -> C.add_leq_cv ~mask:m st c v.(a)
    | Upper (a, c, m) -> C.add_leq_vc ~mask:m st v.(a) c
    | Eqvv (a, b, m) -> C.add_eq_vv ~mask:m st v.(a) v.(b)
    | Eqvc (a, c, m) -> C.add_eq_vc ~mask:m st v.(a) c
    | Ground (c1, c2, m) -> C.add_leq_cc ~mask:m st c1 c2
    | Solve -> ignore (C.solve st)
    | Full -> ignore (C.solve_from_scratch st)

  (* per-variable solutions: the semantic observables the splice
     invariant promises to preserve *)
  let solutions sp st vars =
    let b = Buffer.create 512 in
    Array.iteri
      (fun i v ->
        Buffer.add_string b
          (Fmt.str "%d: %a / %a\n" i (E.pp sp) (C.least st v) (E.pp sp)
             (C.greatest st v)))
      vars;
    Buffer.contents b

  (* counters (wall-clock and machine fields excluded), per-variable
     solutions, and error messages — the full observable state *)
  let digest sp st vars =
    let b = Buffer.create 512 in
    let s = C.stats st in
    Buffer.add_string b
      (Printf.sprintf
         "vars=%d unified=%d edges=%d deduped=%d cycles=%d incr=%d \
          full=%d pops=%d\n"
         s.C.vars_created s.C.vars_unified s.C.edges_added s.C.edges_deduped
         s.C.cycles_collapsed s.C.incr_solves s.C.full_solves
         s.C.worklist_pops);
    Array.iteri
      (fun i v ->
        Buffer.add_string b
          (Fmt.str "%d: %a / %a\n" i (E.pp sp) (C.least st v) (E.pp sp)
             (C.greatest st v)))
      vars;
    List.iter
      (fun e -> Buffer.add_string b ("error " ^ C.error_message e ^ "\n"))
      (C.last_errors st);
    Buffer.contents b

  let run_serial ?(observe = digest) sp n ops =
    let st = C.create sp in
    let v = Array.init n (fun _ -> C.fresh st) in
    List.iter (apply st v) ops;
    ignore (C.solve st);
    observe sp st v

  (* the parallel engine's path: build in a worker store, export the
     batch, splice it into a fresh main store, then observe through the
     returned renaming *)
  let run_batched ?(observe = digest) sp n ops =
    let w = C.create sp in
    let v = Array.init n (fun _ -> C.fresh w) in
    List.iter (apply w v) ops;
    let batch = C.export w in
    let main = C.create sp in
    let look = C.absorb main batch in
    ignore (C.solve main);
    let v' = Array.map (fun x -> Option.get (look x)) v in
    observe sp main v'

  (* absorb with bound (mirror) variables: the first [n/3] batch
     variables resolve to pre-existing variables of the main store,
     exactly as worker mirrors of shared globals do in the parallel
     engine *)
  let run_merge ?(observe = digest) sp n ops =
    let w = C.create sp in
    let v = Array.init n (fun _ -> C.fresh w) in
    List.iter (apply w v) ops;
    let batch = C.export w in
    let main = C.create sp in
    let k = n / 3 in
    let pre = Array.init k (fun _ -> C.fresh main) in
    let bind x =
      let r = ref None in
      Array.iteri (fun i y -> if i < k && x == y then r := Some pre.(i)) v;
      !r
    in
    let look = C.absorb main ~bind batch in
    ignore (C.solve main);
    let v' = Array.map (fun x -> Option.get (look x)) v in
    observe sp main v'
end

module DA = Drive (Arena)
module DR = Drive (Ref)

let prop_serial_parity =
  QCheck2.Test.make ~count:300
    ~name:"arena = pre-arena store: counters, solutions, errors (serial)"
    scenario_gen
    (fun (sp, n, ops) -> DA.run_serial sp n ops = DR.run_serial sp n ops)

let prop_batch_parity =
  QCheck2.Test.make ~count:200
    ~name:"arena = pre-arena store through export/absorb (batch splice)"
    scenario_gen
    (fun (sp, n, ops) -> DA.run_batched sp n ops = DR.run_batched sp n ops)

let prop_absorb_fast_eq_replay =
  (* the arena's splice-fast absorb must be observationally identical to
     the reference store's Hashtbl-replay absorb: counters, solutions and
     errors, with mirror bindings in play *)
  QCheck2.Test.make ~count:200
    ~name:"arena: splice-fast absorb = replay absorb (counters, bindings)"
    scenario_gen
    (fun (sp, n, ops) ->
      DA.run_merge sp n ops = DR.run_merge sp n ops)

let prop_serial_eq_batch =
  (* absorbing a whole store into an empty one renames but must not
     change any solution (the splice invariant DESIGN.md states).
     Counters are excluded: Solve ops in the sequence run in the worker
     store, so the main store's solve cadence legitimately differs. *)
  QCheck2.Test.make ~count:200
    ~name:"arena: batch splice preserves the serial solutions"
    scenario_gen
    (fun (sp, n, ops) ->
      DA.run_serial ~observe:DA.solutions sp n ops
      = DA.run_batched ~observe:DA.solutions sp n ops)

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
    QCheck_alcotest.to_alcotest prop_serial_parity;
    QCheck_alcotest.to_alcotest prop_batch_parity;
    QCheck_alcotest.to_alcotest prop_absorb_fast_eq_replay;
    QCheck_alcotest.to_alcotest prop_serial_eq_batch;
    Alcotest.test_case "multi-file project generation deterministic" `Quick
      test_project_deterministic;
    Alcotest.test_case "multi-file project shape and analyzability" `Slow
      test_project_shape;
    Alcotest.test_case "multi-file driver: jobs 4 = jobs 1" `Quick
      test_multifile_driver_parity;
    Alcotest.test_case "scale corpus (small): jobs 4 = jobs 1" `Slow
      test_scale_corpus_parity;
  ]
