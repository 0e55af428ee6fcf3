(* Property-based tests (qcheck): lattice laws over random spaces, solver
   solution properties, Observation 1, and subject reduction / soundness
   of the qualified type system on random terms. *)

open Typequal
module Sp = Lattice.Space
module E = Lattice.Elt
module S = Solver
open Qlambda

(* ------------------------------------------------------------------ *)
(* Random qualifier spaces and elements                                *)
(* ------------------------------------------------------------------ *)

let space_gen : Sp.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* n = int_range 1 8 in
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

let space_and_elts_gen k =
  let open QCheck2.Gen in
  let* sp = space_gen in
  let* es = list_repeat k (elt_gen sp) in
  return (sp, es)

let prop_lattice_laws =
  QCheck2.Test.make ~count:500 ~name:"lattice: partial order + lub/glb"
    (space_and_elts_gen 3)
    (fun (sp, es) ->
      match es with
      | [ a; b; c ] ->
          let leq = E.leq sp and join = E.join sp and meet = E.meet sp in
          leq a a
          && leq (E.bottom sp) a
          && leq a (E.top sp)
          && leq a (join a b)
          && leq b (join a b)
          && leq (meet a b) a
          && leq (meet a b) b
          && E.equal (join a b) (join b a)
          && E.equal (meet a b) (meet b a)
          && E.equal (join a (join b c)) (join (join a b) c)
          && E.equal (meet a (meet b c)) (meet (meet a b) c)
          && E.equal (join a (meet a b)) a (* absorption *)
          && E.equal (meet a (join a b)) a
          && (leq a b = E.equal (join a b) b)
          && (leq a b = E.equal (meet a b) a)
          && ((not (leq a b && leq b c)) || leq a c)
      | _ -> false)

let prop_not_pins =
  QCheck2.Test.make ~count:300 ~name:"lattice: x <= ¬q iff coordinate at bottom"
    (QCheck2.Gen.pair space_gen (QCheck2.Gen.int_bound 1000))
    (fun (sp, seed) ->
      let x = seed land E.full_mask sp in
      List.for_all
        (fun i ->
          let nq = E.not_ sp i in
          let q = Sp.qual sp i in
          let coord_bottom =
            if Qualifier.is_positive q then not (E.has sp i x)
            else E.has sp i x
          in
          E.leq sp x nq = coord_bottom)
        (List.init (Sp.size sp) Fun.id))

(* ------------------------------------------------------------------ *)
(* Solver: the least solution is a solution, and lo <= hi when sat     *)
(* ------------------------------------------------------------------ *)

type cgen = {
  g_nvars : int;
  g_edges : (int * int) list;
  g_lowers : (int * int) list;  (* var, raw elt bits *)
  g_uppers : (int * int) list;
}

let cgen_gen : cgen QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* g_nvars = int_range 1 20 in
  let v = int_bound (g_nvars - 1) in
  let* g_edges = list_size (int_bound 40) (pair v v) in
  let* g_lowers = list_size (int_bound 10) (pair v (int_bound 255)) in
  let* g_uppers = list_size (int_bound 10) (pair v (int_bound 255)) in
  return { g_nvars; g_edges; g_lowers; g_uppers }

let build_system sp (g : cgen) =
  let st = S.create sp in
  let mask = E.full_mask sp in
  let vars = Array.init g.g_nvars (fun _ -> S.fresh st) in
  List.iter (fun (a, b) -> S.add_leq_vv st vars.(a) vars.(b)) g.g_edges;
  List.iter (fun (v, e) -> S.add_leq_cv st (e land mask) vars.(v)) g.g_lowers;
  List.iter (fun (v, e) -> S.add_leq_vc st vars.(v) (e land mask)) g.g_uppers;
  (st, vars)

let prop_least_solution_is_solution =
  QCheck2.Test.make ~count:500
    ~name:"solver: when satisfiable, lo satisfies every constraint"
    (QCheck2.Gen.pair space_gen cgen_gen)
    (fun (sp, g) ->
      let st, vars = build_system sp g in
      match S.solve st with
      | Error _ -> true (* checked by the dual property below *)
      | Ok () ->
          let mask = E.full_mask sp in
          List.for_all
            (fun (a, b) -> E.leq sp (S.least st vars.(a)) (S.least st vars.(b)))
            g.g_edges
          && List.for_all
               (fun (v, e) -> E.leq sp (e land mask) (S.least st vars.(v)))
               g.g_lowers
          && List.for_all
               (fun (v, e) -> E.leq sp (S.least st vars.(v)) (e land mask))
               g.g_uppers
          && Array.for_all
               (fun v -> E.leq sp (S.least st v) (S.greatest st v))
               vars)

let prop_unsat_is_real =
  QCheck2.Test.make ~count:500
    ~name:"solver: when unsat, no assignment satisfies (spot check on lo/hi)"
    (QCheck2.Gen.pair space_gen cgen_gen)
    (fun (sp, g) ->
      let st, vars = build_system sp g in
      match S.solve st with
      | Ok () -> true
      | Error _ ->
          (* if the system were satisfiable, the least solution of the
             lower half would satisfy the uppers; verify it does not *)
          let mask = E.full_mask sp in
          not
            (List.for_all
               (fun (v, e) -> E.leq sp (S.least st vars.(v)) (e land mask))
               g.g_uppers))

let prop_monotone =
  QCheck2.Test.make ~count:300
    ~name:"solver: adding a lower bound only raises least solutions"
    (QCheck2.Gen.triple space_gen cgen_gen (QCheck2.Gen.int_bound 255))
    (fun (sp, g, extra) ->
      let st, vars = build_system sp g in
      ignore (S.solve st);
      let before = Array.map (fun v -> S.least st v) vars in
      S.add_leq_cv st (extra land E.full_mask sp) vars.(0);
      ignore (S.solve st);
      Array.for_all2
        (fun old v -> E.leq sp old (S.least st v))
        before vars)

(* A speculative what-if answers as adding the bound to a clone and
   re-solving would, here on systems whose edges carry masks (the C
   analysis emits full-mask edges only, so the session-level parity test
   cannot tell a mask step apart), and it leaves the store untouched. *)
let prop_speculation_is_resolve =
  QCheck2.Test.make ~count:300
    ~name:"solver: speculation = add the lower bound and re-solve"
    QCheck2.Gen.(
      quad space_gen cgen_gen
        (list_size (int_bound 40) (int_bound 255))
        (triple (int_bound 255) (int_bound 255) (int_bound 19)))
    (fun (sp, g, masks, (extra, msel, at)) ->
      let n = Sp.size sp in
      let mask_of bits =
        let m = ref 0 in
        for i = 0 to n - 1 do
          if bits land (1 lsl i) <> 0 then m := !m lor E.singleton_mask sp i
        done;
        if !m = 0 then E.full_mask sp else !m
      in
      let full = E.full_mask sp in
      (* the system, built twice: once to speculate on, once to add to *)
      let build () =
        let st = S.create sp in
        let vars = Array.init g.g_nvars (fun _ -> S.fresh st) in
        List.iteri
          (fun k (a, b) ->
            let bits = Option.value (List.nth_opt masks k) ~default:0 in
            S.add_leq_vv ~mask:(mask_of bits) st vars.(a) vars.(b))
          g.g_edges;
        List.iter
          (fun (v, e) -> S.add_leq_cv st (e land full) vars.(v))
          g.g_lowers;
        List.iter
          (fun (v, e) -> S.add_leq_vc st vars.(v) (e land full))
          g.g_uppers;
        (st, vars)
      in
      let st, vars = build () in
      ignore (S.solve st);
      let at = at mod g.g_nvars in
      let mask = mask_of msel and c = extra land full in
      let lo0 = Array.map (S.least st) vars in
      let spec = S.speculate_leq_cv ~mask st c vars.(at) in
      let clone, cvars = build () in
      S.add_leq_cv ~mask clone c cvars.(at);
      ignore (S.solve clone);
      Array.for_all2
        (fun v cv ->
          List.for_all
            (fun i -> S.classify_speculative spec v i = S.classify clone cv i)
            (List.init n Fun.id))
        vars cvars
      && S.error_count st + S.speculation_new_errors spec
         = List.length (S.last_errors clone)
      && Array.for_all2 (fun l v -> l = S.least st v) lo0 vars)

(* ------------------------------------------------------------------ *)
(* Random terms of the example language                                *)
(* ------------------------------------------------------------------ *)

(* well-scoped random terms; biased toward typeable shapes but freely
   mixing annotations and assertions over const+nonzero *)
let term_gen : Ast.expr QCheck2.Gen.t =
  let open QCheck2.Gen in
  let specs =
    [
      [];
      [ ("const", true) ];
      [ ("nonzero", true) ];
      [ ("nonzero", false) ];
      [ ("const", true); ("nonzero", true) ];
    ]
  in
  let spec = oneofl specs in
  let bound_specs =
    [ [ ("const", false) ]; [ ("nonzero", true) ]; [] ]
  in
  let bspec = oneofl bound_specs in
  let var_of env = if env = [] then map (fun n -> Ast.Int n) (int_bound 9)
    else map (fun x -> Ast.Var x) (oneofl env) in
  let fresh_name env = Printf.sprintf "x%d" (List.length env) in
  fix
    (fun self (size, env) ->
      if size <= 0 then
        oneof
          [ map (fun n -> Ast.Int n) (int_bound 9); return Ast.Unit; var_of env ]
      else
        let sub = self (size / 2, env) in
        oneof
          [
            var_of env;
            map (fun n -> Ast.Int n) (int_bound 9);
            map2 (fun a b -> Ast.App (a, b)) sub sub;
            (let x = fresh_name env in
             map
               (fun b -> Ast.Lam (x, b))
               (self (size - 1, x :: env)));
            (let x = fresh_name env in
             map2
               (fun e b -> Ast.Let (x, e, b))
               sub
               (self (size / 2, x :: env)));
            map3 (fun a b c -> Ast.If (a, b, c)) sub sub sub;
            map (fun e -> Ast.Ref e) sub;
            map (fun e -> Ast.Deref e) sub;
            map2 (fun a b -> Ast.Assign (a, b)) sub sub;
            map2 (fun s e -> Ast.Annot (s, e)) spec sub;
            map2 (fun e s -> Ast.Assert (e, s)) sub bspec;
            map3
              (fun op a b -> Ast.Binop (op, a, b))
              (oneofl [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Lt; Ast.Eq ])
              sub sub;
          ])
    (8, [])

let cn = Rules.cn_space

(* Observation 1: with no qualifier-specific rules and no annotations, the
   qualified system types exactly the standard system's programs. *)
let prop_observation1 =
  QCheck2.Test.make ~count:1000 ~name:"Observation 1 on random terms"
    ~print:(fun e -> Ast.to_string (Ast.strip e))
    term_gen
    (fun e ->
      let e = Ast.strip e in
      let std = Stype.typable e in
      let qual = Infer.typechecks cn e in
      std = qual)

(* strip of the inferred qualified type unifies with the standard type *)
let prop_strip_shape =
  QCheck2.Test.make ~count:500 ~name:"strip(inferred) unifies with standard"
    ~print:(fun e -> Ast.to_string (Ast.strip e))
    term_gen
    (fun e ->
      let e = Ast.strip e in
      match (Infer.infer cn e, Stype.infer_top e) with
      | Ok r, std ->
          (try
             Stype.unify (Qtype.strip r.Infer.qtyp) std;
             true
           with Stype.Type_error _ -> false)
      | Error _, _ -> true
      | exception Stype.Type_error _ -> true)

(* Type safety (Corollary 1): a program accepted by the checker (with the
   const+nonzero rules) never gets stuck — it reaches a value or runs out
   of fuel (diverges). This exercises subject reduction across the whole
   reduction sequence, including the qualifier checks of Figure 5. *)
let prop_soundness =
  QCheck2.Test.make ~count:2000 ~name:"well-typed terms don't get stuck"
    ~print:Ast.to_string term_gen
    (fun e ->
      (* exclude Div from the property: the nonzero rule makes most random
         divisions untypeable anyway, and delta-stuckness on 1/0 is the
         qualifier's *point* (tested separately in test_lambda) *)
      QCheck2.assume (Infer.typechecks ~hooks:Rules.cn_hooks ~poly:true cn e);
      match Eval.run ~fuel:2000 cn e with
      | Eval.Value _ | Eval.Out_of_fuel -> true
      | Eval.Stuck_at (Eval.Division_by_zero) -> true (* no nonzero hook on
                                                         random literals *)
      | Eval.Stuck_at _ -> false)

(* Monomorphic acceptance implies polymorphic acceptance. *)
let prop_poly_extends_mono =
  QCheck2.Test.make ~count:800 ~name:"mono-typeable => poly-typeable"
    ~print:Ast.to_string term_gen
    (fun e ->
      (not (Infer.typechecks ~hooks:Rules.cn_hooks ~poly:false cn e))
      || Infer.typechecks ~hooks:Rules.cn_hooks ~poly:true cn e)

(* The parser round-trips the printer on random terms. *)
let prop_parse_print_roundtrip =
  QCheck2.Test.make ~count:800 ~name:"parse (print e) = e"
    ~print:Ast.to_string term_gen
    (fun e ->
      match Parse.parse_result (Ast.to_string e) with
      | Ok e' -> Ast.to_string e' = Ast.to_string e
      | Error _ -> false)

let tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_lattice_laws;
      prop_not_pins;
      prop_least_solution_is_solution;
      prop_unsat_is_real;
      prop_monotone;
      prop_observation1;
      prop_strip_shape;
      prop_soundness;
      prop_poly_extends_mono;
      prop_parse_print_roundtrip;
    ]

(* ------------------------------------------------------------------ *)
(* Incremental solver equivalence                                      *)
(* ------------------------------------------------------------------ *)

(* Random interleaved add/query sequences, masked constraints included.
   The incremental store (queries forcing re-solves mid-stream) must
   agree with (1) a store solved from scratch at the end and (2) the
   constraint-log replay oracle — on satisfiability and on the
   least/greatest solution of every variable. *)

type op =
  | OEdge of int * int * int  (* a <= b on a mask *)
  | OLower of int * int * int  (* elt <= v on a mask *)
  | OUpper of int * int * int  (* v <= elt on a mask *)
  | OQuery of int

let ops_gen : (int * op list) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* nvars = int_range 1 15 in
  let v = int_bound (nvars - 1) in
  let* ops =
    list_size (int_bound 60)
      (oneof
         [
           map3 (fun a b m -> OEdge (a, b, m)) v v (int_bound 255);
           map3 (fun x e m -> OLower (x, e, m)) v (int_bound 255) (int_bound 255);
           map3 (fun x e m -> OUpper (x, e, m)) v (int_bound 255) (int_bound 255);
           map (fun x -> OQuery x) v;
         ])
  in
  return (nvars, ops)

let prop_optimized_equals_naive =
  QCheck2.Test.make ~count:600
    ~name:"optimized solver = naive baselines on random op sequences"
    (QCheck2.Gen.pair space_gen ops_gen)
    (fun (sp, (nvars, ops)) ->
      let full = E.full_mask sp in
      (* a mix of full masks and partial ones *)
      let mask_of raw = if raw mod 3 = 0 then full else raw land full in
      (* [opt] solves incrementally, [base] from scratch once at the end *)
      let opt = S.create sp in
      let base = S.create sp in
      let vo = Array.init nvars (fun _ -> S.fresh opt) in
      let vb = Array.init nvars (fun _ -> S.fresh base) in
      List.iter
        (fun o ->
          match o with
          | OEdge (a, b, m) ->
              let mask = mask_of m in
              S.add_leq_vv ~mask opt vo.(a) vo.(b);
              S.add_leq_vv ~mask base vb.(a) vb.(b)
          | OLower (x, e, m) ->
              let mask = mask_of m and e = e land full in
              S.add_leq_cv ~mask opt e vo.(x);
              S.add_leq_cv ~mask base e vb.(x)
          | OUpper (x, e, m) ->
              let mask = mask_of m and e = e land full in
              S.add_leq_vc ~mask opt vo.(x) e;
              S.add_leq_vc ~mask base vb.(x) e
          | OQuery x ->
              (* forces an incremental solve mid-stream in [opt] only *)
              ignore (S.least opt vo.(x));
              ignore (S.greatest opt vo.(x)))
        ops;
      let sat_opt = Result.is_ok (S.solve opt) in
      let sat_base = Result.is_ok (S.solve_from_scratch base) in
      let nb = S.naive_bounds opt in
      let ok = ref (sat_opt = sat_base) in
      Array.iteri
        (fun i v ->
          let l = S.least opt v and h = S.greatest opt v in
          let bl = S.least base vb.(i) and bh = S.greatest base vb.(i) in
          let ol, oh = nb (S.var_id v) in
          if
            not
              (E.equal l bl && E.equal h bh && E.equal l ol && E.equal h oh)
          then ok := false)
        vo;
      !ok)

let tests = tests @ [ QCheck_alcotest.to_alcotest prop_optimized_equals_naive ]

(* ------------------------------------------------------------------ *)
(* User-defined lattices (PR 5): random distributive lattices          *)
(* ------------------------------------------------------------------ *)

module O = Qualifier.Order

(* A random poset on [n] points. Edges only go from lower to higher
   index, so acyclicity is free; [rp_leq] is the reflexive-transitive
   closure and serves as the oracle order on join-irreducibles. *)
type rposet = { rp_n : int; rp_leq : bool array array }

let rposet_gen : rposet QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* n = int_range 1 4 in
  let* edges = list_repeat (n * n) bool in
  let e = Array.of_list edges in
  let leq =
    Array.init n (fun i ->
        Array.init n (fun j -> i = j || (i < j && e.((i * n) + j))))
  in
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if leq.(i).(k) && leq.(k).(j) then leq.(i).(j) <- true
      done
    done
  done;
  return { rp_n = n; rp_leq = leq }

(* The downsets of a poset, each as a bitmask over the points. By
   Birkhoff's theorem they form a distributive lattice under inclusion,
   with union as lub and intersection as glb — the oracle for every
   lattice operation. *)
let downsets { rp_n = n; rp_leq = leq } =
  let is_downset s =
    let ok = ref true in
    for j = 0 to n - 1 do
      if s land (1 lsl j) <> 0 then
        for i = 0 to n - 1 do
          if leq.(i).(j) && s land (1 lsl i) = 0 then ok := false
        done
    done;
    !ok
  in
  List.filter is_downset (List.init (1 lsl n) Fun.id)

(* Build an Order.t from the downsets; must always succeed. *)
let order_of_poset p =
  let downs = downsets p in
  let name s = Printf.sprintf "d%d" s in
  let levels = List.map name downs in
  let order =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            if a <> b && a land lnot b = 0 then Some (name a, name b)
            else None)
          downs)
      downs
  in
  match O.of_levels ~levels ~order with
  | Ok o -> (o, Array.of_list downs)
  | Error e ->
      QCheck2.Test.fail_reportf
        "downset lattice rejected (should be distributive): %s" e

let prop_random_lattice_laws =
  QCheck2.Test.make ~count:300 ~name:"random distributive lattices: ops match the downset oracle"
    rposet_gen
    (fun p ->
      let o, downs = order_of_poset p in
      let n = O.size o in
      n = Array.length downs
      && List.for_all
           (fun a ->
             List.for_all
               (fun b ->
                 let da = downs.(a) and db = downs.(b) in
                 let subset x y = x land lnot y = 0 in
                 let j = O.join o a b and m = O.meet o a b in
                 (* order, lub, glb against the oracle *)
                 O.leq o a b = subset da db
                 && downs.(j) = da lor db
                 && downs.(m) = da land db
                 (* encoding soundness: leq = subset, join = or,
                    meet = and on the upset bit encodings *)
                 && O.leq o a b = subset (O.encode o a) (O.encode o b)
                 && O.encode o j = O.encode o a lor O.encode o b
                 && O.encode o m = O.encode o a land O.encode o b)
               (List.init n Fun.id))
           (List.init n Fun.id))

(* The same laws through the Space/Elt layer: an ordered coordinate next
   to classic ones behaves like the oracle under masked comparison, and
   levels round-trip. *)
let prop_mixed_space_oracle =
  QCheck2.Test.make ~count:200 ~name:"ordered coordinate in a mixed space matches the oracle"
    rposet_gen
    (fun p ->
      let o, downs = order_of_poset p in
      let sp =
        Sp.create
          [ Qualifier.const; Qualifier.ordered "q" o; Qualifier.nonzero ]
      in
      let i = Sp.find sp "q" in
      let mask = E.singleton_mask sp i in
      let n = O.size o in
      List.for_all
        (fun a ->
          let xa = E.with_level sp i a (E.bottom sp) in
          E.level sp i xa = a
          && List.for_all
               (fun b ->
                 let xb = E.with_level sp i b (E.top sp) in
                 (* masked comparison sees only the ordered coordinate *)
                 E.leq_masked sp ~mask xa xb
                 = (downs.(a) land lnot downs.(b) = 0)
                 && E.level sp i (E.join sp xa (E.with_level sp i b (E.bottom sp)))
                    = O.join o a b)
               (List.init n Fun.id))
        (List.init n Fun.id))

(* End-to-end default-space parity: analyzing generated C under the
   standard two-point const rules and under the same rules hosted in a
   wider space (extra three-level coordinate, unconstrained) yields
   identical reports. *)
let wide_const_rules =
  Cqual.Analysis.const_rules_in
    (Sp.create
       [
         Qualifier.const;
         Qualifier.ordered "trust" (O.chain_exn [ "low"; "mid"; "high" ]);
       ])

let prop_wider_space_parity =
  QCheck2.Test.make ~count:12 ~name:"const analysis unchanged in a wider space"
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let src = Cbench.Gen.generate ~seed ~target_lines:60 () in
      let run rules =
        (Support.run_source ~mode:Cqual.Analysis.Mono ~rules src)
          .Cqual.Session.results
      in
      let a = run Cqual.Analysis.const_rules and b = run wide_const_rules in
      a.Cqual.Report.total = b.Cqual.Report.total
      && a.Cqual.Report.declared = b.Cqual.Report.declared
      && a.Cqual.Report.possible = b.Cqual.Report.possible
      && a.Cqual.Report.must = b.Cqual.Report.must
      && a.Cqual.Report.type_errors = b.Cqual.Report.type_errors)

let tests =
  tests
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_random_lattice_laws;
        prop_mixed_space_oracle;
        prop_wider_space_parity;
        prop_speculation_is_resolve;
      ]
