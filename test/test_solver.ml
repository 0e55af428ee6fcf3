(* Tests for the atomic qualifier-constraint solver (Section 3.1). *)

open Typequal
module Sp = Lattice.Space
module E = Lattice.Elt
module S = Solver

let space () = Sp.create [ Qualifier.const; Qualifier.nonzero ]

let const_elt sp = E.of_names_up sp [ "const" ]

let test_unconstrained () =
  let sp = space () in
  let st = S.create sp in
  let v = S.fresh st in
  (match S.solve st with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "unconstrained system must be satisfiable");
  Alcotest.(check bool) "least = bottom" true
    (E.equal (S.least st v) (E.bottom sp));
  Alcotest.(check bool) "greatest = top" true
    (E.equal (S.greatest st v) (E.top sp));
  Alcotest.(check bool) "free verdict" true
    (S.classify_name st v "const" = S.Free)

let test_lower_bound_propagates () =
  let sp = space () in
  let st = S.create sp in
  let a = S.fresh st and b = S.fresh st and c = S.fresh st in
  S.add_leq_cv st (const_elt sp) a;
  S.add_leq_vv st a b;
  S.add_leq_vv st b c;
  Alcotest.(check bool) "solve ok" true (Result.is_ok (S.solve st));
  Alcotest.(check bool) "const reaches c" true
    (E.has_name sp "const" (S.least st c));
  Alcotest.(check bool) "c forced up" true
    (S.classify_name st c "const" = S.Forced_up)

let test_upper_bound_propagates () =
  let sp = space () in
  let st = S.create sp in
  let a = S.fresh st and b = S.fresh st in
  S.add_leq_vv st a b;
  S.add_leq_vc st b (E.not_name sp "const");
  Alcotest.(check bool) "solve ok" true (Result.is_ok (S.solve st));
  (* greatest solution of a lacks const: a can never be const *)
  Alcotest.(check bool) "a must not be const" true
    (S.classify_name st a "const" = S.Forced_down)

let test_unsat () =
  let sp = space () in
  let st = S.create sp in
  let a = S.fresh st and b = S.fresh st in
  S.add_leq_cv ~reason:"a starts const" st (const_elt sp) a;
  S.add_leq_vv ~reason:"a flows to b" st a b;
  S.add_leq_vc ~reason:"b is assigned" st b (E.not_name sp "const");
  match S.solve st with
  | Ok () -> Alcotest.fail "expected unsat"
  | Error errs ->
      Alcotest.(check bool) "one error" true (List.length errs >= 1);
      let msg = S.error_message (List.hd errs) in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "error mentions const: %s" msg)
        true (contains msg "const")

let test_ground_unsat () =
  let sp = space () in
  let st = S.create sp in
  S.add_leq_cc st (E.top sp) (E.bottom sp);
  Alcotest.(check bool) "ground failure detected" true
    (Result.is_error (S.solve st))

let test_ground_sat () =
  let sp = space () in
  let st = S.create sp in
  S.add_leq_cc st (E.bottom sp) (E.top sp);
  S.add_leq_cc st (E.bottom sp) (E.bottom sp);
  Alcotest.(check bool) "trivial ground constraints fine" true
    (Result.is_ok (S.solve st))

let test_cycle () =
  let sp = space () in
  let st = S.create sp in
  let a = S.fresh st and b = S.fresh st and c = S.fresh st in
  S.add_leq_vv st a b;
  S.add_leq_vv st b c;
  S.add_leq_vv st c a;
  S.add_leq_cv st (const_elt sp) b;
  Alcotest.(check bool) "cycles converge" true (Result.is_ok (S.solve st));
  List.iter
    (fun v ->
      Alcotest.(check bool) "whole cycle const" true
        (E.has_name sp "const" (S.least st v)))
    [ a; b; c ]

let test_negative_coordinate () =
  let sp = space () in
  let st = S.create sp in
  let a = S.fresh st in
  (* force nonzero ABSENT via a lower bound (absence is the negative
     coordinate's top, so it propagates upward) *)
  let i = Sp.find sp "nonzero" in
  S.add_leq_cv ~mask:(E.singleton_mask sp i) st
    (E.clear sp i (E.bottom sp))
    a;
  (* and require nonzero present via an upper bound *)
  S.add_leq_vc st a (E.not_name sp "nonzero");
  Alcotest.(check bool) "absent vs required nonzero unsat" true
    (Result.is_error (S.solve st))

let test_masked_independence () =
  let sp = space () in
  let st = S.create sp in
  let a = S.fresh st and b = S.fresh st in
  let i_const = Sp.find sp "const" in
  (* flow only the const coordinate from a to b *)
  S.add_leq_vv ~mask:(E.singleton_mask sp i_const) st a b;
  S.add_leq_cv st (E.top sp) a;
  Alcotest.(check bool) "solve" true (Result.is_ok (S.solve st));
  Alcotest.(check bool) "const flowed" true
    (E.has_name sp "const" (S.least st b));
  (* the nonzero coordinate did NOT flow: b's nonzero stays at its bottom
     (present) even though a's is absent (top) *)
  Alcotest.(check bool) "nonzero not flowed" true
    (E.has_name sp "nonzero" (S.least st b))

let test_eq_vc () =
  let sp = space () in
  let st = S.create sp in
  let a = S.fresh st in
  S.add_eq_vc st a (const_elt sp);
  Alcotest.(check bool) "solve" true (Result.is_ok (S.solve st));
  Alcotest.(check bool) "pinned lo" true (E.equal (S.least st a) (const_elt sp));
  Alcotest.(check bool) "pinned hi" true
    (E.equal (S.greatest st a) (const_elt sp))

let test_resolve_incremental () =
  (* adding constraints after a solve invalidates and re-solves *)
  let sp = space () in
  let st = S.create sp in
  let a = S.fresh st in
  Alcotest.(check bool) "initially free" true
    (S.classify_name st a "const" = S.Free);
  S.add_leq_cv st (const_elt sp) a;
  Alcotest.(check bool) "now forced up" true
    (S.classify_name st a "const" = S.Forced_up)

let test_recording_and_instantiation () =
  let sp = space () in
  let st = S.create sp in
  let shared = S.fresh ~name:"shared" st in
  let (g, local), atoms =
    S.recording st (fun () ->
        let g = S.fresh ~name:"g" st in
        let local = S.fresh ~name:"local" st in
        S.add_leq_vv st g local;
        S.add_leq_vv st local shared;
        (g, local))
  in
  Alcotest.(check int) "two atoms captured" 2 (List.length atoms);
  let sch = S.make_scheme ~locals:[ g; local ] ~atoms in
  (* two instances; constrain one instance's g below ¬const, make the other
     const: must NOT interfere *)
  let rn1 = S.instantiate st sch in
  let rn2 = S.instantiate st sch in
  let g1 = rn1 g and g2 = rn2 g in
  Alcotest.(check bool) "renamed apart" true (S.var_id g1 <> S.var_id g2);
  S.add_leq_vc st g1 (E.not_name sp "const");
  S.add_leq_cv st (const_elt sp) g2;
  Alcotest.(check bool) "instances independent" true
    (Result.is_ok (S.solve st));
  (* but both instances still flow into the shared (non-local) variable *)
  Alcotest.(check bool) "shared receives const from instance 2" true
    (E.has_name sp "const" (S.least st shared))

let test_scheme_cross_talk_via_local () =
  (* The existential binding matters: a scheme-internal chain g <= local <=
     g' must not leak between instances. *)
  let sp = space () in
  let st = S.create sp in
  let (g, g'), atoms =
    S.recording st (fun () ->
        let g = S.fresh st and local = S.fresh st and g' = S.fresh st in
        S.add_leq_vv st g local;
        S.add_leq_vv st local g';
        (g, g'))
  in
  (* find the local var: it's mentioned in atoms but we didn't keep it;
     rebuild the locals list from the atoms *)
  let locals =
    List.concat_map
      (function
        | S.Avv (a, b, _, _) -> [ a; b ]
        | S.Avc (v, _, _, _) | S.Acv (_, v, _, _) -> [ v ])
      atoms
    |> List.sort_uniq (fun a b -> compare (S.var_id a) (S.var_id b))
  in
  let sch = S.make_scheme ~locals ~atoms in
  let rn1 = S.instantiate st sch in
  let rn2 = S.instantiate st sch in
  S.add_leq_cv st (const_elt sp) (rn1 g);
  S.add_leq_vc st (rn2 g') (E.not_name sp "const");
  Alcotest.(check bool) "no cross-instance leak" true
    (Result.is_ok (S.solve st))

let tests =
  [
    Alcotest.test_case "unconstrained variable" `Quick test_unconstrained;
    Alcotest.test_case "lower bounds propagate" `Quick
      test_lower_bound_propagates;
    Alcotest.test_case "upper bounds propagate backwards" `Quick
      test_upper_bound_propagates;
    Alcotest.test_case "unsatisfiable flow" `Quick test_unsat;
    Alcotest.test_case "ground unsat" `Quick test_ground_unsat;
    Alcotest.test_case "ground sat" `Quick test_ground_sat;
    Alcotest.test_case "cycles converge" `Quick test_cycle;
    Alcotest.test_case "negative coordinate" `Quick test_negative_coordinate;
    Alcotest.test_case "masked constraints are independent" `Quick
      test_masked_independence;
    Alcotest.test_case "pinning (eq) bounds" `Quick test_eq_vc;
    Alcotest.test_case "incremental re-solve" `Quick test_resolve_incremental;
    Alcotest.test_case "recording and instantiation" `Quick
      test_recording_and_instantiation;
    Alcotest.test_case "no cross-talk through scheme locals" `Quick
      test_scheme_cross_talk_via_local;
  ]

let test_pp_scheme () =
  let sp = space () in
  let st = S.create sp in
  let g, atoms =
    S.recording st (fun () ->
        let g = S.fresh ~name:"g" st in
        S.add_leq_vc st g (E.not_name sp "const");
        g)
  in
  let sch = S.make_scheme ~locals:[ g ] ~atoms in
  let str = Fmt.str "%a" (S.pp_scheme sp) sch in
  Alcotest.(check bool)
    (Printf.sprintf "rendered: %s" str)
    true
    (String.length str > 4 && String.sub str 0 4 = "\xe2\x88\x80g")

let tests = tests @ [ Alcotest.test_case "pp_scheme" `Quick test_pp_scheme ]

(* ------------- union-find / cycle elimination / incremental ---------- *)

let test_last_errors () =
  let sp = space () in
  let st = S.create sp in
  let a = S.fresh st and b = S.fresh st in
  S.add_leq_vv st a b;
  ignore (S.least st a);
  Alcotest.(check int) "no errors yet" 0 (List.length (S.last_errors st));
  S.add_leq_cv st (const_elt sp) a;
  S.add_leq_vc st b (E.not_name sp "const");
  (* regression: a bare query solves silently; last_errors must expose that
     the values come from an unsatisfiable system *)
  ignore (S.least st b);
  Alcotest.(check bool) "errors visible after silent query" true
    (S.last_errors st <> []);
  let n = List.length (S.last_errors st) in
  ignore (S.greatest st a);
  ignore (S.classify_name st a "const");
  Alcotest.(check int) "stable across further queries" n
    (List.length (S.last_errors st))

(* a full-mask cycle forces its members equal in every solution; plain
   propagation gets there without merging them *)
let test_full_mask_cycle () =
  let sp = space () in
  let st = S.create sp in
  let a = S.fresh st and b = S.fresh st and c = S.fresh st in
  S.add_leq_vv st a b;
  S.add_leq_vv st b c;
  S.add_leq_vv st c a;
  Alcotest.(check int) "three edges" 3 (S.stats st).S.edges_added;
  S.add_leq_cv st (const_elt sp) b;
  S.add_leq_vc st c (E.not_name sp "nonzero");
  Alcotest.(check bool) "still satisfiable" true (Result.is_ok (S.solve st));
  List.iter
    (fun v ->
      Alcotest.(check bool) "least: const, like b" true
        (E.equal (S.least st b) (S.least st v));
      Alcotest.(check bool) "greatest: not nonzero, like c" true
        (E.equal (S.greatest st c) (S.greatest st v)))
    [ a; b; c ];
  Alcotest.(check bool) "the bound reached the whole cycle" true
    (E.has_name sp "const" (S.least st a))

let test_edge_dedup () =
  let sp = space () in
  let st = S.create sp in
  let a = S.fresh st and b = S.fresh st in
  for _ = 1 to 50 do
    S.add_leq_vv st a b
  done;
  let s = S.stats st in
  Alcotest.(check int) "one edge kept" 1 s.S.edges_added;
  Alcotest.(check int) "rest deduped" 49 s.S.edges_deduped;
  (* a different mask is a different edge *)
  let i = Sp.find sp "const" in
  S.add_leq_vv ~mask:(E.singleton_mask sp i) st a b;
  Alcotest.(check int) "masked edge is distinct" 2 (S.stats st).S.edges_added

let test_bound_dedup () =
  (* constant bounds dedup like edges: same var, constant and mask *)
  let sp = space () in
  let st = S.create sp in
  let a = S.fresh st in
  for _ = 1 to 50 do
    S.add_leq_vc st a (E.not_name sp "const")
  done;
  Alcotest.(check int) "repeat bounds deduped" 49 (S.stats st).S.edges_deduped;
  (* a different mask is a different bound *)
  let i = Sp.find sp "const" in
  S.add_leq_vc ~mask:(E.singleton_mask sp i) st a (E.not_name sp "const");
  Alcotest.(check int) "masked bound is distinct" 49
    (S.stats st).S.edges_deduped

let test_instantiate_bound_dedup () =
  (* regression: instantiation used to re-add identical constant bounds on
     the scheme's free variables every time, bypassing dedup — visible as
     [edges_deduped: 0] on polymorphic runs while provenance lists grew
     with every call site *)
  let sp = space () in
  let st = S.create sp in
  let g = S.fresh ~name:"global" st in
  let local, atoms =
    S.recording st (fun () ->
        let l = S.fresh st in
        S.add_leq_vv st l g;
        S.add_leq_vc st g (E.not_name sp "const");
        l)
  in
  let sch = S.make_scheme ~locals:[ local ] ~atoms in
  let before = (S.stats st).S.edges_deduped in
  for _ = 1 to 10 do
    ignore (S.instantiate st sch : S.var -> S.var)
  done;
  (* each instance freshens [l] (new edge, not a duplicate) but re-emits
     the same bound on the shared [g]: all ten dedup *)
  Alcotest.(check int) "shared bound deduped per instance" (before + 10)
    (S.stats st).S.edges_deduped;
  Alcotest.(check bool) "system stays satisfiable" true
    (match S.solve st with Ok () -> true | Error _ -> false)

let test_masked_cycle_apart () =
  let sp = space () in
  let st = S.create sp in
  let a = S.fresh st and b = S.fresh st in
  let mc = E.singleton_mask sp (Sp.find sp "const") in
  (* a two-cycle on the const coordinate only: the variables may still
     differ on nonzero *)
  S.add_leq_vv ~mask:mc st a b;
  S.add_leq_vv ~mask:mc st b a;
  (* a full-mask edge one way + masked back edge does not tie the other
     coordinates either *)
  S.add_leq_vv st a b;
  let mn = E.singleton_mask sp (Sp.find sp "nonzero") in
  S.add_leq_cv ~mask:mn st (E.top sp) b;
  Alcotest.(check bool) "b's nonzero bound stays off a" true
    (E.equal (E.bottom sp) (S.least st a));
  S.add_leq_cv st (E.top sp) a;
  ignore (S.solve st);
  Alcotest.(check bool) "const flowed" true
    (E.has_name sp "const" (S.least st b))

let test_incremental_matches_scratch () =
  let sp = space () in
  let st = S.create sp in
  let vars = Array.init 40 (fun _ -> S.fresh st) in
  for i = 0 to 38 do
    S.add_leq_vv st vars.(i) vars.((i * 11 + 5) mod 40)
  done;
  S.add_leq_cv st (const_elt sp) vars.(3);
  ignore (S.solve st);
  (* grow after the first solve, querying between additions so the
     incremental path is exercised repeatedly *)
  for i = 0 to 9 do
    S.add_leq_vv st vars.(i) vars.(39 - i);
    ignore (S.least st vars.(39 - i))
  done;
  S.add_leq_vc st vars.(7) (E.not_name sp "const");
  ignore (S.solve st);
  let lo = Array.map (S.least st) vars in
  let hi = Array.map (S.greatest st) vars in
  (* the fixpoint is unique: a from-scratch solve must agree *)
  ignore (S.solve_from_scratch st);
  Array.iteri
    (fun i v ->
      Alcotest.(check bool) (Printf.sprintf "lo %d" i) true
        (E.equal lo.(i) (S.least st v));
      Alcotest.(check bool) (Printf.sprintf "hi %d" i) true
        (E.equal hi.(i) (S.greatest st v)))
    vars;
  (* and the constraint-log replay oracle agrees, by original var id *)
  let nb = S.naive_bounds st in
  Array.iteri
    (fun i v ->
      let l, h = nb (S.var_id v) in
      Alcotest.(check bool) (Printf.sprintf "oracle lo %d" i) true
        (E.equal l lo.(i));
      Alcotest.(check bool) (Printf.sprintf "oracle hi %d" i) true
        (E.equal h hi.(i)))
    vars

let tests =
  tests
  @ [
      Alcotest.test_case "last_errors after silent queries" `Quick
        test_last_errors;
      Alcotest.test_case "a full-mask cycle's members agree" `Quick
        test_full_mask_cycle;
      Alcotest.test_case "edge dedup on insertion" `Quick test_edge_dedup;
      Alcotest.test_case "bound dedup on insertion" `Quick test_bound_dedup;
      Alcotest.test_case "instantiation dedups shared bounds" `Quick
        test_instantiate_bound_dedup;
      Alcotest.test_case "masked cycles stay apart" `Quick
        test_masked_cycle_apart;
      Alcotest.test_case "incremental = from-scratch = oracle" `Quick
        test_incremental_matches_scratch;
    ]
