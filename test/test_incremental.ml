(* The pieces of the warm rebuild: the FDG over interned ids, the
   solver's segment retraction, and the warm rerun's task counts, counters
   and arena bound. Warm = cold renders are checked by the replay harness
   in test_session. *)

open Cqual
module S = Typequal.Solver

(* ---------------- FDG over int ids ---------------- *)

let fundef name calls : Cfront.Cast.fundef =
  {
    f_name = name;
    f_ret = Cfront.Cast.TInt (Cfront.Cast.IInt, []);
    f_params = [];
    f_varargs = false;
    f_body =
      List.map
        (fun g -> Cfront.Cast.SExpr (Cfront.Cast.ECall (Cfront.Cast.EVar g, [])))
        calls;
    f_static = false;
    f_line = 0;
    f_name_loc = (0, 0);
    f_param_locs = [];
  }

let prog_of (defs : (string * string list) list) =
  Cfront.Cprog.build (List.map (fun (n, cs) -> Cfront.Cast.GFun (fundef n cs)) defs)

(* The textbook recursive Tarjan over name-keyed tables: the reference the
   interned, iterative graph must reproduce SCC for SCC and member for
   member. *)
let reference_sccs (defs : (string * string list) list) : string list list =
  let defined = Hashtbl.create 16 in
  List.iter (fun (n, _) -> Hashtbl.replace defined n ()) defs;
  let edges = Hashtbl.create 16 in
  List.iter
    (fun (n, cs) ->
      Hashtbl.replace edges n
        (List.filter
           (fun g -> Hashtbl.mem defined g && g <> n)
           (List.sort_uniq String.compare cs)))
    defs;
  let index = Hashtbl.create 16 and low = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] and counter = ref 0 and sccs = ref [] in
  let rec connect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace low v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          connect w;
          Hashtbl.replace low v (min (Hashtbl.find low v) (Hashtbl.find low w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace low v (min (Hashtbl.find low v) (Hashtbl.find index w)))
      (Hashtbl.find edges v);
    if Hashtbl.find low v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      sccs := pop [] :: !sccs
    end
  in
  List.iter (fun (n, _) -> if not (Hashtbl.mem index n) then connect n) defs;
  List.rev !sccs

let fdg_sccs_digest fdg =
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.map (String.concat " ") (Fdg.sccs fdg))))

(* The SCC dependency structure, from the graph's edges: per SCC, how
   many distinct SCCs it depends on, and the SCCs that depend on it (an
   edge [f -> g] means [f] mentions [g], so [f]'s SCC depends on
   [g]'s). *)
let fdg_deps_digest (fdg : Fdg.t) =
  let n = Fdg.scc_count fdg in
  let ind = Array.make n 0 and deps = Array.make n [] and stamp = Array.make n (-1) in
  for i = 0 to n - 1 do
    Array.iter
      (fun v ->
        Array.iter
          (fun w ->
            let j = fdg.Fdg.scc_of.(w) in
            if j <> i && stamp.(j) <> i then begin
              stamp.(j) <- i;
              ind.(i) <- ind.(i) + 1;
              deps.(j) <- i :: deps.(j)
            end)
          fdg.Fdg.succ.(v))
      fdg.Fdg.scc_nodes.(i)
  done;
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (Array.to_list
             (Array.mapi
                (fun i l ->
                  string_of_int ind.(i) ^ ":"
                  ^ String.concat "," (List.map string_of_int l))
                deps))))

(* recorded from the recursive, string-keyed graph this one replaced *)
let test_fdg_golden () =
  let small =
    "int h(int x);\n\
     int a(int x) { return b(x) + c(x); }\n\
     int b(int x) { return a(x) + d(x); }\n\
     int c(int x) { return e(x); }\n\
     int d(int x) { return x; }\n\
     int e(int x) { return c(x) + h(x); }\n\
     int f(void) { return a(1) + g(); }\n\
     int g(void) { return f(); }\n\
     int k(int x) { return k(x); }\n"
  in
  Alcotest.(check (list (list string)))
    "small program"
    [ [ "d" ]; [ "c"; "e" ]; [ "a"; "b" ]; [ "f"; "g" ]; [ "k" ] ]
    (Fdg.sccs (Fdg.build (Support.compile small)));
  let check name prog (sccs, deps, n, largest) =
    let fdg = Fdg.build prog in
    Alcotest.(check string) (name ^ ": sccs") sccs (fdg_sccs_digest fdg);
    Alcotest.(check string) (name ^ ": deps") deps (fdg_deps_digest fdg);
    Alcotest.(check (list int))
      (name ^ ": count, largest")
      [ n; largest ]
      [ Fdg.scc_count fdg; Fdg.largest_scc fdg ]
  in
  check "project-2k"
    (Session.program
       (Session.create (Cbench.Gen.generate_project ~seed:11 ~target_lines:2000 ())))
    ( "52f9c0bd4861e7d7d009d725fc39e7e4",
      "236f1075228afe15957b7851be5dec08",
      281,
      4 );
  check "chains-500"
    (Support.compile (Cbench.Gen.generate_chains ~seed:7 ~target_lines:500 ()))
    ("0c8359003a9ef1e999a37809edff2c21", "61587b9e134a741b8bc5356600bf9966", 343, 1)

let test_fdg_random () =
  let rng = Random.State.make [| 16 |] in
  for _ = 1 to 300 do
    let n = 1 + Random.State.int rng 40 in
    let name i = Printf.sprintf "f%d" i in
    let defs =
      List.init n (fun i ->
          ( name i,
            List.init (Random.State.int rng 4) (fun _ ->
                (* some calls name undefined functions *)
                name (Random.State.int rng (n + 3))) ))
    in
    let fdg = Fdg.build (prog_of defs) in
    let sccs = Fdg.sccs fdg in
    Alcotest.(check (list (list string))) "the reference order" (reference_sccs defs) sccs;
    (* a partition, callees first *)
    let pos = Hashtbl.create 16 in
    List.iteri (fun i scc -> List.iter (fun f -> Hashtbl.add pos f i) scc) sccs;
    Alcotest.(check int) "partition" n (Hashtbl.length pos);
    List.iter
      (fun (f, calls) ->
        List.iter
          (fun g ->
            match Hashtbl.find_opt pos g with
            | Some j ->
                if j > Hashtbl.find pos f then
                  Alcotest.failf "callee %s after its caller %s" g f
            | None -> ())
          calls)
      defs
  done

let test_fdg_deep_chain () =
  let n = 100_000 in
  let name i = Printf.sprintf "f%d" i in
  let defs = List.init n (fun i -> (name i, if i + 1 < n then [ name (i + 1) ] else [])) in
  let fdg = Fdg.build (prog_of defs) in
  Alcotest.(check int) "one SCC per function" n (Fdg.scc_count fdg);
  Alcotest.(check (list string)) "the deepest callee first" [ name (n - 1) ]
    (List.hd (Fdg.sccs fdg))

(* ---------------- the FDG built from its previous version ---------------- *)

(* A program as units of definitions, each a call list; a definition
   keeps its [fundef] value until an edit replaces it, and a unit its
   table, so a built graph sees what a session's compile shares. *)
type fprog = { fp_units : (string * string list * Cfront.Cast.fundef) list array }

let fdef name calls tag =
  let f = fundef name calls in
  (* a body statement of its own, so a rewrite is a new definition even
     when it keeps its calls *)
  { f with f_body = Cfront.Cast.SExpr (Cfront.Cast.EVar (Printf.sprintf "tag%d" tag)) :: f.f_body }

let fprog_units fp =
  Array.map
    (fun defs -> Cfront.Cprog.build (List.map (fun (_, _, f) -> Cfront.Cast.GFun f) defs))
    fp.fp_units

(* the graph by name: every SCC's members in order, each live name's SCC
   index, successors, home unit and resolved definition, the width and
   the largest SCC *)
let fdg_view (g : Fdg.t) =
  let by_name = Hashtbl.create 64 in
  List.iteri (fun k scc -> List.iter (fun n -> Hashtbl.replace by_name n k) scc) (Fdg.sccs g);
  (* the unit and place of the definition node [v] resolves to, found by
     [==]: two graphs of one program agree on it exactly when they
     resolve the name to the same definition value *)
  let def_place v =
    let d = g.Fdg.defs.(v) in
    let rec go i =
      if i = Array.length g.Fdg.units then None
      else
        match Array.find_index (fun f -> f == d) g.Fdg.units.(i) with
        | Some j -> Some (i, j)
        | None -> go (i + 1)
    in
    go 0
  in
  let nodes =
    List.sort compare
      (Hashtbl.fold
         (fun n k acc ->
           let v = Option.get (Fdg.node g n) in
           ( n,
             k,
             g.Fdg.scc_of.(v) = k,
             Array.to_list (Array.map (fun w -> g.Fdg.names.(w)) g.Fdg.succ.(v)),
             (g.Fdg.home.(v), def_place v) )
           :: acc)
         by_name [])
  in
  (Fdg.sccs g, nodes, Fdg.largest_scc g, Fdg.scc_count g)

(* One random edit of [fp]: the edited unit's table is rebuilt, every
   other unit keeps its own. *)
let fdg_edit rng counter (fp : fprog) (tables : Cfront.Cprog.t array) =
  let units = Array.copy fp.fp_units in
  let nu = Array.length units in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let all_names = List.concat_map (List.map (fun (n, _, _) -> n)) (Array.to_list units) in
  let fresh () =
    incr counter;
    Printf.sprintf "n%d" !counter
  in
  let callees () =
    List.init (Random.State.int rng 3) (fun _ ->
        if all_names = [] || Random.State.int rng 5 = 0 then Printf.sprintf "u%d" (Random.State.int rng 4)
        else pick all_names)
  in
  let def name calls = (name, calls, fdef name calls (incr counter; !counter)) in
  let u = Random.State.int rng nu in
  let defs = units.(u) in
  let touched = ref [ u ] in
  (match Random.State.int rng 7 with
  | 0 when defs <> [] ->
      (* a body edit that keeps the calls *)
      let i = Random.State.int rng (List.length defs) in
      units.(u) <- List.mapi (fun j (n, c, f) -> if j = i then def n c else (n, c, f)) defs
  | 1 ->
      (* a leaf: a fresh name calling existing ones *)
      let at = Random.State.int rng (List.length defs + 1) in
      let x = def (fresh ()) (callees ()) in
      units.(u) <- List.filteri (fun j _ -> j < at) defs @ (x :: List.filteri (fun j _ -> j >= at) defs)
  | 2 when all_names <> [] ->
      (* a fresh name and a caller of it *)
      let x = fresh () in
      let caller = pick all_names in
      units.(u) <- defs @ [ def x (callees ()) ];
      Array.iteri
        (fun k ds ->
          if List.exists (fun (n, _, _) -> n = caller) ds then begin
            touched := k :: !touched;
            units.(k) <-
              List.map (fun (n, c, f) -> if n = caller then def n (x :: c) else (n, c, f)) units.(k)
          end)
        units
  | 3 when defs <> [] ->
      (* a removal, the function possibly still called *)
      let i = Random.State.int rng (List.length defs) in
      units.(u) <- List.filteri (fun j _ -> j <> i) defs
  | 4 when defs <> [] ->
      (* new calls: cycles merge, or split when calls go *)
      let i = Random.State.int rng (List.length defs) in
      units.(u) <-
        List.mapi
          (fun j (n, c, f) ->
            if j <> i then (n, c, f)
            else if c <> [] && Random.State.bool rng then def n (List.tl c)
            else def n (callees () @ c))
          defs
  | 5 when defs <> [] ->
      (* a definition moved, within its unit or to another *)
      let i = Random.State.int rng (List.length defs) in
      let d = List.nth defs i in
      let rest = List.filteri (fun j _ -> j <> i) defs in
      let v = Random.State.int rng nu in
      touched := v :: !touched;
      units.(u) <- rest;
      let into = units.(v) in
      let at = Random.State.int rng (List.length into + 1) in
      units.(v) <- List.filteri (fun j _ -> j < at) into @ (d :: List.filteri (fun j _ -> j >= at) into)
  | _ when all_names <> [] ->
      (* a second definition of a name, which then resolves to the last *)
      units.(u) <- defs @ [ def (pick all_names) (callees ()) ]
  | _ -> units.(u) <- [ def (fresh ()) [] ]);
  let fp = { fp_units = units } in
  let fresh_tables = fprog_units fp in
  (fp, Array.mapi (fun k t -> if List.mem k !touched then fresh_tables.(k) else t) tables)

let fdg_paths : (string, int) Hashtbl.t = Hashtbl.create 4

let fdg_agrees seed =
  let rng = Random.State.make [| seed |] in
  let counter = ref 0 in
  let fp =
    ref
      {
        fp_units =
          Array.init
            (1 + Random.State.int rng 3)
            (fun _ ->
              List.init (Random.State.int rng 6) (fun _ ->
                  incr counter;
                  let n = Printf.sprintf "n%d" !counter in
                  (n, [], fdef n [] !counter)));
      }
  in
  let tables = ref (fprog_units !fp) in
  let link t = Cfront.Cprog.merge (Array.to_list t) in
  let g = ref (Fdg.build (link !tables)) in
  for step = 1 to 25 do
    let fp', tables' = fdg_edit rng counter !fp !tables in
    fp := fp';
    tables := tables';
    let prog = link tables' in
    let warm = Fdg.build ~prev:!g prog in
    let cold = Fdg.build prog in
    let path = Fdg.condensation_name warm.Fdg.condensation in
    Hashtbl.replace fdg_paths path (1 + Option.value (Hashtbl.find_opt fdg_paths path) ~default:0);
    if fdg_view warm <> fdg_view cold then
      QCheck2.Test.fail_reportf "seed %d, step %d (%s): the graph differs from a cold build" seed
        step path;
    g := warm
  done;
  true

let prop_fdg_warm_equals_cold =
  QCheck2.Test.make ~count:300 ~name:"fdg: a graph built from its last equals a cold one"
    ~print:string_of_int QCheck2.Gen.int fdg_agrees

(* the property is not vacuous: on fixed seeds every path is taken, the
   splice and the kept list often *)
let test_fdg_paths_seen () =
  Hashtbl.reset fdg_paths;
  for seed = 1 to 60 do
    ignore (fdg_agrees seed)
  done;
  let seen p = Option.value (Hashtbl.find_opt fdg_paths p) ~default:0 in
  List.iter
    (fun p -> Alcotest.(check bool) (p ^ " taken often") true (seen p > 100))
    [ "kept"; "spliced"; "tarjan" ]

(* which path each kind of edit takes *)
let test_fdg_path_cases () =
  let tables defs = Array.map (fun d -> Cfront.Cprog.build (List.map (fun f -> Cfront.Cast.GFun f) d)) defs in
  let link t = Cfront.Cprog.merge (Array.to_list t) in
  let a = fdef "a" [] 1 and b = fdef "b" [ "a" ] 2 and c = fdef "c" [ "b"; "d" ] 3 in
  let d = fdef "d" [ "c" ] 4 in
  let t0 = tables [| [ a; b ]; [ c; d ] |] in
  let g0 = Fdg.build (link t0) in
  let path what expected (g : Fdg.t) prog =
    Alcotest.(check string) what expected (Fdg.condensation_name g.Fdg.condensation);
    Alcotest.(check bool) (what ^ ": equals a cold build") true (fdg_view g = fdg_view (Fdg.build prog))
  in
  (* a body edit that keeps its calls *)
  let t1 = [| t0.(0); (tables [| [ fdef "c" [ "b"; "d" ] 5; d ] |]).(0) |] in
  let g1 = Fdg.build ~prev:g0 (link t1) in
  path "a body edit keeping its calls" "kept" g1 (link t1);
  Alcotest.(check int) "one definition scanned" 1 (List.length g1.Fdg.changed);
  (* an uncalled function whose callees all finished earlier *)
  let e = fdef "e" [ "a"; "b" ] 6 in
  let t2 = [| (tables [| [ a; b; e ] |]).(0); t1.(1) |] in
  let g2 = Fdg.build ~prev:g1 (link t2) in
  path "an uncalled leaf" "spliced" g2 (link t2);
  (* and removing it again *)
  let t3 = [| (tables [| [ a; b ] |]).(0); t1.(1) |] in
  let g3 = Fdg.build ~prev:g2 (link t3) in
  path "the leaf removed" "spliced" g3 (link t3);
  Alcotest.(check int) "its id is dead" 1 (Fdg.dead_ids g3);
  (* a new edge from [a]'s block into the later block of [c] and [d] *)
  let t4 = [| (tables [| [ fdef "a" [ "c" ] 7; b ] |]).(0); t1.(1) |] in
  let g4 = Fdg.build ~prev:g3 (link t4) in
  path "an edge into a later block" "tarjan" g4 (link t4);
  Alcotest.(check (list (list string))) "one cycle through both units"
    [ [ "a"; "c"; "b"; "d" ] ] (Fdg.sccs g4)

(* ---------------- the solver's segment retraction ---------------- *)

let sp = Typequal.Lattice.Space.create [ Typequal.Qualifier.const ]
let const = Typequal.Lattice.Elt.of_names_up sp [ "const" ]
let not_const = Typequal.Lattice.Elt.not_name sp "const"

(* three segments: [a] raises a ground violation and forces const into
   [x]; [b] bounds [x] below non-const (a violation while [a] lives);
   [c] is independent *)
let segments () =
  let st = S.create sp in
  let x = S.fresh ~name:"x" st in
  let seg f =
    let m = S.mark st in
    f ();
    (S.mark_log m, S.num_atoms st - S.mark_log m, S.ground_since st m)
  in
  let a =
    seg (fun () ->
        S.add_leq_cc st const not_const;
        S.add_leq_cv st const x)
  in
  let b = seg (fun () -> S.add_leq_vc st x not_const) in
  let c =
    seg (fun () ->
        let y = S.fresh st and z = S.fresh st in
        S.add_leq_vv st y z;
        S.add_leq_vv st z y)
  in
  (st, a, b, c)

let retract st segs =
  S.checkpoint st;
  ignore
    (S.retract st
       ~slices:(List.map (fun (l, n, _) -> (l, n)) segs)
       ~ground:(List.concat_map (fun (_, _, g) -> g) (List.rev segs)))

let test_rebuild_ground () =
  let st, a, b, c = segments () in
  ignore (S.solve st);
  Alcotest.(check int) "ground + bound violation" 2 (S.error_count st);
  retract st [ a; b; c ];
  Alcotest.(check int) "all live: both kept" 2 (S.error_count st);
  let st, a, _, c = segments () in
  ignore (S.solve st);
  retract st [ a; c ];
  Alcotest.(check int) "the bound's segment gone: the ground one stays" 1
    (S.error_count st);
  let st, _, b, c = segments () in
  ignore (S.solve st);
  retract st [ b; c ];
  Alcotest.(check int) "the ground segment gone" 0 (S.error_count st);
  (* three of four atoms dead: the log is compacted, the ground
     violation stays *)
  let st, a, _, _ = segments () in
  ignore (S.solve st);
  retract st [ a ];
  Alcotest.(check int) "compacted to the live atom" 1 (S.num_atoms st);
  Alcotest.(check int) "compacted: the ground one stays" 1 (S.error_count st)

let test_rebuild_counters () =
  let st, a, b, c = segments () in
  ignore (S.solve st);
  let cold = S.stats st in
  let vars = S.num_vars st in
  retract st [ a; b; c ];
  let warm = S.stats st in
  Alcotest.(check int) "no variable created" vars (S.num_vars st);
  Alcotest.(check int) "every atom kept" 4 (S.num_atoms st);
  Alcotest.(check (list int))
    "structural counters as built"
    [ cold.S.edges_added; cold.S.edges_deduped ]
    [ warm.S.edges_added; warm.S.edges_deduped ];
  (* [b]'s bound and [c]'s two edges die: three of four atoms, so the
     log is compacted *)
  let st, a, _, _ = segments () in
  ignore (S.solve st);
  retract st [ a ];
  Alcotest.(check int) "only the live atoms remain" 1 (S.num_atoms st);
  Alcotest.(check int) "no variable freed" vars (S.num_vars st);
  let warm = S.stats st in
  Alcotest.(check (list int)) "structural counters of the live atom" [ 0; 0 ]
    [ warm.S.edges_added; warm.S.edges_deduped ]

(* ---------------- warm reruns ---------------- *)

let modes = [ Analysis.Mono; Analysis.Poly; Analysis.Polyrec ]

let last_rebuild t =
  match (Session.stats t).Session.ss_last_rebuild with
  | Some rb -> rb
  | None -> Alcotest.fail "no rebuild recorded"

let rerun_after t name src =
  ignore (Session.update_unit t name src);
  ignore (Session.run t);
  last_rebuild t

let project = lazy (Cbench.Gen.generate_project ~seed:11 ~target_lines:2000 ())

let replace units name src =
  List.map (fun (n, s) -> if n = name then (n, src) else (n, s)) units

(* every occurrence of [sub] in [s] replaced by [by] *)
let replace_all ~sub ~by s =
  let b = Buffer.create (String.length s) in
  let n = String.length sub in
  let i = ref 0 in
  while !i < String.length s do
    if !i + n <= String.length s && String.sub s !i n = sub then begin
      Buffer.add_string b by;
      i := !i + n
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let first_mod units =
  List.find (fun (n, _) -> String.length n > 4 && String.sub n 0 4 = "mod_") units

let test_leaf_append () =
  let units = Lazy.force project in
  let name, src = first_mod units in
  List.iter
    (fun mode ->
      let t = Session.create ~mode units in
      ignore (Session.run t);
      let rb =
        rerun_after t name (src ^ "\nint leaf_appended(char *s) { return *s; }\n")
      in
      let m = Session.mode_name mode in
      Alcotest.(check bool) (m ^ ": incremental") false rb.Session.rb_full;
      Alcotest.(check int) (m ^ ": one task re-ran") 1 rb.Session.rb_tasks_rerun;
      Alcotest.(check int) (m ^ ": one unit re-parsed") 1 rb.Session.rb_units_built)
    modes

let test_whitespace_only () =
  let units = Lazy.force project in
  let name, src = first_mod units in
  List.iter
    (fun mode ->
      let t = Session.create ~mode units in
      ignore (Session.run t);
      (* every line moves: definitions differ in locations only *)
      let rb = rerun_after t name ("\n\n" ^ src) in
      let m = Session.mode_name mode in
      Alcotest.(check bool) (m ^ ": incremental") false rb.Session.rb_full;
      Alcotest.(check int) (m ^ ": nothing re-ran") 0 rb.Session.rb_tasks_rerun)
    modes

(* a body change that leaves the compacted summary as it was: the early
   cutoff keeps every caller *)
let test_cutoff () =
  let src body =
    Printf.sprintf
      "char *leaf(char *s) { %s return s; }\n\
       char *mid(char *s) { return leaf(s); }\n\
       char *top(char *s) { return mid(s); }\n"
      body
  in
  let t = Session.create ~mode:Analysis.Poly [ ("c.c", src "") ] in
  ignore (Session.run t);
  let rb = rerun_after t "c.c" (src "int k; k = 1;") in
  Alcotest.(check int) "only the edited function re-ran" 1 rb.Session.rb_tasks_rerun;
  let rb = rerun_after t "c.c" (src "*s = 0;") in
  Alcotest.(check int) "a new summary re-runs the whole chain" 3 rb.Session.rb_tasks_rerun

(* the rebuilt store is the cold store up to variable renaming: same
   live variable count, same structural counters *)
let test_rebuild_matches_cold () =
  let units = Lazy.force project in
  let name, src = first_mod units in
  let lines = String.split_on_char '\n' src in
  (* every definition of the unit writes through its first pointer *)
  let edited =
    String.concat "\n"
      (List.map
         (fun l ->
           match String.index_opt l '{' with
           | Some i when String.length l > 0 && l.[0] <> ' ' && String.contains l '('
             ->
               String.sub l 0 (i + 1) ^ " 0; " ^ String.sub l (i + 1) (String.length l - i - 1)
           | _ -> l)
         lines)
  in
  List.iter
    (fun mode ->
      let t = Session.create ~mode units in
      ignore (Session.run t);
      ignore (Session.update_unit t name edited);
      let warm = Session.run t in
      let cold =
        Session.run (Session.create ~mode (replace units name edited))
      in
      let m = Session.mode_name mode in
      let c (r : Session.run) =
        let s = r.Session.solver_stats in
        [
          r.Session.n_constraints;
          s.S.edges_added;
          s.S.edges_deduped;
          r.Session.results.Report.type_errors;
        ]
      in
      Alcotest.(check bool) (m ^ ": incremental") false (last_rebuild t).Session.rb_full;
      Alcotest.(check (list int)) (m ^ ": vars, edges, dedup, errors") (c cold) (c warm))
    modes

(* A cold run is the task loop from nothing: every task re-runs, over
   every live function, and every variable it created is live. The last
   is the report header's qualifier-variable count, which a cold run
   must give as the store's variable count; auto-declared globals are
   counted apart from the segments that create them. *)
let test_cold_invariants () =
  let autos =
    ( "autos",
      Session.program
        (Session.create
           [
             ( "autos.c",
               "int f(int *p) { undeclared_x = *p; return undeclared_y; }\n\
                int g(void) { return f(&undeclared_x) + undeclared_z; }\n" );
           ]) )
  in
  let midi =
    ( "midi-project-sim",
      Session.program
        (Session.create (Option.get (Cbench.Suite.units_of_name "midi-project-sim"))) )
  in
  let embedded = List.map (fun (n, src) -> (n, Support.compile src)) Cbench.Programs.all in
  List.iter
    (fun (name, prog) ->
      List.iter
        (fun mode ->
          let what = Printf.sprintf "%s, %s: " name (Session.mode_name mode) in
          let env, ri =
            Result.get_ok (Analysis.advance (Analysis.make_env mode prog) None prog)
          in
          let fdg = Option.get (Analysis.fdg env) in
          Alcotest.(check int) (what ^ "every task re-runs") ri.Analysis.ri_tasks
            ri.Analysis.ri_rerun;
          Alcotest.(check int) (what ^ "over every live function") fdg.Fdg.live
            ri.Analysis.ri_rerun_members;
          Alcotest.(check int) (what ^ "every variable is live")
            (S.num_vars env.Analysis.store) (Analysis.live_vars env))
        modes)
    (autos :: midi :: embedded)

(* a stream of edits whose cones are large keeps the arena within twice
   the live variables: a rerun that would leave more dead than live
   variables is a full run instead *)
let test_arena_bound () =
  let units = Lazy.force project in
  let name, src = first_mod units in
  let env = ref (fst (Analysis.run Analysis.Poly (Session.program (Session.create units)))) in
  let fulls = ref 0 in
  for k = 1 to 50 do
    (* rename the first parameter of every definition: the unit's tasks
       all re-run, so each edit kills a fifth of the store *)
    let edited =
      replace_all ~sub:"(char *s" ~by:(Printf.sprintf "(char *s%d" k) src
      |> replace_all ~sub:"*s " ~by:(Printf.sprintf "*s%d " k)
    in
    let prog = Session.program (Session.create (replace units name edited)) in
    (match Analysis.rerun !env prog with
    | Ok (e, _) -> env := e
    | Error _ ->
        incr fulls;
        env := fst (Analysis.run Analysis.Poly prog));
    let arena = S.num_vars !env.Analysis.store in
    let live = Analysis.live_vars !env in
    if arena > 2 * live then
      Alcotest.failf "edit %d: %d variables in the arena, %d live" k arena live
  done;
  Alcotest.(check bool) "the bound forced full runs" true (!fulls > 0);
  Alcotest.(check bool) "most edits stayed warm" true (!fulls < 25)

(* A one-function edit on midi-project-sim: outside the solver, the warm
   run rebuilds only what the edit touches. The edit writes through the
   first [char *s] parameter of one definition, on its own line, so no
   other definition's anchor moves. *)
let test_edit_counters () =
  let units = Cbench.Suite.project_of (List.hd Cbench.Suite.scale_smoke) in
  let name, src = first_mod units in
  let lines = Array.of_list (String.split_on_char '\n' src) in
  let i = ref 0 in
  while
    let l = lines.(!i) in
    not
      (String.length l > 0 && l.[0] <> ' ' && String.contains l '{'
      && Option.is_some (String.index_opt l '(')
      && String.sub l (String.index l '(') 8 = "(char *s")
  do
    incr i
  done;
  let l = lines.(!i) in
  let brace = String.index l '{' in
  lines.(!i) <-
    String.sub l 0 (brace + 1) ^ " *s = 0;" ^ String.sub l (brace + 1) (String.length l - brace - 1);
  let edited = String.concat "\n" (Array.to_list lines) in
  let defs_in_unit =
    List.length (Cfront.Cprog.functions (Session.program (Session.create [ (name, edited) ])))
  in
  let t = Session.create ~mode:Analysis.Poly units in
  ignore (Session.run t);
  let rb = rerun_after t name edited in
  Alcotest.(check bool) "incremental" false rb.Session.rb_full;
  Alcotest.(check bool) "some task re-ran" true (rb.Session.rb_tasks_rerun >= 1);
  Alcotest.(check int) "one unit built" 1 rb.Session.rb_units_built;
  Alcotest.(check bool)
    (Printf.sprintf "FDG rescans (%d) within the edited unit's %d definitions"
       rb.Session.rb_defs_rescanned defs_in_unit)
    true
    (rb.Session.rb_defs_rescanned >= 1 && rb.Session.rb_defs_rescanned <= defs_in_unit);
  Alcotest.(check string) "a body write keeps the condensation" "kept"
    rb.Session.rb_condensation;
  Alcotest.(check int) "rows re-measured = the re-run tasks' members"
    rb.Session.rb_members_rerun rb.Session.rb_rows_remeasured;
  Alcotest.(check bool) "the key index is patched" true rb.Session.rb_index_patched;
  Alcotest.(check string) "warm = cold"
    (Session.render ~positions:true ~name:"midi"
       (Session.create ~mode:Analysis.Poly (replace units name edited)))
    (Session.render ~positions:true ~name:"midi" t)

(* the unit's first definition whose first parameter is [char *s], with
   [*s = 0;] written through it after its brace (the even edits of the
   gating benchmark's stream); no other definition's lines move *)
let write_through_param src =
  let lines = Array.of_list (String.split_on_char '\n' src) in
  let i = ref 0 in
  while
    let l = lines.(!i) in
    not
      (String.length l > 0 && l.[0] <> ' ' && String.contains l '{'
      && (match String.index_opt l '(' with
         | Some p -> p + 8 <= String.length l && String.sub l p 8 = "(char *s"
         | None -> false))
  do
    incr i
  done;
  let l = lines.(!i) in
  let brace = String.index l '{' in
  lines.(!i) <-
    String.sub l 0 (brace + 1) ^ " *s = 0;" ^ String.sub l (brace + 1) (String.length l - brace - 1);
  String.concat "\n" (Array.to_list lines)

(* The two kinds of edit the gating benchmark makes take the decremental
   path in every mode, delete what the edited tasks logged, and leave the
   store a cold run builds. *)
let test_decremental_path () =
  let units = Lazy.force project in
  let name, src = first_mod units in
  List.iter
    (fun mode ->
      let m = Session.mode_name mode in
      let t = Session.create ~mode units in
      ignore (Session.run t);
      List.iter
        (fun (what, edited) ->
          let rb = rerun_after t name edited in
          Alcotest.(check bool) (m ^ ", " ^ what ^ ": warm") false rb.Session.rb_full;
          Alcotest.(check bool) (m ^ ", " ^ what ^ ": atoms deleted") true
            (rb.Session.rb_atoms_deleted > 0);
          Alcotest.(check string) (m ^ ", " ^ what ^ ": warm = cold")
            (Session.render ~positions:true ~name:"p"
               (Session.create ~mode (replace units name edited)))
            (Session.render ~positions:true ~name:"p" t))
        [
          ("parameter write", write_through_param src);
          ("leaf append", write_through_param src ^ "\nint leaf_appended(char *s) { return *s; }\n");
        ])
    modes

(* A dead atom on a cycle (f's [h = g] against k's [g = h]) is deleted
   in place like any other. *)
let test_cycle_decremental () =
  let src body =
    Printf.sprintf "char *g; char *h;\nvoid f(void) { %s }\nvoid k(void) { g = h; }\n" body
  in
  let t = Session.create ~mode:Analysis.Mono [ ("c.c", src "h = g;") ] in
  ignore (Session.run t);
  let rb = rerun_after t "c.c" (src "") in
  Alcotest.(check bool) "warm" false rb.Session.rb_full;
  Alcotest.(check bool) "atoms deleted" true (rb.Session.rb_atoms_deleted > 0);
  Alcotest.(check string) "warm = cold"
    (Session.render ~positions:true ~name:"p" (Session.create ~mode:Analysis.Mono [ ("c.c", src "") ]))
    (Session.render ~positions:true ~name:"p" t)

let tests =
  [
    Alcotest.test_case "fdg: golden SCC lists" `Quick test_fdg_golden;
    Alcotest.test_case "fdg: random graphs match the recursive reference" `Quick
      test_fdg_random;
    Alcotest.test_case "fdg: a 100k-deep call chain" `Quick test_fdg_deep_chain;
    QCheck_alcotest.to_alcotest prop_fdg_warm_equals_cold;
    Alcotest.test_case "fdg: every condensation path is taken" `Quick test_fdg_paths_seen;
    Alcotest.test_case "fdg: the path each kind of edit takes" `Quick test_fdg_path_cases;
    Alcotest.test_case "rebuild: live ground errors kept, dead ones dropped"
      `Quick test_rebuild_ground;
    Alcotest.test_case "rebuild: counters describe the rebuilt system" `Quick
      test_rebuild_counters;
    Alcotest.test_case "cold: every task re-runs, every variable is live" `Slow
      test_cold_invariants;
    Alcotest.test_case "warm: a leaf append re-runs one task" `Quick
      test_leaf_append;
    Alcotest.test_case "warm: a whitespace-only edit re-runs nothing" `Quick
      test_whitespace_only;
    Alcotest.test_case "warm: an unchanged summary cuts the cone" `Quick
      test_cutoff;
    Alcotest.test_case "warm: the rebuilt store matches a cold one" `Quick
      test_rebuild_matches_cold;
    Alcotest.test_case "warm: the arena stays within twice the live variables"
      `Quick test_arena_bound;
    Alcotest.test_case "warm: a one-function edit rebuilds only its own unit"
      `Quick test_edit_counters;
    Alcotest.test_case "warm: parameter writes and leaf appends delete in place"
      `Quick test_decremental_path;
    Alcotest.test_case "warm: a dead atom on a cycle, in place" `Quick
      test_cycle_decremental;
  ]
