(* The pieces of the warm rebuild: the FDG over interned ids, the
   solver's segment rebuild, and the warm rerun's task counts, counters
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

let fdg_deps_digest fdg =
  let ind, deps = Fdg.scc_deps fdg in
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
  let check name prog (sccs, deps, n, largest, width) =
    let fdg = Fdg.build prog in
    Alcotest.(check string) (name ^ ": sccs") sccs (fdg_sccs_digest fdg);
    Alcotest.(check string) (name ^ ": deps") deps (fdg_deps_digest fdg);
    Alcotest.(check (list int))
      (name ^ ": count, largest, width")
      [ n; largest; width ]
      [ Fdg.scc_count fdg; Fdg.largest_scc fdg; Fdg.wavefront_width fdg ]
  in
  check "project-2k"
    (Session.program
       (Session.create (Cbench.Gen.generate_project ~seed:11 ~target_lines:2000 ())))
    ( "52f9c0bd4861e7d7d009d725fc39e7e4",
      "236f1075228afe15957b7851be5dec08",
      281,
      4,
      176 );
  check "chains-500"
    (Support.compile (Cbench.Gen.generate_chains ~seed:7 ~target_lines:500 ()))
    ("0c8359003a9ef1e999a37809edff2c21", "61587b9e134a741b8bc5356600bf9966", 343, 1, 26)

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

(* ---------------- the solver's segment rebuild ---------------- *)

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

let rebuild st segs =
  ignore
    (S.rebuild st
       ~slices:(List.map (fun (l, n, _) -> (l, n)) segs)
       ~ground:(List.concat_map (fun (_, _, g) -> g) (List.rev segs)))

let test_rebuild_ground () =
  let st, a, b, c = segments () in
  ignore (S.solve st);
  Alcotest.(check int) "ground + bound violation" 2 (S.error_count st);
  rebuild st [ a; b; c ];
  Alcotest.(check int) "all live: both kept" 2 (S.error_count st);
  let st, a, _, c = segments () in
  rebuild st [ a; c ];
  Alcotest.(check int) "the bound's segment gone: the ground one stays" 1
    (S.error_count st);
  let st, _, b, c = segments () in
  rebuild st [ b; c ];
  Alcotest.(check int) "the ground segment gone" 0 (S.error_count st)

let test_rebuild_counters () =
  let st, a, b, c = segments () in
  ignore (S.solve st);
  let cold = S.stats st in
  let vars = S.num_vars st in
  rebuild st [ a; b; c ];
  let warm = S.stats st in
  Alcotest.(check int) "no variable created" vars (S.num_vars st);
  Alcotest.(check int) "every atom kept" 4 (S.num_atoms st);
  Alcotest.(check (list int))
    "structural counters as built"
    [ cold.S.edges_added; cold.S.edges_deduped ]
    [ warm.S.edges_added; warm.S.edges_deduped ];
  let st, a, _, _ = segments () in
  rebuild st [ a ];
  Alcotest.(check int) "only the live atoms remain" 1 (S.num_atoms st)

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
      Alcotest.(check int) (m ^ ": one unit re-parsed") 1 rb.Session.rb_units_reparsed)
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
    | Ok (e, _, _) -> env := e
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
  Alcotest.(check bool) "a body write keeps the condensation" true
    rb.Session.rb_condensation_reused;
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
          Alcotest.(check string) (m ^ ", " ^ what ^ ": solve") "decremental" rb.Session.rb_solve;
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
  Alcotest.(check string) "solve" "decremental" rb.Session.rb_solve;
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
    Alcotest.test_case "rebuild: live ground errors kept, dead ones dropped"
      `Quick test_rebuild_ground;
    Alcotest.test_case "rebuild: counters describe the rebuilt system" `Quick
      test_rebuild_counters;
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
