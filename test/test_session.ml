(* The edit-script replay harness for the persistent Session, plus the
   daemon's wire format.

   The core property: a warm session that has lived through a sequence
   of edits renders byte-identically to a cold session built fresh over
   the same sources — at every step, for clean and for broken corpora,
   and regardless of the warm session's job count (the cold oracle always
   runs serial). Scripts end by restoring the original sources, so the
   final render must equal the very first. *)

open Cqual

(* ---------------- corpora ---------------- *)

let clean_units = Cbench.Programs.miniproject

(* a parse-error unit (recovered) next to a const violation: the replay
   must stay byte-identical even when the report has TYPE ERRORS and the
   frontend emits diagnostics *)
let viol_src = "void vf(const char *s) { char *p; p = s; *p = 'x'; }\n"
let viol_fixed = "void vf(const char *s) { const char *p; p = s; (void)*p; }\n"

let bad_src =
  "int good(void) { return 1; }\n@ $$$ garbage @@@\nint tail(void) { return 2; }\n"

let bad_fixed = "int good(void) { return 1; }\nint tail(void) { return 2; }\n"
let broken_units = [ ("viol.c", viol_src); ("bad.c", bad_src) ]

(* ---------------- the replay harness ---------------- *)

let render_diags ds =
  String.concat "" (List.map (fun d -> Fmt.str "%a@." Cfront.Diag.pp d) ds)

(* assoc-replace keeping link order, appending unknown names *)
let update_assoc units name src =
  if List.mem_assoc name units then
    List.map (fun (n, s) -> if n = name then (n, src) else (n, s)) units
  else units @ [ (name, src) ]

let modes = [ Analysis.Mono; Analysis.Poly; Analysis.Polyrec ]

let snapshot mode t =
  ( Session.render ~mode ~positions:true ~name:"replay" t,
    render_diags (Session.diagnostics t) )

(* cold oracle: a fresh session over the same sources *)
let cold_snapshot mode units = snapshot mode (Session.create ~mode units)

(* How a step's analysis ran: the edits that change globals, types or
   prototypes run in full; every other edit re-runs warm, unless the
   store's dead variables would outnumber its live ones. *)
let check_rebuild ~global mode step (rb : Session.rebuild option) =
  let step = Session.mode_name mode ^ " " ^ step in
  match rb with
  | None -> Alcotest.failf "%s: no analysis ran" step
  | Some rb ->
      let expect =
        if global then [ "globals, types or prototypes changed" ]
        else [ "incremental"; "dead variables outnumber live ones" ]
      in
      if not (List.mem rb.Session.rb_reason expect) then
        Alcotest.failf "%s: analysis ran as %S" step rb.Session.rb_reason;
      Alcotest.(check bool) (step ^ ": full")
        (rb.Session.rb_reason <> "incremental") rb.Session.rb_full

(* Apply [script] (a list of (unit, new-source) edits) to a warm session,
   checking warm = cold after every step, in every mode, and
   that only the steps listed in [global] analyze in full for a global
   change. The script must end with the units back at their original
   sources. *)
let rec replay ?(global = []) units script =
  List.iter (fun mode -> replay_mode ~global ~mode units script) modes

and replay_mode ~global ~mode units script =
  let t = Session.create ~mode units in
  let snapshot = snapshot mode in
  let check step units =
    let warm_r, warm_d = snapshot t in
    let cold_r, cold_d = cold_snapshot mode units in
    let step = Session.mode_name mode ^ " " ^ step in
    Alcotest.(check string) (step ^ ": render") cold_r warm_r;
    Alcotest.(check string) (step ^ ": diagnostics") cold_d warm_d
  in
  check "initial" units;
  let initial, _ = snapshot t in
  let cur = ref units in
  List.iteri
    (fun i (name, src) ->
      ignore (Session.update_unit t name src);
      cur := update_assoc !cur name src;
      check (Printf.sprintf "step %d (%s)" i name) !cur;
      check_rebuild ~global:(List.mem i global) mode
        (Printf.sprintf "step %d" i)
        (Session.stats t).Session.ss_last_rebuild)
    script;
  let final, _ = snapshot t in
  Alcotest.(check string) "script restores the initial render" initial final

let clean_script () =
  let a0 = List.assoc "proj_a.c" clean_units in
  let b0 = List.assoc "proj_b.c" clean_units in
  [
    (* grow a.c with an independent function *)
    ("proj_a.c", a0 ^ "int proj_a_extra(int x) { return x + 1; }\n");
    (* then touch b.c too *)
    ("proj_b.c", b0 ^ "int proj_b_extra(int x) { return x - 1; }\n");
    ("proj_a.c", a0);
    ("proj_b.c", b0);
  ]

let broken_script () =
  [
    ("bad.c", bad_fixed);
    ("viol.c", viol_fixed);
    ("bad.c", bad_src);
    ("viol.c", viol_src);
  ]

let test_replay_clean_serial () = replay clean_units (clean_script ())
let test_replay_broken_serial () = replay broken_units (broken_script ())

(* ---------------- the cone script ---------------- *)

(* A corpus whose edits exercise every way a warm rerun decides what to
   re-infer. [fa]..[fd] build a constraint cycle g -> m -> h -> g that
   carries two violating cells, and [fb] adds 70 dead-end edges out of
   g. Re-running [fa] alone appends its segment last in the arena, out
   of task order; both cells must still report a type error. *)
let cone_globals =
  "int *g; int *h; int *m; const int *cptr;\n"
  ^ "int "
  ^ String.concat ", " (List.init 70 (Printf.sprintf "*x%d"))
  ^ ";\n"

let cone_a ?(leaf = "return s;") ?(mid = true) ?(user = "top(p); return 0;")
    ?(fa = "m = g; h = m;") ?(extra = "") ?(globals = "") () =
  cone_globals ^ globals
  ^ Printf.sprintf "char *leaf(char *s) { %s }\n" leaf
  ^ (if mid then "char *mid(char *s) { return leaf(s); }\n" else "")
  ^ "char *top(char *s) { return mid(s); }\n"
  ^ Printf.sprintf "int user(char *p) { %s }\n" user
  ^ "int other(void) { return undecl_y; }\n"
  ^ Printf.sprintf "void fa(void) { %s }\n" fa
  ^ "void fb(void) { "
  ^ String.concat " " (List.init 70 (Printf.sprintf "x%d = g;"))
  ^ " }\n"
  ^ "void fc(void) { g = h; }\n"
  ^ "void fd(void) { g = cptr; *g = 1; *h = 1; }\n"
  ^ extra

let cone_b = "char *top(char *s);\nint b_user(char *q) { top(q); return 1; }\n"
let cone_units = [ ("cone_a.c", cone_a ()); ("cone_b.c", cone_b) ]

let cone_script () =
  let a ?leaf ?mid ?user ?fa ?extra ?globals () =
    ("cone_a.c", cone_a ?leaf ?mid ?user ?fa ?extra ?globals ())
  in
  [
    (* a signature change through a 3-deep caller chain, across units *)
    a ~leaf:"*s = 0; return s;" ();
    (* a body change whose summary does not change (the cutoff) *)
    a ~leaf:"int k; k = 1; return s;" ();
    (* close a recursion cycle: leaf, mid and top merge into one SCC *)
    a ~leaf:"if (s) top(s); return s;" ();
    (* and reopen it: the SCC splits *)
    a ();
    (* delete a function that is still called *)
    a ~mid:false ();
    a ();
    (* a global changes: the full path *)
    a ~globals:"int g2;\n" ();
    a ();
    (* an undeclared identifier appears, then disappears *)
    a ~user:"undecl_x = 1; top(p); return 0;" ();
    a ();
    (* a function takes the name of an undeclared identifier, then goes *)
    a ~extra:"int undecl_y(void) { return 2; }\n" ();
    a ();
    (* a body with the same edges: only [fa] re-runs, appended last *)
    a ~fa:"m = g; h = m; 0;" ();
    (* the type-error corpus joins and leaves *)
    ("viol.c", viol_src);
    ("viol.c", viol_fixed);
    a ();
  ]

(* the steps of [cone_script] that add or drop the global [g2] *)
let cone_global_steps = [ 6; 7 ]

let test_replay_cone_serial () =
  (* [viol.c] is appended by the script; the final state keeps it fixed,
     so the initial render is compared against a corpus that ends so *)
  let units = cone_units @ [ ("viol.c", viol_fixed) ] in
  replay ~global:cone_global_steps units (cone_script ())

(* the store the cone corpus builds has the two violations the header
   comment promises, and a warm rerun of [fa] alone keeps both *)
let test_cone_order () =
  let t = Session.create cone_units in
  Alcotest.(check int) "two type errors" 2
    (Session.run t).Session.results.Report.type_errors;
  ignore (Session.update_unit t "cone_a.c" (cone_a ~fa:"m = g; h = m; 0;" ()));
  let r = Session.run t in
  (match (Session.stats t).Session.ss_last_rebuild with
  | Some rb ->
      Alcotest.(check bool) "incremental" false rb.Session.rb_full;
      Alcotest.(check int) "fa alone re-ran" 1 rb.Session.rb_tasks_rerun
  | None -> Alcotest.fail "no rebuild");
  Alcotest.(check int) "still two" 2 r.Session.results.Report.type_errors

(* ---------------- invalidation granularity ---------------- *)

let test_unchanged_is_noop () =
  let t = Session.create clean_units in
  let r1 = Session.run t in
  let status =
    Session.update_unit t "proj_a.c" (List.assoc "proj_a.c" clean_units)
  in
  Alcotest.(check bool)
    "same content reports `Unchanged" true
    (status = `Unchanged);
  let r2 = Session.run t in
  Alcotest.(check bool) "run is not recomputed (physically equal)" true
    (r1 == r2)

let test_modes_stay_warm () =
  (* a client alternating modes pays each analysis once per edit *)
  let t = Session.create ~mode:Analysis.Poly clean_units in
  let poly = Session.run t in
  let mono = Session.run ~mode:Analysis.Mono t in
  let key, _, _ = List.hd (Session.positions t) in
  ignore (Session.classify ~mode:Analysis.Mono t key);
  Alcotest.(check bool) "poly not re-analyzed after mono" true
    (Session.run t == poly);
  Alcotest.(check bool) "mono not re-analyzed after poly" true
    (Session.run ~mode:Analysis.Mono t == mono);
  Alcotest.(check (list string)) "both modes warm" [ "mono"; "poly" ]
    (List.sort compare (Session.stats t).Session.ss_modes);
  ignore
    (Session.update_unit t "proj_a.c"
       (List.assoc "proj_a.c" clean_units ^ "\n"));
  Alcotest.(check (list string)) "an edit drops every mode" []
    (Session.stats t).Session.ss_modes

(* an edit keeps the stores of the modes analyzed since the previous
   edit: a mode queried once is not kept across every later edit, while
   edits with no analysis in between keep what they have *)
let test_bases_one_generation () =
  let t = Session.create ~mode:Analysis.Poly clean_units in
  let a0 = List.assoc "proj_a.c" clean_units in
  let edit n = ignore (Session.update_unit t "proj_a.c" (a0 ^ String.make n '\n')) in
  let reason mode =
    ignore (Session.run ~mode t);
    match (Session.stats t).Session.ss_last_rebuild with
    | Some rb -> rb.Session.rb_reason
    | None -> Alcotest.fail "no analysis ran"
  in
  ignore (Session.run ~mode:Analysis.Mono t);
  ignore (Session.run t);
  edit 1;
  Alcotest.(check string) "poly re-runs warm" "incremental" (reason Analysis.Poly);
  edit 2;
  Alcotest.(check string) "mono's store went at the second edit" "no kept store"
    (reason Analysis.Mono);
  Alcotest.(check string) "poly's stayed" "incremental" (reason Analysis.Poly);
  edit 3;
  edit 4;
  Alcotest.(check string) "two edits in a row keep the stores" "incremental"
    (reason Analysis.Mono);
  Alcotest.(check string) "both of them" "incremental" (reason Analysis.Poly)

(* AST-memo (hits, misses) accrued by [f] *)
let memo_delta t f =
  let s0 = Session.stats t in
  f ();
  let s1 = Session.stats t in
  ( s1.Session.ss_memo_hits - s0.Session.ss_memo_hits,
    s1.Session.ss_memo_misses - s0.Session.ss_memo_misses )

let edit_a =
  List.assoc "proj_a.c" clean_units
  ^ "int proj_a_extra(int x) { return x + 1; }\n"

let test_memo_survives_edit () =
  let t = Session.create clean_units in
  let n = List.length clean_units in
  Alcotest.(check (pair int int))
    "cold run parses every unit" (0, n)
    (memo_delta t (fun () -> ignore (Session.run t)));
  Alcotest.(check (pair int int))
    "a one-unit edit re-parses only that unit" (n - 1, 1)
    (memo_delta t (fun () ->
         ignore (Session.update_unit t "proj_a.c" edit_a);
         ignore (Session.run t)))

let test_memo_bounded () =
  let t = Session.create clean_units in
  let n = List.length clean_units in
  ignore (Session.run t);
  ignore (Session.update_unit t "proj_a.c" edit_a);
  ignore (Session.run t);
  (* the pre-edit parse was dropped when the edit compiled, so reverting
     parses it again instead of finding it *)
  Alcotest.(check (pair int int))
    "revert is an AST-memo miss" (n - 1, 1)
    (memo_delta t (fun () ->
         ignore
           (Session.update_unit t "proj_a.c"
              (List.assoc "proj_a.c" clean_units));
         ignore (Session.run t)))

let test_remove_unit () =
  let t = Session.create clean_units in
  ignore (Session.run t);
  Alcotest.(check bool) "known unit removed" true
    (Session.remove_unit t "proj_a.c");
  Alcotest.(check bool) "unknown unit refused" false
    (Session.remove_unit t "proj_a.c");
  Alcotest.(check (list string))
    "link order preserved" [ "proj_h.c"; "proj_b.c" ] (Session.units t)

(* a unit's name is part of its identity: the same source under a new
   name misses the AST memo, and the report is a cold run's *)
let test_memo_rename_misses () =
  let t = Session.create clean_units in
  let n = List.length clean_units in
  ignore (Session.run t);
  let last, src = List.nth clean_units (n - 1) in
  let renamed = "renamed_" ^ last in
  Alcotest.(check (pair int int))
    "the renamed unit is parsed again" (n - 1, 1)
    (memo_delta t (fun () ->
         ignore (Session.remove_unit t last);
         ignore (Session.update_unit t renamed src);
         ignore (Session.run t)));
  let cold_units =
    List.map (fun (u, s) -> ((if u = last then renamed else u), s)) clean_units
  in
  let render t = Session.render ~positions:true ~name:"p" t in
  Alcotest.(check string) "report = cold"
    (render (Session.create cold_units)) (render t)

(* ---------------- position keys ---------------- *)

let test_position_key_aliases () =
  let t = Session.create clean_units in
  let ps = Session.positions t in
  Alcotest.(check bool) "some positions" true (ps <> []);
  let anchored =
    List.filter (fun (_, p, _) -> p.Report.p_line > 0 && p.Report.p_col > 0) ps
  in
  Alcotest.(check bool) "canonical anchors exist" true (anchored <> []);
  List.iter
    (fun (key, p, v) ->
      Alcotest.(check string) "key is canonical" (Report.position_key p) key;
      (match Session.classify t key with
      | Some (_, v') ->
          Alcotest.(check bool) "canonical key resolves" true (v = v')
      | None -> Alcotest.fail ("canonical key unknown: " ^ key));
      match Session.classify t (Report.structural_key p) with
      | Some (_, v') ->
          Alcotest.(check bool) "structural alias agrees" true (v = v')
      | None ->
          Alcotest.fail ("structural alias unknown: " ^ Report.structural_key p))
    anchored

let test_explain_contract () =
  let t = Session.create clean_units in
  (match Session.positions t with
  | (key, _, _) :: _ -> (
      match Session.explain t key with
      | Ok (p, _, _) ->
          Alcotest.(check string)
            "explains the queried position" key (Report.position_key p)
      | Error e -> Alcotest.fail ("explain failed on known key: " ^ e))
  | [] -> Alcotest.fail "no positions");
  match Session.explain t "nope.c:1:1@1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown key must be an Error"

(* ---------------- whatif: deferred thunks = inline ---------------- *)

let test_whatif_deferred_matches_inline () =
  let t = Session.create clean_units in
  let keys =
    List.filteri (fun i _ -> i < 6) (Session.positions t)
    |> List.map (fun (k, _, _) -> k)
  in
  Alcotest.(check bool) "have keys" true (keys <> []);
  let inline =
    List.map
      (fun k ->
        match Session.whatif t ~qual:"const" k with
        | Ok r -> r
        | Error e -> Alcotest.fail ("inline whatif failed: " ^ e))
      keys
  in
  (* prepare every thunk first, then evaluate them in turn: one thunk's
     evaluation must not disturb another's prepared state *)
  let thunks =
    List.map
      (fun k ->
        match Session.whatif_task t ~qual:"const" k with
        | Ok f -> f
        | Error e -> Alcotest.fail ("whatif_task failed: " ^ e))
      keys
  in
  List.iteri
    (fun i (f, expect) ->
      Alcotest.(check bool)
        (Printf.sprintf "deferred whatif %d matches inline" i)
        true (f () = expect))
    (List.combine thunks inline)

(* ---------------- whatif in a daemon batch ---------------- *)

(* [sink]'s interface is kept when only its body changes, so a mono
   warm rerun re-analyzes the store a whatif over [p] read. Before the
   edit a const [p] breaks nothing; after it, it does. *)
let sink_src body =
  Printf.sprintf "void sink(char *p) { %s }\nvoid g(void) { char b[4]; sink(b); }\n"
    body

(* the daemon's responses to [requests], written to its stdin as one
   file: requests that fit in one read arrive together *)
let daemon_batch ~dir ~unit requests =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/typequald.exe"
  in
  let input = Filename.concat dir "requests.jsonl" in
  let output = Filename.concat dir "responses.jsonl" in
  Out_channel.with_open_bin input (fun oc ->
      List.iter (fun r -> output_string oc (r ^ "\n")) requests);
  let cmd =
    Printf.sprintf "%s --mode mono %s < %s > %s" (Filename.quote exe)
      (Filename.quote unit) (Filename.quote input) (Filename.quote output)
  in
  Alcotest.(check int) "typequald exits 0" 0 (Sys.command cmd);
  In_channel.with_open_bin output In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let test_daemon_whatif_before_update () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tq-daemon-batch-%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let unit = Filename.concat dir "sink.c" in
  let src0 = sink_src "" and src1 = sink_src "*p = 0;" in
  Out_channel.with_open_bin unit (fun oc -> output_string oc src0);
  let key =
    match
      List.find_opt
        (fun (_, (p : Report.position), _) ->
          p.Report.p_fun = "sink" && p.Report.p_level = 1)
        (Session.positions ~mode:Analysis.Mono
           (Session.create ~mode:Analysis.Mono [ (unit, src0) ]))
    with
    | Some (k, _, _) -> k
    | None -> Alcotest.fail "no position for sink's parameter"
  in
  let rq id meth params =
    Wire.to_string
      (Wire.Obj
         [ ("id", Wire.num_int id); ("method", Wire.Str meth); ("params", Wire.Obj params) ])
  in
  let whatif = rq 1 "whatif" [ ("key", Wire.Str key); ("qual", Wire.Str "const") ] in
  let update = rq 2 "update" [ ("name", Wire.Str unit); ("source", Wire.Str src1) ] in
  let classify = rq 3 "classify" [ ("key", Wire.Str key) ] in
  let response id lines =
    match
      List.find_opt
        (fun l ->
          match Wire.of_string l with
          | Ok j -> Wire.mem_int "id" j = Some id
          | Error _ -> false)
        lines
    with
    | Some l -> l
    | None -> Alcotest.failf "no response %d" id
  in
  let serial = response 1 (daemon_batch ~dir ~unit [ whatif ]) in
  let batched = response 1 (daemon_batch ~dir ~unit [ whatif; update; classify ]) in
  Alcotest.(check string) "a whatif batched before an update answers for the store before it"
    serial batched;
  let after = response 1 (daemon_batch ~dir ~unit [ update; whatif ]) in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  Alcotest.(check bool) "the edit changes the answer" true (after <> serial)

(* A request line far longer than one read: the daemon frames it across
   every read it spans, then answers the short request sent behind it. *)
let test_daemon_long_line () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tq-daemon-long-%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let unit = Filename.concat dir "sink.c" in
  Out_channel.with_open_bin unit (fun oc -> output_string oc (sink_src ""));
  let pad = String.make (3 * 1024 * 1024) 'x' in
  let long =
    Wire.to_string
      (Wire.Obj
         [
           ("id", Wire.num_int 1);
           ("method", Wire.Str "stats");
           ("params", Wire.Obj [ ("pad", Wire.Str pad) ]);
         ])
  in
  let lines =
    daemon_batch ~dir ~unit [ long; {|{"id":2,"method":"units"}|} ]
  in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  match List.map Wire.of_string lines with
  | [ Ok r1; Ok r2 ] ->
      Alcotest.(check (option int)) "long request answered first" (Some 1)
        (Wire.mem_int "id" r1);
      Alcotest.(check bool) "with the stats reply" true
        (Option.bind (Wire.mem "result" r1) (Wire.mem_int "units") = Some 1);
      Alcotest.(check (option int)) "short request answered next" (Some 2)
        (Wire.mem_int "id" r2);
      Alcotest.(check string) "with the units reply"
        (Wire.to_string (Wire.Obj [ ("units", Wire.Arr [ Wire.Str unit ]) ]))
        (Wire.to_string (Option.get (Wire.mem "result" r2)))
  | _ -> Alcotest.failf "expected two responses, got: %s" (String.concat " | " lines)

(* ---------------- whatif = its clone-and-resolve definition ---------------- *)

(* a project with const violations in it: whatifs must count on top of
   errors already in the store *)
let with_violations units =
  units
  @ [
      ("viol.c", viol_src);
      ( "viol2.c",
        "void wr(char *q) { *q = 0; }\n\
         void rd(const char *s) { wr(s); }\n" );
    ]

let whatif_corpora =
  lazy
    (let project = Cbench.Gen.generate_project ~seed:11 ~target_lines:2000 () in
     List.map (fun (n, src) -> (n, [ (n ^ ".c", src) ])) Cbench.Programs.all
     @ [
         ("miniproject", clean_units);
         ("project-2k", project);
         ("project-2k+violations", with_violations project);
         ( "chains",
           [
             ( "chains.c",
               Cbench.Gen.generate_chains ~seed:7 ~target_lines:500 () );
           ] );
       ])

(* three-level taint, as in examples/taint3.lat and taint_levels.c *)
let taint3_rules =
  let module L = Typequal.Lattice in
  let q =
    Typequal.Qualifier.ordered "taint"
      (Typequal.Qualifier.Order.chain_exn
         [ "untainted"; "maybe_tainted"; "tainted" ])
  in
  Analysis.lattice_rules (L.Space.create [ q ]) ~qual:"taint"

let taint3_src =
  {|$tainted char *read_net(char *buf);
$maybe_tainted char *half_clean($tainted char *s);
void log_msg($maybe_tainted char *msg);
void exec_cmd($untainted char *cmd);
char *pass(char *s) { return s; }
void handler(char *b, char *c) {
  char *raw; char *clean;
  raw = read_net(b);
  clean = half_clean(raw);
  log_msg(pass(clean));
  exec_cmd(clean);
  log_msg(c);
}
|}

(* Session.whatif against [Support.whatif_by_resolve] at every position:
   the same moved positions (keys, functions, verdicts, in report order)
   and the same error counts. Returns the number of positions checked. *)
let check_whatif_parity ?rules ~qual ~mode name units =
  let t = Session.create ?rules ~mode units in
  let ps = Array.of_list (Session.positions t) in
  let keys = Array.map (fun (k, _, _) -> k) ps in
  (* with distinct keys, key n names position n's own variable, which is
     what the oracle speculates on *)
  Alcotest.(check int)
    (name ^ ": distinct keys")
    (Array.length keys)
    (List.length (List.sort_uniq compare (Array.to_list keys)));
  let oracle = Support.whatif_by_resolve ?rules ~mode ~qual t in
  Alcotest.(check int) (name ^ ": positions") (Array.length keys)
    (Array.length oracle);
  let show (k, f, b, a) =
    Fmt.str "%s(%s) %a->%a" k f Report.pp_verdict b Report.pp_verdict a
  in
  Array.iteri
    (fun n (moved, eb, ea) ->
      match Session.whatif t ~qual keys.(n) with
      | Error e -> Alcotest.failf "%s: whatif %s: %s" name keys.(n) e
      | Ok w ->
          let expect =
            List.map
              (fun (m, b, a) ->
                let _, (p : Report.position), _ = ps.(m) in
                (keys.(m), p.Report.p_fun, b, a))
              moved
          in
          let got =
            List.map
              (fun (c : Session.whatif_change) ->
                (c.wc_key, c.wc_fun, c.wc_before, c.wc_after))
              w.w_changed
          in
          if got <> expect || w.w_errors_before <> eb || w.w_errors_after <> ea
          then
            Alcotest.failf
              "%s %s: whatif at %s: changed [%s] errors %d->%d; by \
               re-solving: [%s] errors %d->%d"
              name (Session.mode_name mode) keys.(n)
              (String.concat "; " (List.map show got))
              w.w_errors_before w.w_errors_after
              (String.concat "; " (List.map show expect))
              eb ea)
    oracle;
  Array.length keys

let test_whatif_parity () =
  let checked =
    List.fold_left
      (fun acc (name, units) ->
        List.fold_left
          (fun acc mode ->
            acc + check_whatif_parity ~qual:"const" ~mode name units)
          acc modes)
      0 (Lazy.force whatif_corpora)
  in
  let checked =
    checked
    + check_whatif_parity ~rules:taint3_rules ~qual:"taint" ~mode:Analysis.Poly
        "taint3" [ ("taint3.c", taint3_src) ]
  in
  Alcotest.(check bool) "checked positions" true (checked > 3000)

(* Section 4.4's reading of the verdicts, checked as a certificate: const
   can be added at a could-be-either position without a new error, and
   adding it at a must-not position surfaces one. Must-const positions
   already have it, so nothing moves. *)
let test_whatif_certificate () =
  let seen = Hashtbl.create 3 in
  List.iter
    (fun (name, units) ->
      List.iter
        (fun mode ->
          let t = Session.create ~mode units in
          List.iter
            (fun (k, _, v) ->
              match Session.whatif t ~qual:"const" k with
              | Error e -> Alcotest.failf "%s: whatif %s: %s" name k e
              | Ok w ->
                  Hashtbl.replace seen v ();
                  let eb = w.w_errors_before and ea = w.w_errors_after in
                  let ok =
                    match v with
                    | Report.Either -> ea = eb
                    | Report.Must_not_const -> ea > eb
                    | Report.Must_const -> ea = eb && w.w_changed = []
                  in
                  if not ok then
                    Alcotest.failf "%s %s: %s is %a but whatif const gives \
                                    errors %d->%d"
                      name (Session.mode_name mode) k Report.pp_verdict v eb ea)
            (Session.positions t))
        modes)
    (Lazy.force whatif_corpora);
  Alcotest.(check int) "all three verdicts seen" 3 (Hashtbl.length seen)

(* ---------------- the wire format ---------------- *)

let roundtrip j =
  match Wire.of_string (Wire.to_string j) with
  | Ok j' -> Alcotest.(check bool) ("roundtrip " ^ Wire.to_string j) true (j = j')
  | Error e -> Alcotest.fail ("reparse failed: " ^ e)

let test_wire_roundtrip () =
  roundtrip Wire.Null;
  roundtrip (Wire.Bool true);
  roundtrip (Wire.num_int 42);
  roundtrip (Wire.num_int (-7));
  roundtrip (Wire.Num 2.5);
  roundtrip (Wire.Str "");
  roundtrip (Wire.Str "hello");
  roundtrip (Wire.Str "quote\" back\\ slash/ nl\n tab\t ctl\x01\x1f");
  roundtrip
    (Wire.Obj
       [
         ("id", Wire.num_int 3);
         ("arr", Wire.Arr [ Wire.Null; Wire.Bool false; Wire.Str "x" ]);
         ("nest", Wire.Obj [ ("k", Wire.Str "v") ]);
       ]);
  (* integer-valued floats print without a fraction *)
  Alcotest.(check string) "int float" "42" (Wire.to_string (Wire.num_int 42))

let test_wire_unicode () =
  (* \uXXXX escapes, including a surrogate pair, decode to UTF-8 *)
  match Wire.of_string {|"\u0041\u00e9\ud83d\ude00"|} with
  | Ok (Wire.Str s) ->
      Alcotest.(check string) "utf-8 bytes" "A\xc3\xa9\xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.fail ("unicode parse failed: " ^ e)

let test_wire_errors () =
  List.iter
    (fun (what, input) ->
      match Wire.of_string input with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s must fail" what)
    [
      ("truncated object", "{\"a\":1");
      ("trailing input", "1 2");
      ("non-hex \\u escape", {|{"method":"\uzzzz"}|});
      ("'_' in a \\u escape", {|"\u1_2_"|});
      ("high surrogate paired with a non-low one", {|"\uD800\u0041"|});
      ("lone high surrogate", {|"\uD800"|});
      ("lone low surrogate", {|"\uDC00"|});
    ]

(* Fuzzing the wire parser: arbitrary strings and byte-level mutations
   of valid requests must come back [Ok] or [Error], never raise. The
   mutations draw from JSON's own bytes, so they land in escapes,
   numbers and literals. *)
let valid_requests =
  [|
    {|{"id":1,"method":"stats"}|};
    {|{"id":2,"method":"update","params":{"name":"a.c","source":"int x;\n\u0041\u00e9\ud83d\ude00"}}|};
    {|{"id":-3.5e2,"method":"whatif","params":{"key":"f:1:p","qual":"const"}}|};
    {|{"id":null,"method":"render","params":{"positions":true,"names":["a","b"]}}|};
  |]

let fuzz_input_gen =
  let open QCheck2.Gen in
  let json_byte = oneofl (List.of_seq (String.to_seq {|{}[]:,"\u0123456789abcdefABCDEFxz_+-.eE tnrl|})) in
  let mutate s =
    let* k = int_range 1 4 in
    let rec go k s =
      if k = 0 then return s
      else
        let n = String.length s in
        let* i = int_bound n and* c = json_byte and* how = int_bound 2 in
        let s =
          match how with
          | 0 when i < n -> String.mapi (fun j x -> if j = i then c else x) s
          | 1 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
          | _ when i < n -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
          | _ -> s
        in
        go (k - 1) s
    in
    go k s
  in
  oneof
    [
      string_size ~gen:json_byte (int_bound 40);
      string_size (int_bound 40);
      (let* i = int_bound (Array.length valid_requests - 1) in
       mutate valid_requests.(i));
    ]

let prop_wire_never_raises =
  QCheck2.Test.make ~count:2000 ~name:"wire: parsers never raise (fuzz)"
    ~print:String.escaped fuzz_input_gen (fun s ->
      (match Wire.of_string s with Ok _ | Error _ -> ());
      match Wire.parse_request s with Ok _ | Error _ -> true)

(* a malformed escape is a bad request, and the daemon keeps serving *)
let test_daemon_bad_escape () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tq-daemon-escape-%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let unit = Filename.concat dir "sink.c" in
  Out_channel.with_open_bin unit (fun oc -> output_string oc (sink_src ""));
  let lines =
    daemon_batch ~dir ~unit [ {|{"method":"\uzzzz"}|}; {|{"id":1,"method":"stats"}|} ]
  in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  match List.map Wire.of_string lines with
  | [ Ok bad; Ok stats ] ->
      let message =
        Option.bind (Wire.mem "error" bad) (Wire.mem_string "message")
      in
      Alcotest.(check bool) "bad request" true
        (match message with
        | Some m -> String.starts_with ~prefix:"bad request" m
        | None -> false);
      Alcotest.(check (option int)) "the next request is answered" (Some 1)
        (Wire.mem_int "id" stats);
      Alcotest.(check bool) "with a result" true
        (Option.is_some (Wire.mem "result" stats))
  | _ -> Alcotest.failf "expected two JSON responses, got %d lines" (List.length lines)

let test_parse_request () =
  (match
     Wire.parse_request {|{"id":7,"method":"run","params":{"mode":"poly"}}|}
   with
  | Ok rq ->
      Alcotest.(check string) "method" "run" rq.Wire.rq_method;
      Alcotest.(check bool) "id" true (rq.Wire.rq_id = Wire.num_int 7);
      Alcotest.(check bool)
        "params" true
        (Wire.mem_string "mode" rq.Wire.rq_params = Some "poly")
  | Error e -> Alcotest.fail ("parse_request failed: " ^ e));
  (match Wire.parse_request {|{"id":1}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing method must fail");
  (* responses are themselves valid single-line JSON *)
  let ok = Wire.response_ok ~id:(Wire.num_int 7) (Wire.Str "done") in
  let err = Wire.response_error ~id:Wire.Null "boom" in
  List.iter
    (fun line ->
      Alcotest.(check bool) "single line" false (String.contains line '\n');
      match Wire.of_string line with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("response not JSON: " ^ e))
    [ ok; err ]

(* the daemon's [stats] reply is plain JSON: numbers, strings, objects *)
let test_wire_stats () =
  let t = Session.create clean_units in
  ignore (Session.positions t);
  ignore (Session.update_unit t "proj_a.c" edit_a);
  ignore (Session.positions t);
  let j =
    match Wire.of_string (Wire.to_string (Session.stats_json (Session.stats t))) with
    | Ok j -> j
    | Error e -> Alcotest.fail ("stats reply is not JSON: " ^ e)
  in
  let obj key j =
    match Wire.mem key j with
    | Some (Wire.Obj _ as o) -> o
    | _ -> Alcotest.failf "%s is not an object" key
  in
  let rb = obj "last_rebuild" j in
  Alcotest.(check (option int)) "units_built" (Some 1) (Wire.mem_int "units_built" rb);
  Alcotest.(check (option int)) "tasks_rerun" (Some 1) (Wire.mem_int "tasks_rerun" rb);
  Alcotest.(check bool) "tasks_total" true
    (Option.value (Wire.mem_int "tasks_total" rb) ~default:0 > 1);
  Alcotest.(check (option bool)) "full" (Some false) (Wire.mem_bool "full" rb);
  Alcotest.(check (option string)) "reason" (Some "incremental") (Wire.mem_string "reason" rb);
  Alcotest.(check (option int)) "units" (Some 3) (Wire.mem_int "units" j)

(* ---------------- warm = cold under random edit streams ---------------- *)

(* A small multi-unit project as data: unit 0 starts with a typedef the
   other units' parameters may use, and every unit holds definitions
   that may write through their parameter and call each other. A
   definition calls only lower-numbered names, but for one two-member
   cycle, so the SCCs stay small: polymorphic recursion over a large SCC
   of such bodies grows exponentially, a property of the analysis that
   this test is not about. *)
type gfun = {
  g_name : string;
  g_num : int;
  g_typed : bool;  (* parameter of the typedef'd type *)
  g_writes : bool;
  g_calls : string list;
  g_pad : int;  (* blank lines before the definition *)
}

type gproj = { g_const_typedef : bool; g_units : gfun list array }

let render_gfun f =
  String.make f.g_pad '\n'
  ^ Printf.sprintf "char *%s(%s s) { char *x; x = s; %s%sreturn x; }\n" f.g_name
      (if f.g_typed then "str_t" else "char *")
      (if f.g_writes then "*s = 0; " else "")
      (String.concat "" (List.map (Printf.sprintf "x = %s(x); ") f.g_calls))

let gunits (p : gproj) =
  Array.to_list
    (Array.mapi
       (fun i fs ->
         ( Printf.sprintf "u%d.c" i,
           (if i = 0 then
              if p.g_const_typedef then "typedef const char *str_t;\n"
              else "typedef char *str_t;\n"
            else "")
           ^ String.concat "" (List.map render_gfun fs) ))
       p.g_units)

(* at most two calls, to names numbered below [num] *)
let gcalls rng num =
  let rec go k acc =
    if k = 0 || List.length acc = 2 then acc
    else go (k - 1) (if Random.State.int rng 3 = 0 then Printf.sprintf "f%d" k :: acc else acc)
  in
  go (num - 1) []

let gfresh rng counter u =
  incr counter;
  {
    g_name = Printf.sprintf "f%d" !counter;
    g_num = !counter;
    g_typed = u > 0 && Random.State.int rng 3 = 0;
    g_writes = Random.State.int rng 3 = 0;
    g_calls = gcalls rng !counter;
    g_pad = 0;
  }

(* One seeded edit of each kind the warm rebuild must get right. *)
let gedit rng counter (p : gproj) : string * gproj =
  let units = Array.copy p.g_units in
  let n = Array.length units in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let nonempty = List.filter (fun i -> units.(i) <> []) (List.init n Fun.id) in
  (* a definition: its unit and place *)
  let some_def () =
    let u = pick nonempty in
    (u, Random.State.int rng (List.length units.(u)))
  in
  let change f =
    let u, k = some_def () in
    units.(u) <- List.mapi (fun j g -> if j = k then f g else g) units.(u)
  in
  let take () =
    let u, k = some_def () in
    let g = List.nth units.(u) k in
    units.(u) <- List.filteri (fun j _ -> j <> k) units.(u);
    (u, g)
  in
  let put v g = units.(v) <- units.(v) @ [ { g with g_typed = g.g_typed && v > 0 } ] in
  let kind = if nonempty = [] then 0 else Random.State.int rng 8 in
  let what =
    match kind with
    | 0 ->
        let u = Random.State.int rng n in
        put u (gfresh rng counter u);
        "append a function"
    | 1 ->
        change (fun g -> { g with g_writes = not g.g_writes });
        "write through a parameter"
    | 2 ->
        ignore (take ());
        "delete a function"
    | 3 ->
        let u, g = take () in
        put ((u + 1 + Random.State.int rng (n - 1)) mod n) g;
        "move a definition to another unit"
    | 4 ->
        let u, k = some_def () in
        let g = List.nth units.(u) k in
        put ((u + 1 + Random.State.int rng (n - 1)) mod n)
          { g with g_writes = Random.State.bool rng };
        "define a name twice across units"
    | 5 ->
        change (fun g -> { g with g_pad = g.g_pad + 1 + Random.State.int rng 2 });
        "whitespace-only edit"
    | 6 ->
        change (fun g -> { g with g_calls = gcalls rng g.g_num });
        "change a callee set"
    | _ -> "edit the typedef another unit uses"
  in
  ( what,
    {
      g_units = units;
      g_const_typedef = (if kind = 7 then not p.g_const_typedef else p.g_const_typedef);
    } )

let gproject rng counter =
  let n = 3 + Random.State.int rng 2 in
  let units = Array.make n [] in
  for _ = 1 to 2 * n do
    let u = Random.State.int rng n in
    units.(u) <- units.(u) @ [ gfresh rng counter u ]
  done;
  (* one cycle: f1 and f2 call each other *)
  let cyc g =
    if g.g_name = "f1" then { g with g_calls = "f2" :: g.g_calls }
    else if g.g_name = "f2" && not (List.mem "f1" g.g_calls) then
      { g with g_calls = "f1" :: g.g_calls }
    else g
  in
  { g_const_typedef = false; g_units = Array.map (List.map cyc) units }

(* an explanation up to variable renaming: the warm store numbers its
   variables differently from a cold one, so the ids in [name#N] are
   renumbered in order of first appearance *)
let renumber_vars why =
  let ids = Hashtbl.create 8 in
  let b = Buffer.create (String.length why) in
  let n = String.length why in
  let digit k = k < n && why.[k] >= '0' && why.[k] <= '9' in
  let i = ref 0 in
  while !i < n do
    if why.[!i] = '#' && digit (!i + 1) then begin
      let j = ref (!i + 1) in
      while digit !j do incr j done;
      let id = String.sub why (!i + 1) (!j - !i - 1) in
      if not (Hashtbl.mem ids id) then Hashtbl.add ids id (Hashtbl.length ids);
      Buffer.add_string b (Printf.sprintf "#%d" (Hashtbl.find ids id));
      i := !j
    end
    else begin
      Buffer.add_char b why.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* [Session.explain] at [key], up to variable renaming *)
let explain_renumbered ~mode t key =
  Result.map
    (fun (p, v, why) -> (p, v, Option.map renumber_vars why))
    (Session.explain ~mode t key)

(* the deterministic part of a run record: what --stats prints besides
   wall clock and heap figures *)
let run_counters (r : Session.run) =
  let s = r.Session.solver_stats in
  let module S = Typequal.Solver in
  [
    r.Session.lines;
    r.Session.n_functions;
    r.Session.n_constraints;
    s.S.edges_added;
    s.S.edges_deduped;
    r.Session.fdg_scc_count;
    r.Session.fdg_largest_scc;
    r.Session.results.Report.type_errors;
  ]

let check_warm_cold ~step mode warm units =
  let cold = Session.create ~mode units in
  let fail what = QCheck2.Test.fail_reportf "%s, %s: %s differs" step (Session.mode_name mode) what in
  if Session.render ~mode ~positions:true ~name:"g" warm
     <> Session.render ~mode ~positions:true ~name:"g" cold
  then fail "render";
  if render_diags (Session.diagnostics warm) <> render_diags (Session.diagnostics cold) then
    fail "diagnostics";
  if run_counters (Session.run ~mode warm) <> run_counters (Session.run ~mode cold) then
    fail "counters";
  (* the warm store's certificate: every variable's solution is the
     least and greatest solution of the atoms the store reports live *)
  (let module S = Typequal.Solver in
   let st = Session.store ~mode warm in
   let nb = S.solve_atoms (S.space st) (S.atoms st) in
   for id = 0 to S.num_vars st - 1 do
     let v = S.var_of_id st id in
     if nb id <> (S.least st v, S.greatest st v) then fail "certificate"
   done);
  let ps = Session.positions ~mode cold in
  if Session.positions ~mode warm <> ps then fail "positions";
  List.iteri
    (fun i (key, p, _) ->
      List.iter
        (fun k ->
          if Session.classify ~mode warm k <> Session.classify ~mode cold k then
            fail ("classify " ^ k))
        [ key; Report.structural_key p ];
      if i mod 3 = 0 && explain_renumbered ~mode warm key <> explain_renumbered ~mode cold key
      then fail ("explain " ^ key))
    ps

let prop_warm_equals_cold =
  QCheck2.Test.make ~count:100 ~name:"warm = cold under random edit streams"
    ~print:string_of_int QCheck2.Gen.int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let counter = ref 0 in
      let p0 = gproject rng counter in
      let edits =
        let p = ref p0 in
        List.init 8 (fun _ ->
            let what, p' = gedit rng counter !p in
            p := p';
            (what, p'))
      in
      List.iter
        (fun mode ->
          let warm = Session.create ~mode (gunits p0) in
          check_warm_cold ~step:"initial" mode warm (gunits p0);
          List.iteri
            (fun i (what, p) ->
              let units = gunits p in
              List.iter (fun (name, src) -> ignore (Session.update_unit warm name src)) units;
              let step = Printf.sprintf "step %d (%s)" i what in
              check_warm_cold ~step mode warm units;
              (* the store's atom log holds at most twice its live atoms *)
              let module S = Typequal.Solver in
              let st = Session.store ~mode warm in
              let live = List.length (S.atoms st) in
              if S.num_atoms st > 2 * live then
                QCheck2.Test.fail_reportf "%s, %s: %d log entries for %d live atoms" step
                  (Session.mode_name mode) (S.num_atoms st) live)
            edits)
        modes;
      true)

(* Explanations across a swap of two kept tasks and a later log
   compaction. [f1] and [f2] both feed the hub cell [*hub] (with the
   shared atom [hub = &gx], which one of them holds), and [w] reads the
   hub into a parameter it writes through, so [w]'s parameter violates
   and [explain] walks back through the hub's predecessors in task
   order: the origin it names ([a], [b] or [gx]) says which of them the
   store takes as newest. The first edit drops [c]'s call to [f2], which
   moves [f1] ahead of [f2] in the task order; the later edits re-run
   [e], whose atoms outnumber the rest, so the atom log is compacted. *)
let test_explain_swap_compaction () =
  let src ~call ~flip =
    let stmt = if flip then "y = x; " else "x = y; " in
    String.concat "\n"
      [
        "char **hub;";
        "char *const gx = 0;";
        Printf.sprintf "void c(void) { %s}" (if call then "f2(); " else "");
        "void f1(void) { char *const a = 0; hub = &gx; hub = &a; }";
        "void f2(void) { char *const b = 0; hub = &b; hub = &gx; }";
        "void w(char **p) { p = hub; *p = 0; }";
        "void e(void) { char *x; char *y; " ^ String.concat "" (List.init 60 (fun _ -> stmt)) ^ "}";
        "";
      ]
  in
  let steps =
    ("c drops its call", src ~call:false ~flip:false)
    :: List.init 4 (fun i -> (Printf.sprintf "e re-run %d" (i + 1), src ~call:false ~flip:(i mod 2 = 0)))
  in
  List.iter
    (fun mode ->
      let m = Session.mode_name mode in
      let t = Session.create ~mode [ ("hub.c", src ~call:true ~flip:false) ] in
      ignore (Session.run t);
      let compacted = ref false in
      List.iter
        (fun (what, s) ->
          let before = Typequal.Solver.num_atoms (Session.store ~mode t) in
          ignore (Session.update_unit t "hub.c" s);
          ignore (Session.run t);
          let rb = Option.get (Session.stats t).Session.ss_last_rebuild in
          Alcotest.(check bool) (m ^ ", " ^ what ^ ": warm") false rb.Session.rb_full;
          if Typequal.Solver.num_atoms (Session.store ~mode t) < before then compacted := true;
          let cold = Session.create ~mode [ ("hub.c", s) ] in
          let keys = List.map (fun (k, _, _) -> k) (Session.positions ~mode cold) in
          Alcotest.(check bool) (m ^ ", " ^ what ^ ": a violation to explain") true
            (List.exists
               (fun k ->
                 match Session.explain ~mode cold k with Ok (_, _, Some _) -> true | _ -> false)
               keys);
          List.iter
            (fun k ->
              let ex t =
                match explain_renumbered ~mode t k with
                | Ok (_, _, why) -> Option.value why ~default:"-"
                | Error e -> e
              in
              Alcotest.(check string) (m ^ ", " ^ what ^ ": explain " ^ k) (ex cold) (ex t))
            keys)
        steps;
      Alcotest.(check bool) (m ^ ": the log was compacted") true !compacted)
    [ Analysis.Poly; Analysis.Polyrec ]

(* ---------------- a patched link equals a fresh one ---------------- *)

(* A unit's top-level items, one a line: a typedef, a struct, a
   prototype, a global or a definition, numbered from small ranges so
   that several units declare or define the same names; [variant]
   changes an item's text without changing its name. *)
type litem = { l_kind : int; l_num : int; l_variant : int }

let render_litem it =
  let n = it.l_num and v = it.l_variant mod 2 = 0 in
  match it.l_kind with
  | 0 -> Printf.sprintf "typedef %s T%d;" (if v then "int" else "char *") n
  | 1 -> Printf.sprintf "struct S%d { int a; %s };" n (if v then "char *b;" else "int c;")
  | 2 -> Printf.sprintf "%s P%d(char *s);" (if v then "char *" else "int") n
  | 3 -> Printf.sprintf "%s G%d;" (if v then "char *" else "int") n
  | _ ->
      Printf.sprintf "char *F%d(char *s) { %sreturn P%d(s) ? s : s; }" n
        (if v then "" else "*s = 0; ") (n mod 3)

let random_litem rng =
  let kind = Random.State.int rng 8 in
  {
    l_kind = min kind 4;
    l_num = Random.State.int rng (if kind >= 4 then 8 else 3);
    l_variant = Random.State.int rng 2;
  }

let lunits units =
  List.map
    (fun (name, items) -> (name, String.concat "\n" (List.map render_litem items) ^ "\n"))
    units

(* One random edit of one or two units: an item changed, added or
   removed; now and then a unit added or removed. *)
let ledit rng counter units =
  let n = List.length units in
  let edit_unit (name, items) =
    let k = List.length items in
    let items =
      match Random.State.int rng 3 with
      | 0 when k > 0 ->
          let j = Random.State.int rng k in
          List.mapi (fun i it -> if i = j then { it with l_variant = it.l_variant + 1 } else it) items
      | 1 when k > 0 ->
          let j = Random.State.int rng k in
          List.filteri (fun i _ -> i <> j) items
      | _ ->
          let j = Random.State.int rng (k + 1) in
          List.filteri (fun i _ -> i < j) items
          @ [ random_litem rng ]
          @ List.filteri (fun i _ -> i >= j) items
    in
    (name, items)
  in
  match Random.State.int rng 12 with
  | 0 ->
      incr counter;
      units @ [ (Printf.sprintf "x%d.c" !counter, List.init 3 (fun _ -> random_litem rng)) ]
  | 1 when n > 2 ->
      let j = Random.State.int rng n in
      List.filteri (fun i _ -> i <> j) units
  | r ->
      let a = Random.State.int rng n and b = Random.State.int rng n in
      List.mapi (fun i u -> if i = a || (r mod 2 = 0 && i = b) then edit_unit u else u) units

(* every table of a linked program as a sorted association list, its
   per-unit declaration lists and its functions *)
let program_view (p : Cfront.Cprog.t) =
  let sorted h = List.sort compare (List.of_seq (Hashtbl.to_seq h)) in
  ( (sorted p.Cfront.Cprog.typedefs, sorted p.Cfront.Cprog.comps, sorted p.Cfront.Cprog.protos),
    p.Cfront.Cprog.order,
    Cfront.Cprog.functions p )

(* the definition each name of [p] resolves to, as the graph decides *)
let resolver (p : Cfront.Cprog.t) =
  let g = Fdg.build p in
  fun name -> Option.map (fun v -> g.Fdg.defs.(v)) (Fdg.node g name)

(* whether every name of [p] resolves to its last definition, which is
   what the analysis keeps of a name defined twice *)
let resolves_last (p : Cfront.Cprog.t) =
  let resolve = resolver p and last = Hashtbl.create 64 in
  List.iter
    (fun (f : Cfront.Cast.fundef) -> Hashtbl.replace last f.Cfront.Cast.f_name f)
    (Cfront.Cprog.functions p);
  Hashtbl.fold
    (fun name f ok -> ok && match resolve name with Some d -> d == f | None -> false)
    last true

(* how often each link outcome was seen, for the fixed-seed check *)
let link_outcomes : (string, int) Hashtbl.t = Hashtbl.create 8

let link_agrees seed =
  let rng = Random.State.make [| seed |] in
  let counter = ref 0 in
  let units =
    ref
      (List.init
         (3 + Random.State.int rng 3)
         (fun i -> (Printf.sprintf "u%d.c" i, List.init (4 + Random.State.int rng 5) (fun _ -> random_litem rng))))
  in
  let t = Session.create ~mode:Analysis.Poly (lunits !units) in
  let fail step what =
    QCheck2.Test.fail_reportf "seed %d, %s: %s\n%s" seed step what
      (String.concat "" (List.map (fun (n, s) -> "--- " ^ n ^ "\n" ^ s) (lunits !units)))
  in
  (* every definition has a pointer parameter, so every linked function
     has positions, whose keys name its home unit *)
  let check step =
    let cold = Session.create ~mode:Analysis.Poly (lunits !units) in
    if program_view (Session.program t) <> program_view (Session.program cold) then
      fail step "the linked program differs from a fresh link";
    if not (resolves_last (Session.program t)) then
      fail step "a name does not resolve to its last definition";
    if Session.positions t <> Session.positions cold then
      fail step "the position keys (home units) differ"
  in
  check "initial";
  for step = 1 to 10 do
    let step = Printf.sprintf "step %d" step in
    let kept = Session.program t in
    let before = program_view kept in
    let units' = ledit rng counter !units in
    List.iter
      (fun (name, _) ->
        if not (List.mem_assoc name units') then ignore (Session.remove_unit t name))
      !units;
    units := units';
    List.iter (fun (name, src) -> ignore (Session.update_unit t name src)) (lunits units');
    ignore (Session.run t);
    let how = (Option.get (Session.stats t).Session.ss_last_rebuild).Session.rb_link in
    Hashtbl.replace link_outcomes how
      (1 + Option.value (Hashtbl.find_opt link_outcomes how) ~default:0);
    check step;
    if program_view kept <> before then fail step "a program taken before the edit changed"
  done;
  true

let prop_link_patch_equals_merge =
  QCheck2.Test.make ~count:150 ~name:"link: a patched link equals a fresh one"
    ~print:string_of_int QCheck2.Gen.int link_agrees

(* the property is not vacuous: on fixed seeds, most edits patch the
   link and every fallback is seen *)
let test_link_outcomes () =
  Hashtbl.reset link_outcomes;
  for seed = 1 to 30 do
    ignore (link_agrees seed)
  done;
  let seen how = Option.value (Hashtbl.find_opt link_outcomes how) ~default:0 in
  Alcotest.(check bool) "most edits patch" true (seen "patched" > 100);
  List.iter
    (fun reason -> Alcotest.(check bool) reason true (seen ("merged: " ^ reason) > 10))
    [ "unit list changed"; "a unit's typedefs, structs or prototypes changed" ]

(* A prototype or typedef edit takes the merged path, a body edit the
   patched one, and each renders as a cold session does. *)
let test_link_paths () =
  let a ~proto ~td body =
    Printf.sprintf "%s\n%s\nchar *fa(char *s) { %sreturn s; }\n"
      (if td then "typedef int num;" else "typedef char num;")
      (if proto then "char *lib(char *s);" else "char *lib(const char *s);")
      body
  in
  let b = "char *lib(char *s);\nchar *fb(char *s) { return lib(fa(s)); }\n" in
  let t = Session.create ~mode:Analysis.Poly [ ("a.c", a ~proto:true ~td:true ""); ("b.c", b) ] in
  ignore (Session.run t);
  List.iter
    (fun (what, src, expect) ->
      ignore (Session.update_unit t "a.c" src);
      ignore (Session.run t);
      let rb = Option.get (Session.stats t).Session.ss_last_rebuild in
      Alcotest.(check string) (what ^ ": link") expect rb.Session.rb_link;
      Alcotest.(check string) (what ^ ": warm = cold")
        (Session.render ~positions:true ~name:"l" (Session.create [ ("a.c", src); ("b.c", b) ]))
        (Session.render ~positions:true ~name:"l" t))
    [
      ("a body edit", a ~proto:true ~td:true "*s = 0; ", "patched");
      ( "a prototype edit",
        a ~proto:false ~td:true "*s = 0; ",
        "merged: a unit's typedefs, structs or prototypes changed" );
      ( "a typedef edit",
        a ~proto:false ~td:false "*s = 0; ",
        "merged: a unit's typedefs, structs or prototypes changed" );
      ("a body edit again", a ~proto:false ~td:false "", "patched");
    ]

(* A unit that mentions an earlier unit's typedef is parsed under that
   environment; a body edit of the earlier unit leaves the environment as
   it was, so the unit's parse comes from the memo and its definitions
   stay the same values. *)
let test_link_reparse_memo () =
  let a body = "typedef char *str;\nint f(str s) { " ^ body ^ "return 0; }\n" in
  let b = "int g(str s) { return f(s); }\n" in
  let t = Session.create ~mode:Analysis.Poly [ ("a.c", a ""); ("b.c", b) ] in
  let hits, misses = memo_delta t (fun () -> ignore (Session.run t)) in
  Alcotest.(check (pair int int)) "cold: each unit parsed once" (0, 2) (hits, misses);
  let g () = Option.get (resolver (Session.program t) "g") in
  let g0 = g () in
  for i = 1 to 3 do
    let body = Printf.sprintf "int k%d; k%d = 1; " i i in
    let hits, misses =
      memo_delta t (fun () ->
          ignore (Session.update_unit t "a.c" (a body));
          ignore (Session.run t))
    in
    Alcotest.(check (pair int int)) "a.c missed; b.c's parse hit" (1, 1) (hits, misses);
    let rb = Option.get (Session.stats t).Session.ss_last_rebuild in
    Alcotest.(check int) "one unit built" 1 rb.Session.rb_units_built;
    Alcotest.(check bool) "b.c's definition is the same value" true (g () == g0);
    Alcotest.(check string) "warm = cold"
      (Session.render ~positions:true ~name:"l" (Session.create [ ("a.c", a body); ("b.c", b) ]))
      (Session.render ~positions:true ~name:"l" t)
  done

(* A unit's parse is reused only under the environment it was parsed
   under: a typedef that an earlier unit starts to define, and a later
   unit mentions, has the later unit parsed again, and so does dropping
   it again. *)
let test_link_new_typedef () =
  let b = "int g(str s) { return 0; }\nint h(char *p) { return g(p); }\n" in
  let with_td = "typedef char *str;\nint f(char *s) { return 0; }\n" in
  let without = "int f(char *s) { return 0; }\n" in
  let t = Session.create ~mode:Analysis.Poly [ ("a.c", without); ("b.c", b) ] in
  let built () = (Option.get (Session.stats t).Session.ss_last_rebuild).Session.rb_units_built in
  ignore (Session.run t);
  Alcotest.(check int) "cold: both units built" 2 (built ());
  List.iter
    (fun (what, a, expect) ->
      ignore (Session.update_unit t "a.c" a);
      ignore (Session.run t);
      Alcotest.(check int) (what ^ ": units built") expect (built ());
      Alcotest.(check string) (what ^ ": warm = cold")
        (Session.render ~positions:true ~name:"l" (Session.create [ ("a.c", a); ("b.c", b) ]))
        (Session.render ~positions:true ~name:"l" t))
    [
      ("a typedef b.c mentions", with_td, 2);
      ("the typedef removed", without, 2);
      ("the typedef again", with_td, 2);
    ]

(* A stream like gatebench's daemon-edit one: each step rewrites one
   [mod_*] unit from its original text, odd steps appending an uncalled
   leaf, even steps writing through a [char *s] parameter. After the cold
   run no step runs Tarjan's algorithm: a leaf is spliced in (and out,
   when its unit is rewritten again), a parameter write adds no edge. *)
let test_edit_stream_splices () =
  let files = Cbench.Gen.generate_project ~seed:43 ~target_lines:3000 () in
  let mods = List.filter (fun (n, _) -> String.starts_with ~prefix:"mod_" n) files in
  let rng = Random.State.make [| 43 |] in
  let t = Session.create ~mode:Analysis.Poly files in
  ignore (Session.run t);
  let current = ref files in
  for k = 1 to 16 do
    let name, src = List.nth mods (Random.State.int rng (List.length mods)) in
    let edited =
      if k mod 2 = 1 then Printf.sprintf "%sint bench_edit_%d(char *s) { return *s; }\n" src k
      else
        let lines = Array.of_list (String.split_on_char '\n' src) in
        let heads =
          List.filter
            (fun i ->
              let l = lines.(i) in
              String.length l > 0 && l.[0] <> ' ' && String.contains l '{'
              &&
              match String.index_opt l '(' with
              | Some p -> String.length l > p + 8 && String.sub l p 8 = "(char *s"
              | None -> false)
            (List.init (Array.length lines) Fun.id)
        in
        let i = List.nth heads (Random.State.int rng (List.length heads)) in
        let l = lines.(i) in
        let b = String.index l '{' in
        lines.(i) <-
          Printf.sprintf "%s *s = 0; /* e%d */%s" (String.sub l 0 (b + 1)) k
            (String.sub l (b + 1) (String.length l - b - 1));
        String.concat "\n" (Array.to_list lines)
    in
    current := List.map (fun (n, s) -> if n = name then (n, edited) else (n, s)) !current;
    ignore (Session.update_unit t name edited);
    ignore (Session.run t);
    let rb = Option.get (Session.stats t).Session.ss_last_rebuild in
    Alcotest.(check bool) (Printf.sprintf "step %d: warm" k) false rb.Session.rb_full;
    if rb.Session.rb_condensation = "tarjan" then Alcotest.failf "step %d ran Tarjan's algorithm" k
  done;
  Alcotest.(check string) "warm = cold"
    (Session.render ~positions:true ~name:"s" (Session.create ~mode:Analysis.Poly !current))
    (Session.render ~positions:true ~name:"s" t)

(* A body edit of one function of a generated unit is spliced: only its
   declaration is parsed afresh, every other definition of the unit is
   physically the one the previous compile held, and the FDG rescans
   only the edited body. A comment line inserted above that function
   then re-parses at most its declaration: the definitions above it stay
   the same values, the ones below are reused with their lines shifted. *)
let test_splice_keeps_definitions () =
  let files = Cbench.Gen.generate_project ~seed:41 ~target_lines:3000 () in
  let name, src = List.nth files (List.length files - 1) in
  let t = Session.create ~mode:Analysis.Poly files in
  ignore (Session.run t);
  let unit_funs =
    List.map
      (fun (f : Cfront.Cast.fundef) -> f.Cfront.Cast.f_name)
      (Cfront.Cprog.functions (Session.program (Session.create [ (name, src) ])))
  in
  let defs () =
    let resolve = resolver (Session.program t) in
    List.map (fun f -> (f, Option.get (resolve f))) unit_funs
  in
  let before = defs () in
  (* a null statement at the top of the last definition *)
  let lines = Array.of_list (String.split_on_char '\n' src) in
  let i =
    List.find
      (fun i ->
        let l = lines.(i) in
        String.length l > 0 && l.[0] <> ' ' && String.contains l '('
        && String.contains l '{')
      (List.rev (List.init (Array.length lines) Fun.id))
  in
  let b = String.index lines.(i) '{' in
  lines.(i) <-
    String.sub lines.(i) 0 (b + 1)
    ^ " ;"
    ^ String.sub lines.(i) (b + 1) (String.length lines.(i) - b - 1);
  let edited = String.concat "\n" (Array.to_list lines) in
  ignore (Session.update_unit t name edited);
  ignore (Session.run t);
  let rb = Option.get (Session.stats t).Session.ss_last_rebuild in
  Alcotest.(check int) "one declaration re-parsed" 1 rb.Session.rb_decls_reparsed;
  Alcotest.(check int) "one body rescanned" 1 rb.Session.rb_defs_rescanned;
  let changed =
    List.filter
      (fun ((f, d0), (_, d1)) ->
        ignore f;
        d0 != d1)
      (List.combine before (defs ()))
  in
  Alcotest.(check int) "one definition is a new value" 1 (List.length changed);
  Alcotest.(check bool) "the unit has other definitions" true (List.length before > 5);
  let cold src =
    Session.render ~positions:true ~name:"s"
      (Session.create ~mode:Analysis.Poly
         (List.map (fun (n, s) -> if n = name then (n, src) else (n, s)) files))
  in
  Alcotest.(check string) "warm = cold" (cold edited)
    (Session.render ~positions:true ~name:"s" t);
  let edited_defs = defs () in
  let moved =
    String.concat "\n"
      (List.concat
         (List.mapi
            (fun j l -> if j = i then [ "/* a moved line */"; l ] else [ l ])
            (Array.to_list lines)))
  in
  ignore (Session.update_unit t name moved);
  ignore (Session.run t);
  let rb = Option.get (Session.stats t).Session.ss_last_rebuild in
  Alcotest.(check bool) "at most one declaration re-parsed" true
    (rb.Session.rb_decls_reparsed <= 1);
  let kept =
    List.filter (fun ((_, d0), (_, d1)) -> d0 == d1) (List.combine edited_defs (defs ()))
  in
  Alcotest.(check int) "every definition above the line is kept"
    (List.length
       (List.filter
          (fun (_, (d : Cfront.Cast.fundef)) -> d.Cfront.Cast.f_line <= i)
          edited_defs))
    (List.length kept);
  Alcotest.(check string) "moved: warm = cold" (cold moved)
    (Session.render ~positions:true ~name:"s" t)

(* ---------------- the warm daemon path on the smoke corpus ---------------- *)

(* nearest-rank median wall time of [f 0] .. [f (n - 1)] *)
let p50_of n f =
  let a =
    Array.init n (fun i ->
        let t0 = Unix.gettimeofday () in
        f i;
        Unix.gettimeofday () -. t0)
  in
  Array.sort compare a;
  a.(((n + 1) / 2) - 1)

(* typequald's warm path on midi-project-sim (poly): classify and whatif
   answer from the warm store within 10 ms at the median, and each of ten
   one-unit edits (append a newline to the last unit, then restore it)
   re-parses only that unit, stays warm, deletes its dead atoms in place,
   and leaves a store that renders exactly as a cold session does.
   gatebench's daemon-edit and daemon-query workloads time this path. *)
let test_warm_daemon_path () =
  let files = Cbench.Suite.project_of (List.hd Cbench.Suite.scale_smoke) in
  let t = Session.create files in
  ignore (Session.run t);
  let keys =
    Array.of_list (List.map (fun (k, _, _) -> k) (Session.positions t))
  in
  let nk = Array.length keys in
  Alcotest.(check bool) "some positions" true (nk > 0);
  let under_10ms what p50 =
    Alcotest.(check bool)
      (Printf.sprintf "%s p50 <= 10 ms (measured %.3f ms)" what (p50 *. 1e3))
      true (p50 <= 0.010)
  in
  under_10ms "classify"
    (p50_of 200 (fun i ->
         let k = keys.(i mod nk) in
         if Session.classify t k = None then Alcotest.failf "unknown key %s" k));
  let whatif k =
    match Session.whatif t ~qual:"const" k with
    | Ok _ -> ()
    | Error m -> Alcotest.failf "whatif %s: %s" k m
  in
  (* the first whatif builds the store's what-if index; the samples
     come after it *)
  whatif keys.(0);
  under_10ms "whatif" (p50_of 200 (fun i -> whatif keys.(i * 7919 mod nk)));
  let edit_name, edit_src = List.nth files (List.length files - 1) in
  let n = List.length files in
  for i = 1 to 10 do
    let step = Printf.sprintf "edit %d" i in
    let src = if i mod 2 = 1 then edit_src ^ "\n" else edit_src in
    Alcotest.(check (pair int int))
      (step ^ ": only the edited unit is parsed")
      (n - 1, 1)
      (memo_delta t (fun () ->
           (match Session.update_unit t edit_name src with
           | `Updated -> ()
           | `Added | `Unchanged -> Alcotest.failf "%s left the unit clean" step);
           ignore (Session.run t)));
    let rb = Option.get (Session.stats t).Session.ss_last_rebuild in
    Alcotest.(check bool) (step ^ ": stays warm") false rb.Session.rb_full;
    Alcotest.(check bool) (step ^ ": deletes in place") true
      (rb.Session.rb_atoms_deleted > 0)
  done;
  Alcotest.(check string) "warm render = cold render"
    (Session.render ~positions:true ~name:"daemon" (Session.create files))
    (Session.render ~positions:true ~name:"daemon" t)

let tests =
  [
    Alcotest.test_case "replay: clean corpus, serial" `Quick
      test_replay_clean_serial;
    Alcotest.test_case "replay: broken corpus, serial" `Quick
      test_replay_broken_serial;
    Alcotest.test_case "replay: cone script, serial" `Quick
      test_replay_cone_serial;
    Alcotest.test_case "warm rerun replays the store in task order" `Quick
      test_cone_order;
    Alcotest.test_case "unchanged update invalidates nothing" `Quick
      test_unchanged_is_noop;
    Alcotest.test_case "alternating modes stay warm" `Quick
      test_modes_stay_warm;
    Alcotest.test_case "an edit keeps one generation of stores" `Quick
      test_bases_one_generation;
    Alcotest.test_case "AST memo survives an edit" `Quick
      test_memo_survives_edit;
    Alcotest.test_case "AST memo keeps only current units" `Quick
      test_memo_bounded;
    Alcotest.test_case "remove_unit keeps link order" `Quick test_remove_unit;
    Alcotest.test_case "AST memo: a renamed unit is parsed again" `Quick
      test_memo_rename_misses;
    Alcotest.test_case "canonical and structural keys agree" `Quick
      test_position_key_aliases;
    Alcotest.test_case "explain: Ok on known, Error on unknown" `Quick
      test_explain_contract;
    Alcotest.test_case "whatif: deferred thunks match inline" `Quick
      test_whatif_deferred_matches_inline;
    Alcotest.test_case "daemon: a batched whatif answers before the update"
      `Quick test_daemon_whatif_before_update;
    Alcotest.test_case "daemon: a multi-MiB request line is framed" `Quick
      test_daemon_long_line;
    Alcotest.test_case "whatif: matches clone-and-resolve at every position"
      `Quick test_whatif_parity;
    Alcotest.test_case "whatif: section 4.4 certificate" `Quick
      test_whatif_certificate;
    Alcotest.test_case "wire: roundtrip" `Quick test_wire_roundtrip;
    Alcotest.test_case "wire: unicode escapes" `Quick test_wire_unicode;
    Alcotest.test_case "wire: malformed input" `Quick test_wire_errors;
    Alcotest.test_case "wire: request/response framing" `Quick
      test_parse_request;
    Alcotest.test_case "wire: the stats reply is structured" `Quick
      test_wire_stats;
    QCheck_alcotest.to_alcotest prop_wire_never_raises;
    Alcotest.test_case "daemon: a malformed escape is a bad request" `Quick
      test_daemon_bad_escape;
    QCheck_alcotest.to_alcotest prop_warm_equals_cold;
    QCheck_alcotest.to_alcotest prop_link_patch_equals_merge;
    Alcotest.test_case "link: most edits patch, every fallback is seen" `Quick
      test_link_outcomes;
    Alcotest.test_case "link: a prototype or typedef edit merges, warm = cold" `Quick
      test_link_paths;
    Alcotest.test_case "a later unit's parse hits the memo" `Quick
      test_link_reparse_memo;
    Alcotest.test_case "link: a new typedef re-parses the units after it" `Quick
      test_link_new_typedef;
    Alcotest.test_case "an edit stream like gatebench's never runs Tarjan" `Quick
      test_edit_stream_splices;
    Alcotest.test_case "a spliced edit keeps the unit's other definitions"
      `Quick test_splice_keeps_definitions;
    Alcotest.test_case "explain after a task swap and a log compaction" `Quick
      test_explain_swap_compaction;
    Alcotest.test_case "warm queries and one-unit edits on midi-project-sim"
      `Slow test_warm_daemon_path;
  ]
