(* Tests for the resilient pipeline: structured diagnostics, panic-mode
   parser recovery, fault-isolated degraded analysis, resource budgets,
   and a fault-injection property over generated programs. *)

open Cqual
module Diag = Cfront.Diag
module Cparse = Cfront.Cparse
module Cast = Cfront.Cast
module Cprog = Cfront.Cprog
module Budget = Typequal.Budget

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let outcomes (r : Session.run) = r.Session.results.Report.outcomes

let outcome_of r name =
  match List.assoc_opt name (outcomes r) with
  | Some o -> o
  | None -> Alcotest.failf "no outcome recorded for %s" name

let check_analyzed r name =
  match outcome_of r name with
  | Analysis.Analyzed -> ()
  | Analysis.Degraded reason ->
      Alcotest.failf "%s unexpectedly degraded: %s" name reason

let check_degraded r name =
  match outcome_of r name with
  | Analysis.Degraded reason -> reason
  | Analysis.Analyzed -> Alcotest.failf "%s unexpectedly analyzed" name

let degraded_of r =
  List.filter_map
    (fun (n, o) ->
      match o with Analysis.Degraded _ -> Some n | Analysis.Analyzed -> None)
    (outcomes r)

(* ------------------------------------------------------------------ *)
(* Parser recovery                                                     *)
(* ------------------------------------------------------------------ *)

let bad3 =
  "int good1(int *p) { return *p; }\n\
   int = 3;\n\
   int good2(const int *q) { return *q; }\n\
   int broken(int *r) { return * ; }\n\
   int 5bad;\n\
   int good3(int *s) { return *s; }\n"

let test_recovery_three_errors () =
  let pr = Support.parse_partial bad3 in
  let errs = List.filter Diag.is_error pr.Cparse.pr_diags in
  Alcotest.(check int) "three diagnostics" 3 (List.length errs);
  (match errs with
  | [ d1; d2; d3 ] ->
      Alcotest.(check string) "code 1" "E0201" d1.Diag.d_code;
      Alcotest.(check int) "line 1" 2 d1.Diag.d_span.Diag.sl;
      Alcotest.(check int) "col 1" 5 d1.Diag.d_span.Diag.sc;
      Alcotest.(check string) "code 2" "E0202" d2.Diag.d_code;
      Alcotest.(check int) "line 2" 4 d2.Diag.d_span.Diag.sl;
      Alcotest.(check int) "col 2" 31 d2.Diag.d_span.Diag.sc;
      Alcotest.(check string) "code 3" "E0201" d3.Diag.d_code;
      Alcotest.(check int) "line 3" 5 d3.Diag.d_span.Diag.sl
  | _ -> Alcotest.fail "expected exactly three errors");
  let r = Support.run_source ~mode:Analysis.Mono bad3 in
  check_analyzed r "good1";
  check_analyzed r "good2";
  check_analyzed r "good3";
  let reason = check_degraded r "broken" in
  Alcotest.(check bool)
    "demotion reason" true
    (contains ~sub:"failed to parse" reason);
  (* the good functions still get position verdicts *)
  let pos_funs =
    List.sort_uniq String.compare
      (List.map
         (fun ((p : Report.position), _) -> p.Report.p_fun)
         r.Session.results.Report.positions)
  in
  Alcotest.(check (list string))
    "positions" [ "good1"; "good2"; "good3" ] pos_funs

let test_body_demotion_isolates_caller () =
  let src =
    "int broken(int *p) { return * ; }\n\
     int caller(int *q) { return broken(q); }\n"
  in
  let r = Support.run_source ~mode:Analysis.Mono src in
  check_analyzed r "caller";
  let reason = check_degraded r "broken" in
  Alcotest.(check bool)
    "parse reason" true
    (contains ~sub:"failed to parse" reason);
  (* the demoted callee is treated like a declared-but-undefined library
     function: a pointer escaping into it is conservatively non-const
     (the callee may write through it), exactly as for library calls *)
  match r.Session.results.Report.positions with
  | [ (p, v) ] ->
      Alcotest.(check string) "position owner" "caller" p.Report.p_fun;
      Alcotest.(check bool) "escape is conservative" true
        (v = Report.Must_not_const)
  | ps -> Alcotest.failf "expected one position, got %d" (List.length ps)

let test_lex_recovery () =
  let src =
    "int f(int *p) { return *p; }\n@\nint g(int *q) { return *q; }\n"
  in
  let r = Support.run_source ~mode:Analysis.Mono src in
  (match r.Session.diagnostics with
  | [ d ] ->
      Alcotest.(check string) "code" "E0101" d.Diag.d_code;
      Alcotest.(check int) "line" 2 d.Diag.d_span.Diag.sl;
      Alcotest.(check int) "col" 1 d.Diag.d_span.Diag.sc
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds));
  check_analyzed r "f";
  check_analyzed r "g"

let test_unterminated_comment () =
  let src = "int f(int *p) { return *p; }\n/* never closed" in
  let r = Support.run_source ~mode:Analysis.Mono src in
  Alcotest.(check bool)
    "E0103 reported" true
    (List.exists (fun d -> d.Diag.d_code = "E0103") r.Session.diagnostics);
  check_analyzed r "f"

let test_unterminated_string () =
  let src = "int f(int *p) { return *p; }\nchar *s = \"oops\n" in
  let r = Support.run_source ~mode:Analysis.Mono src in
  Alcotest.(check bool)
    "E0102 reported" true
    (List.exists (fun d -> d.Diag.d_code = "E0102") r.Session.diagnostics);
  check_analyzed r "f"

(* An integer literal too large for an int is a lexical error on its
   span; lexing goes on after it, as after a bad character. *)
let big_src = "int f(void) { return 99999999999999999999999; }\nint g(int *p) { return *p; }\n"
let big_hex_src = "int f(void) { return 0xFFFFFFFFFFFFFFFFFFFF; }\nint g(int *p) { return *p; }\n"

let check_e0104 ?(ec = 44) label (ds : Diag.t list) =
  match List.filter Diag.is_error ds with
  | [ d ] ->
      Alcotest.(check string) (label ^ ": code") "E0104" d.Diag.d_code;
      Alcotest.(check (list int))
        (label ^ ": span")
        [ 1; 22; 1; ec ]
        Diag.[ d.d_span.sl; d.d_span.sc; d.d_span.el; d.d_span.ec ]
  | ds -> Alcotest.failf "%s: expected one error, got %d" label (List.length ds)

let test_int_literal_overflow () =
  check_e0104 "decimal" (Support.parse_partial big_src).Cparse.pr_diags;
  check_e0104 ~ec:43 "hex" (Support.parse_partial big_hex_src).Cparse.pr_diags;
  let r = Support.run_source ~mode:Analysis.Mono big_src in
  check_e0104 "session" r.Session.diagnostics;
  check_analyzed r "f";
  check_analyzed r "g";
  (* the largest literals that fit still lex as ints *)
  Alcotest.(check int) "max_int fits" 0
    (List.length
       (Support.parse_partial
          "int a = 4611686018427387903; int b = 0x7FFFFFFFFFFFFFFF;\n")
         .Cparse.pr_diags)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tq-resilience-%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun x -> Sys.remove (Filename.concat dir x)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let built exe =
  Filename.concat (Filename.dirname Sys.executable_name) ("../bin/" ^ exe)

let write dir name src =
  let path = Filename.concat dir name in
  Out_channel.with_open_bin path (fun oc -> output_string oc src);
  path

let read path = In_channel.with_open_bin path In_channel.input_all

(* cqualc reports E0104 like any lexical error: the report is printed
   and the exit status is 2, the one for diagnostics *)
let test_int_literal_overflow_cqualc () =
  with_temp_dir (fun dir ->
      let unit = write dir "big.c" big_src in
      let out = Filename.concat dir "out.txt" and err = Filename.concat dir "err.txt" in
      let code =
        Sys.command
          (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote (built "cqualc.exe"))
             (Filename.quote unit) (Filename.quote out) (Filename.quote err))
      in
      Alcotest.(check int) "exit status" 2 code;
      Alcotest.(check string) "stderr"
        "error[E0104] 1:22-44: integer literal 99999999999999999999999 does \
         not fit in an int\n"
        (read err);
      Alcotest.(check bool) "report printed" true
        (contains ~sub:"functions: 2 (2 analyzed, 0 degraded)" (read out)))

(* there is no disk tier: every CLI rejects --cache as an unknown option,
   exits 2 (cmdliner's 124 folded) before it reads a source, and creates
   no directory *)
let test_cqualc_rejects_cache () =
  with_temp_dir (fun dir ->
      List.iter
        (fun (exe, source) ->
          let unit = write dir source "int f(int *p) { return *p; }\n" in
          let cache = Filename.concat dir "qc" in
          let out = Filename.concat dir "out.txt"
          and err = Filename.concat dir "err.txt" in
          let code =
            Sys.command
              (Printf.sprintf "%s --cache %s %s > %s 2> %s"
                 (Filename.quote (built exe))
                 (Filename.quote cache) (Filename.quote unit)
                 (Filename.quote out) (Filename.quote err))
          in
          let created = Sys.file_exists cache in
          if created then ignore (Sys.command ("rm -rf " ^ Filename.quote cache));
          Alcotest.(check int) (exe ^ ": exit status") 2 code;
          Alcotest.(check bool) (exe ^ ": usage error naming --cache") true
            (contains ~sub:"unknown option '--cache'" (read err));
          Alcotest.(check string) (exe ^ ": stdout") "" (read out);
          Alcotest.(check bool) (exe ^ ": no directory created") false created)
        [ ("cqualc.exe", "u.c"); ("qualc.exe", "u.ml"); ("typequald.exe", "u.c") ])

(* qualc on a FILE or --lattice path it cannot read: a one-line error
   naming the path and exit 2, as cqualc and typequald give *)
let test_qualc_unreadable_path () =
  with_temp_dir (fun dir ->
      let missing = Filename.concat dir "missing" in
      let err = Filename.concat dir "err.txt" in
      List.iter
        (fun (what, args) ->
          let code =
            Sys.command
              (Printf.sprintf "%s %s > /dev/null 2> %s"
                 (Filename.quote (built "qualc.exe"))
                 args (Filename.quote err))
          in
          Alcotest.(check int) (what ^ ": exit status") 2 code;
          Alcotest.(check string) (what ^ ": stderr")
            (Printf.sprintf "error: %s: No such file or directory\n" missing)
            (read err))
        [
          ("FILE", Filename.quote missing);
          ("--lattice", "--lattice " ^ Filename.quote missing ^ " -e 1");
        ])

(* the daemon survives an update whose source has one, and serves it as
   a diagnostic *)
let test_int_literal_overflow_daemon () =
  with_temp_dir (fun dir ->
      let unit = write dir "u.c" "int g(int *p) { return *p; }\n" in
      let rq id meth params =
        Wire.to_string
          (Wire.Obj
             [ ("id", Wire.num_int id); ("method", Wire.Str meth); ("params", Wire.Obj params) ])
      in
      let input =
        write dir "requests.jsonl"
          (String.concat "\n"
             [
               rq 1 "update" [ ("name", Wire.Str unit); ("source", Wire.Str big_hex_src) ];
               rq 2 "diagnostics" [];
               rq 3 "run" [];
             ]
          ^ "\n")
      in
      let output = Filename.concat dir "responses.jsonl" in
      let code =
        Sys.command
          (Printf.sprintf "%s --mode mono %s < %s > %s 2>&1"
             (Filename.quote (built "typequald.exe"))
             (Filename.quote unit) (Filename.quote input) (Filename.quote output))
      in
      Alcotest.(check int) "typequald exits 0" 0 code;
      let lines = List.filter (( <> ) "") (String.split_on_char '\n' (read output)) in
      let response id =
        match
          List.find_opt
            (fun l ->
              match Wire.of_string l with
              | Ok j -> Wire.mem_int "id" j = Some id
              | Error _ -> false)
            lines
        with
        | Some l -> l
        | None -> Alcotest.failf "no response %d in:\n%s" id (read output)
      in
      Alcotest.(check bool) "update answered" true
        (contains ~sub:"\"updated\"" (response 1));
      Alcotest.(check bool) "E0104 served" true
        (contains ~sub:"error[E0104] 1:22-43: integer literal" (response 2));
      Alcotest.(check bool) "run answered" true
        (not (contains ~sub:"\"error\"" (response 3))))

(* A newline inside a literal is still a line break: after a string
   continued with a backslash-newline, or a character literal holding a
   raw newline, every later span is on its true line. *)
let test_newlines_in_literals () =
  List.iter
    (fun (label, src) ->
      match (Support.parse_partial src).Cparse.pr_diags with
      | [ d ] ->
          Alcotest.(check string) (label ^ ": code") "E0202" d.Diag.d_code;
          Alcotest.(check (list int))
            (label ^ ": line, column")
            [ 3; 25 ]
            Diag.[ d.d_span.sl; d.d_span.sc ]
      | ds -> Alcotest.failf "%s: expected one diagnostic, got %d" label (List.length ds))
    [
      ("string", "char *s = \"ab\\\ncd\";\nint f(void) { return 1 +; }\n");
      ("char", "char c = '\n';\nint f(void) { return 1 +; }\n");
      ("escaped char", "char c = '\\\n';\nint f(void) { return 1 +; }\n");
    ]

let test_max_errors_cap () =
  let src =
    String.concat "" (List.init 10 (fun _ -> "int = 1;\n"))
    ^ "int ok(int *p) { return *p; }\n"
  in
  let pr = Support.parse_partial ~max_errors:3 src in
  let errs = List.filter Diag.is_error pr.Cparse.pr_diags in
  Alcotest.(check int) "capped" 3 (List.length errs);
  let last = List.nth pr.Cparse.pr_diags (List.length pr.Cparse.pr_diags - 1) in
  Alcotest.(check string) "gave up note" "E0299" last.Diag.d_code;
  Alcotest.(check bool) "note severity" true (last.Diag.d_severity = Diag.Note)

let test_unknown_typedef_degrades () =
  (* the first declarator registers T in the parser's typedef set, then
     the second one fails, so the whole GTypedef is lost to recovery:
     [use] parses against a typedef the program tables never see *)
  let src =
    "typedef int T, 5;\n\
     int use(T *p) { return *p; }\n\
     int ok(int *q) { return *q; }\n"
  in
  let r = Support.run_source ~mode:Analysis.Mono src in
  check_analyzed r "ok";
  let reason = check_degraded r "use" in
  Alcotest.(check bool)
    "typedef reason" true
    (contains ~sub:"unknown typedef" reason)

(* a name defined twice with different arities: every mode analyzes the
   definition the function table links (the last), and none crashes *)
let test_redefinition_arity () =
  let first = "int f(int a, char *b) { return a; }\n"
  and second = "int f(void) { return 1; }\n" in
  List.iter
    (fun mode ->
      List.iter
        (fun (src, expect) ->
          let r = Support.run_source ~mode src in
          check_analyzed r "f";
          let got =
            List.map
              (fun ((p : Report.position), v) ->
                Fmt.str "%s %a %d: %a" p.Report.p_fun Report.pp_where
                  p.Report.p_where p.Report.p_level Report.pp_verdict v)
              r.Session.results.Report.positions
          in
          Alcotest.(check (list string))
            (Session.mode_name mode ^ ": the last definition's positions")
            expect got)
        [
          (first ^ second, []);
          (second ^ first, [ "f param 1 (b) 1: could-be-const" ]);
        ])
    [ Analysis.Mono; Analysis.Poly; Analysis.Polyrec ]

(* [use] and [body] fault during analysis (their typedef was lost to
   parser recovery, so building [use]'s interface and [body]'s local
   raise): in every mode the fault degrades those functions only —
   mono's interface pass and bodies, and the per-SCC isolation alike *)
let test_faulting_function_isolated () =
  let src =
    "typedef int T, 5;\n\
     int use(T *p) { return *p; }\n\
     int body(int *q) { T x; return *q; }\n\
     int ok(int *q) { return *q; }\n\
     int caller(int *r) { return use(r) + ok(r) + body(r); }\n"
  in
  List.iter
    (fun mode ->
      let mname = Session.mode_name mode in
      let r = Support.run_source ~mode src in
      check_analyzed r "ok";
      List.iter (fun f -> ignore (check_degraded r f)) [ "use"; "body" ];
      (* a degraded SCC is forgotten, so its callers treat it as an
         undeclared function; a degraded mono body keeps the interface
         every caller links to, whatever their order *)
      Alcotest.(check bool)
        (mname ^ ": caller links to degraded body")
        (mode = Analysis.Mono)
        (not
           (List.mem "call to undeclared function body"
              r.Session.results.Report.warnings)))
    [ Analysis.Mono; Analysis.Poly; Analysis.Polyrec ]

(* ------------------------------------------------------------------ *)
(* Budgets                                                             *)
(* ------------------------------------------------------------------ *)

let check_all_budget_degraded r =
  Alcotest.(check bool) "has functions" true (outcomes r <> []);
  List.iter
    (fun (n, o) ->
      match o with
      | Analysis.Degraded reason when contains ~sub:"budget exhausted" reason
        ->
          ()
      | Analysis.Degraded reason ->
          Alcotest.failf "%s degraded for the wrong reason: %s" n reason
      | Analysis.Analyzed -> Alcotest.failf "%s not degraded" n)
    (outcomes r);
  List.iter
    (fun (_, v) ->
      Alcotest.(check bool) "verdict Either" true (v = Report.Either))
    r.Session.results.Report.positions

let test_budget_pops () =
  let src = Cbench.Gen.generate ~seed:7 ~target_lines:120 () in
  let budget = Budget.create ~max_pops:20 () in
  let r = Support.run_source ~mode:Analysis.Mono ~budget src in
  Alcotest.(check bool) "tripped" true (Budget.is_exhausted budget);
  check_all_budget_degraded r

let test_budget_vars () =
  let src = Cbench.Gen.generate ~seed:11 ~target_lines:120 () in
  let budget = Budget.create ~max_vars:5 () in
  let r = Support.run_source ~mode:Analysis.Poly ~budget src in
  Alcotest.(check bool) "tripped" true (Budget.is_exhausted budget);
  check_all_budget_degraded r

let test_budget_deadline () =
  (* a fake clock that jumps an hour per poll: the deadline trips at the
     first check, deterministically, and the run must still terminate *)
  let t = ref 0.0 in
  let clock () =
    t := !t +. 3600.0;
    !t
  in
  let src = Cbench.Gen.generate ~seed:3 ~target_lines:200 () in
  let budget = Budget.create ~deadline_s:1.0 ~clock () in
  let r = Support.run_source ~mode:Analysis.Mono ~budget src in
  Alcotest.(check bool) "tripped" true (Budget.is_exhausted budget);
  check_all_budget_degraded r

(* a tripped budget leaves a partial solution: whatif refuses to probe it *)
let test_budget_whatif_refused () =
  let src = Cbench.Gen.generate ~seed:7 ~target_lines:120 () in
  let t =
    Session.create ~mode:Analysis.Mono
      ~budget:(fun () -> Budget.create ~max_pops:20 ())
      [ ("<input>", src) ]
  in
  match Session.positions t with
  | [] -> Alcotest.fail "expected positions"
  | (key, _, _) :: _ -> (
      match Session.whatif t ~qual:"const" key with
      | Error m ->
          Alcotest.(check bool) "names the budget" true
            (contains ~sub:"budget" m)
      | Ok _ -> Alcotest.fail "whatif on a tripped store must be an Error")

let test_budget_untripped_is_clean () =
  let src = "int f(const int *p) { return *p; }\n" in
  let budget = Budget.create ~max_vars:1000 ~max_pops:100000 () in
  let r = Support.run_source ~mode:Analysis.Mono ~budget src in
  Alcotest.(check bool) "not tripped" false (Budget.is_exhausted budget);
  check_analyzed r "f";
  match r.Session.results.Report.positions with
  | [ (_, v) ] ->
      Alcotest.(check bool) "still precise" true (v = Report.Must_const)
  | _ -> Alcotest.fail "expected one position"

(* a budget that trips mid-run: some functions degrade, every function
   still gets an outcome, and the report is produced (the CLI exits 0 on
   this path) *)
let test_budget_mid_run () =
  let src = Cbench.Gen.generate ~seed:16 ~target_lines:600 () in
  List.iter
    (fun mode ->
      let mname = Session.mode_name mode in
      let budget = Budget.create ~max_vars:60 ~clock:Unix.gettimeofday () in
      let r = Support.run_source ~mode ~budget src in
      Alcotest.(check bool) (mname ^ ": budget tripped somewhere") true
        (degraded_of r <> []);
      Alcotest.(check bool)
        (mname ^ ": every function has an outcome")
        true
        (List.length (outcomes r) >= r.Session.n_functions))
    [ Analysis.Mono; Analysis.Poly; Analysis.Polyrec ]

(* ------------------------------------------------------------------ *)
(* Fault-injection property                                            *)
(* ------------------------------------------------------------------ *)

module SS = Set.Make (String)

(* Struct tags reachable from a (typedef-expanded) type: functions using
   the same tag share the per-tag field table, so they are coupled. *)
let rec tags_of_ctype acc (t : Cast.ctype) =
  let open Cast in
  match t with
  | TStruct (tag, _) -> SS.add tag acc
  | TNamed (n, _) -> SS.add ("typedef:" ^ n) acc
  | TPtr (t, _) | TArray (t, _, _) -> tags_of_ctype acc t
  | TFun (r, ps, _) ->
      List.fold_left
        (fun acc (_, t) -> tags_of_ctype acc t)
        (tags_of_ctype acc r) ps
  | TVoid _ | TInt _ | TFloat _ -> acc

let rec expr_ctypes acc (e : Cast.expr) =
  let open Cast in
  match e with
  | ECast (t, e) -> expr_ctypes (t :: acc) e
  | ESizeofT t -> t :: acc
  | EInt _ | EFloat _ | EChar _ | EString _ | EVar _ -> acc
  | EUnop (_, e)
  | EIncDec (_, _, e)
  | EMember (e, _)
  | EArrow (e, _)
  | ESizeofE e
  | EAddr e
  | EDeref e ->
      expr_ctypes acc e
  | EBinop (_, a, b)
  | EAssign (a, b)
  | EAssignOp (_, a, b)
  | EComma (a, b)
  | EIndex (a, b) ->
      expr_ctypes (expr_ctypes acc a) b
  | ECond (a, b, c) -> expr_ctypes (expr_ctypes (expr_ctypes acc a) b) c
  | ECall (f, args) -> List.fold_left expr_ctypes (expr_ctypes acc f) args
  | EInitList es -> List.fold_left expr_ctypes acc es

let decl_ctypes acc (d : Cast.decl) =
  let acc = d.Cast.d_type :: acc in
  match d.Cast.d_init with Some e -> expr_ctypes acc e | None -> acc

let rec stmt_ctypes acc (s : Cast.stmt) =
  let open Cast in
  match s with
  | SExpr e -> expr_ctypes acc e
  | SDecl ds -> List.fold_left decl_ctypes acc ds
  | SBlock ss -> List.fold_left stmt_ctypes acc ss
  | SIf (e, s1, s2) ->
      let acc = stmt_ctypes (expr_ctypes acc e) s1 in
      Option.fold ~none:acc ~some:(stmt_ctypes acc) s2
  | SWhile (e, s) -> stmt_ctypes (expr_ctypes acc e) s
  | SDoWhile (s, e) -> expr_ctypes (stmt_ctypes acc s) e
  | SFor (i, c, st, b) ->
      let acc = Option.fold ~none:acc ~some:(stmt_ctypes acc) i in
      let acc = Option.fold ~none:acc ~some:(expr_ctypes acc) c in
      let acc = Option.fold ~none:acc ~some:(expr_ctypes acc) st in
      stmt_ctypes acc b
  | SReturn (Some e) -> expr_ctypes acc e
  | SReturn None | SBreak | SContinue | SGoto _ | SNull -> acc
  | SSwitch (e, s) | SCase (e, s) -> stmt_ctypes (expr_ctypes acc e) s
  | SDefault s | SLabel (_, s) -> stmt_ctypes acc s

let all_tags prog =
  Hashtbl.fold (fun k _ acc -> SS.add k acc) prog.Cprog.comps SS.empty

(* Everything a function's constraints can touch outside itself: the
   identifiers it mentions (globals, callees, library functions — plus
   its own name, so callers connect to it) and the struct tags of every
   type it uses. If typedef expansion fails the tag set is unknowable, so
   it conservatively couples to every tag in the program. *)
let fun_vocab prog (f : Cast.fundef) : SS.t =
  let idents = SS.of_list (f.Cast.f_name :: Array.to_list (Fdg.mentions f)) in
  let ctypes =
    (f.Cast.f_ret :: List.map snd f.Cast.f_params)
    @ List.fold_left stmt_ctypes [] f.Cast.f_body
  in
  let tags =
    try
      List.fold_left
        (fun acc t -> tags_of_ctype acc (Cprog.expand prog t))
        SS.empty ctypes
    with Cprog.Frontend_error _ -> all_tags prog
  in
  SS.union idents tags

(* Global variables couple every function that mentions them; their
   initializers and types are analyzed once, as a single pseudo-node. *)
let globals_vocab prog (gs : Cast.global list) : SS.t =
  List.fold_left
    (fun acc g ->
      match g with
      | Cast.GVar d ->
          let acc = SS.add d.Cast.d_name acc in
          let acc =
            match d.Cast.d_init with
            | Some e -> SS.union acc (SS.of_list (Cast.expr_idents [] e))
            | None -> acc
          in
          let ctypes = decl_ctypes [] d in
          (try
             List.fold_left
               (fun acc t -> tags_of_ctype acc (Cprog.expand prog t))
               acc ctypes
           with Cprog.Frontend_error _ -> SS.union acc (all_tags prog))
      | _ -> acc)
    SS.empty gs

let pseudo = "\x00globals"

(* Undirected closure: a function is affected if its vocabulary meets an
   affected node's. Over-approximates constraint-graph connectivity. *)
let closure (nodes : (string * SS.t) list) (seeds : string list) : SS.t =
  let affected = ref (SS.of_list seeds) in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (n, voc) ->
        if
          (not (SS.mem n !affected))
          && List.exists
               (fun (m, voc') ->
                 SS.mem m !affected
                 && not (SS.is_empty (SS.inter voc voc')))
               nodes
        then begin
          affected := SS.add n !affected;
          changed := true
        end)
      nodes
  done;
  !affected

let verdicts_of (r : Session.run) name =
  List.filter_map
    (fun ((p : Report.position), v) ->
      if p.Report.p_fun = name then Some (p.Report.p_where, p.Report.p_level, v)
      else None)
    r.Session.results.Report.positions

(* Newline-preserving mutations, so surviving functions keep their line
   numbers (truncation only perturbs the tail). *)
let mutate kind a b src =
  let n = String.length src in
  if n = 0 then src
  else
    match kind with
    | 0 ->
        let i = a mod n in
        if src.[i] = '\n' then src
        else
          let junk = "@;)}({=*&x3\"'" in
          let c = junk.[b mod String.length junk] in
          String.mapi (fun j ch -> if j = i then c else ch) src
    | 1 ->
        let i = a mod n in
        let len = 1 + (b mod 8) in
        String.mapi
          (fun j ch -> if j >= i && j < i + len && ch <> '\n' then ' ' else ch)
          src
    | _ -> String.sub src 0 (a mod n)

let funs_of p =
  List.filter_map
    (function Cast.GFun f -> Some (f.Cast.f_name, f) | _ -> None)
    p.Cparse.pr_prog

let nonfuns_of p =
  List.filter (function Cast.GFun _ -> false | _ -> true) p.Cparse.pr_prog

let prop_fault_injection =
  QCheck2.Test.make ~count:300
    ~name:"fault injection: no crash, diagnosed, isolated"
    QCheck2.Gen.(
      quad (int_bound 9999) (int_bound 2) (int_bound 99999) (int_bound 99999))
    (fun (pseed, kind, a, b) ->
      let src0 = Cbench.Gen.generate ~seed:pseed ~target_lines:50 () in
      let src1 = mutate kind a b src0 in
      let r1 =
        try Support.run_source ~mode:Analysis.Mono src1
        with e ->
          QCheck2.Test.fail_reportf "Support.run_source raised %s on:\n%s"
            (Printexc.to_string e) src1
      in
      let p0 = Support.parse_partial src0 in
      let p1 = Support.parse_partial src1 in
      (* a source that fails to lex or parse must carry a diagnostic *)
      if p1.Cparse.pr_diags <> [] && r1.Session.diagnostics = [] then
        QCheck2.Test.fail_reportf "rejected source has no diagnostics:\n%s"
          src1;
      let f0 = funs_of p0 and f1 = funs_of p1 in
      let dup l =
        let names = List.map fst l in
        List.length (List.sort_uniq String.compare names)
        <> List.length names
      in
      (* skip the isolation check when the non-function scaffolding
         (structs, typedefs, globals) changed, or names got duplicated:
         every function is potentially affected then *)
      if nonfuns_of p0 <> nonfuns_of p1 || dup f0 || dup f1 then true
      else begin
        let r0 = Support.run_source ~mode:Analysis.Mono src0 in
        let prog0 = Cprog.build p0.Cparse.pr_prog in
        let prog1 = Cprog.build p1.Cparse.pr_prog in
        let changed =
          List.filter_map
            (fun (n, f) ->
              match List.assoc_opt n f1 with
              | Some f' when f' = f -> None
              | _ -> Some n)
            f0
          @ List.filter_map
              (fun (n, _) -> if List.mem_assoc n f0 then None else Some n)
              f1
          @ degraded_of r0 @ degraded_of r1
        in
        let names =
          List.sort_uniq String.compare (List.map fst f0 @ List.map fst f1)
        in
        let nodes =
          (pseudo, globals_vocab prog0 (nonfuns_of p0))
          :: List.map
               (fun n ->
                 let v0 =
                   Option.map (fun_vocab prog0) (List.assoc_opt n f0)
                 in
                 let v1 =
                   Option.map (fun_vocab prog1) (List.assoc_opt n f1)
                 in
                 let join a b =
                   match (a, b) with
                   | Some x, Some y -> SS.union x y
                   | Some x, None | None, Some x -> x
                   | None, None -> SS.empty
                 in
                 (n, join v0 v1))
               names
        in
        let affected = closure nodes changed in
        List.iter
          (fun (n, _) ->
            if
              (not (SS.mem n affected))
              && List.mem_assoc n f1
              && verdicts_of r0 n <> verdicts_of r1 n
            then
              QCheck2.Test.fail_reportf
                "verdicts of untouched %s changed after mutation \
                 (kind=%d a=%d b=%d):\n%s"
                n kind a b src1)
          f0;
        true
      end)

(* ------------------------------------------------------------------ *)

let tests =
  [
    Alcotest.test_case "recovery: three errors" `Quick
      test_recovery_three_errors;
    Alcotest.test_case "recovery: demoted body isolates caller" `Quick
      test_body_demotion_isolates_caller;
    Alcotest.test_case "recovery: lexer bad char" `Quick test_lex_recovery;
    Alcotest.test_case "recovery: unterminated comment" `Quick
      test_unterminated_comment;
    Alcotest.test_case "recovery: unterminated string" `Quick
      test_unterminated_string;
    Alcotest.test_case "recovery: --max-errors cap" `Quick test_max_errors_cap;
    Alcotest.test_case "recovery: oversized int literal (E0104)" `Quick
      test_int_literal_overflow;
    Alcotest.test_case "recovery: E0104 through cqualc" `Quick
      test_int_literal_overflow_cqualc;
    Alcotest.test_case "recovery: E0104 through a daemon update" `Quick
      test_int_literal_overflow_daemon;
    Alcotest.test_case "cqualc: --cache is an unknown option" `Quick
      test_cqualc_rejects_cache;
    Alcotest.test_case "qualc: an unreadable FILE or --lattice path" `Quick
      test_qualc_unreadable_path;
    Alcotest.test_case "recovery: newlines inside literals" `Quick
      test_newlines_in_literals;
    Alcotest.test_case "degrade: unknown typedef" `Quick
      test_unknown_typedef_degrades;
    Alcotest.test_case "degrade: faulting function isolated, every mode"
      `Quick test_faulting_function_isolated;
    Alcotest.test_case "degrade: redefinition with another arity" `Quick
      test_redefinition_arity;
    Alcotest.test_case "budget: worklist pops" `Quick test_budget_pops;
    Alcotest.test_case "budget: variable cap" `Quick test_budget_vars;
    Alcotest.test_case "budget: deadline" `Quick test_budget_deadline;
    Alcotest.test_case "budget: whatif refuses a tripped store" `Quick
      test_budget_whatif_refused;
    Alcotest.test_case "budget: untripped stays precise" `Quick
      test_budget_untripped_is_clean;
    Alcotest.test_case "budget: exhaustion mid-run degrades gracefully" `Slow
      test_budget_mid_run;
    QCheck_alcotest.to_alcotest prop_fault_injection;
  ]
