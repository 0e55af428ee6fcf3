(* The per-unit frontend: parity with a whole-program parse of the
   concatenated units (reports, diagnostics, counters), unit-boundary
   diagnostic positions, cross-unit parser-environment threading
   (typedef / enum-constant / anonymous-tag seeds, each unit parsed
   once), the diagnostic budget crossing unit boundaries, the
   per-unit AST memo, the outcome-list construction on many-degraded
   programs, and the spliced re-parse of an edited unit. *)

open Cqual
module Diag = Cfront.Diag
module Solver = Typequal.Solver

(* everything observable from a run: {!Support.digest} plus the line
   count and the rendered diagnostics (unit prefix and all) *)
let digest (r : Session.run) : string =
  String.concat ""
    (List.map (fun d -> Diag.to_string d ^ "\n") r.Session.diagnostics)
  ^ Printf.sprintf "lines=%d\n" r.Session.lines
  ^ Support.digest r

let run ?mode ?max_errors files =
  Session.run (Session.create ?mode ?max_errors files)

(* The oracle: the same sources as one translation unit. Linking
   separately parsed units must give the program a whole-program parse
   of their concatenation gives — every verdict, outcome and solver
   counter, and the same diagnostics at the same unit-local places. *)

(* A project's translation units as one source, in order: each unit
   behind a [/* === name === */] banner line, a final newline added
   where a unit lacks one. Also returns, per unit, the line of the
   concatenation its source starts on. *)
let concat_units (files : (string * string) list) : string * (string * int) list =
  let b = Buffer.create 65536 in
  let line = ref 1 in
  let starts =
    List.map
      (fun (name, src) ->
        Buffer.add_string b (Printf.sprintf "/* === %s === */\n" name);
        let start = !line + 1 in
        Buffer.add_string b src;
        let missing_nl = src <> "" && src.[String.length src - 1] <> '\n' in
        if missing_nl then Buffer.add_char b '\n';
        line := start + Cfront.Cprog.count_lines src - (if missing_nl then 0 else 1);
        (name, start))
      files
  in
  (Buffer.contents b, starts)

(* Rebind the one-unit run's diagnostics to the units they fall in, with
   unit-local lines, in the per-unit frontend's order: unit-major, and
   within a unit lexical (E01xx) before parse diagnostics. A single
   parse lexes every unit before it parses any; the per-unit frontend
   finishes each unit before the next. The sort is stable, so each
   (unit, phase) bucket keeps its source order. *)
let localize starts (ds : Diag.t list) : (int * Diag.t) list =
  let unit_of (d : Diag.t) =
    let l = d.Diag.d_span.Diag.sl in
    let rec go i = function
      | (name, s) :: ((_, s') :: _ as rest) ->
          if l < s' then (i, name, s) else go (i + 1) rest
      | [ (name, s) ] -> (i, name, s)
      | [] -> (0, "", 1)
    in
    go 0 starts
  in
  let phase (d : Diag.t) =
    if String.length d.Diag.d_code >= 3 && String.sub d.Diag.d_code 0 3 = "E01"
    then 0
    else 1
  in
  List.stable_sort
    (fun (ia, a) (ib, b) -> compare (ia, phase a) (ib, phase b))
    (List.map
       (fun (d : Diag.t) ->
         let i, name, s = unit_of d in
         let sp = d.Diag.d_span in
         ( i,
           Diag.with_unit
             ~span:{ sp with Diag.sl = sp.Diag.sl - s + 1; el = sp.Diag.el - s + 1 }
             name d ))
       ds)

let frontend_stats (r : Session.run) =
  match r.Session.frontend with
  | Some fs -> fs
  | None -> Alcotest.fail "expected per-unit frontend stats"

(* a cold run of [files] and the number of unit parses it made: each
   unit is parsed once, in link order, under the environment the units
   before it left *)
let run_counting ?max_errors files =
  let t = Session.create ~mode:Analysis.Mono ?max_errors files in
  let r = Session.run t in
  (r, (Session.stats t).Session.ss_memo_misses)

let check_parsed_once what files =
  let r, parses = run_counting files in
  Alcotest.(check int) (what ^ ": each unit parsed once") (List.length files) parses;
  r

(* the linked units and the one-unit oracle must agree observably *)
let check_parity ?mode ?max_errors what files =
  let r = run ?mode ?max_errors files in
  let src, starts = concat_units files in
  let whole = run ?mode ?max_errors [ ("whole.c", src) ] in
  Alcotest.(check string)
    (what ^ ": linked units = one concatenated unit")
    (Support.digest whole) (Support.digest r);
  (* one unit renders without a unit prefix; the linked run names the
     unit only when there are several *)
  let render ds =
    List.map
      (fun d ->
        if List.length files > 1 then Diag.to_string d
        else Diag.to_string { d with Diag.d_unit = None })
      ds
  in
  Alcotest.(check (list string))
    (what ^ ": same diagnostics, in order, as one concatenated unit")
    (render (List.map snd (localize starts whole.Session.diagnostics)))
    (render r.Session.diagnostics);
  digest r

(* ---------------- parity on generated projects ---------------- *)

let test_parity_generated () =
  List.iter
    (fun seed ->
      let files =
        Cbench.Gen.generate_project ~seed ~target_lines:2000 ()
      in
      ignore (check_parsed_once (Printf.sprintf "seed %d" seed) files);
      List.iter
        (fun (mname, mode) ->
          ignore
            (check_parity ~mode
               (Printf.sprintf "seed %d %s" seed mname)
               files))
        [ ("mono", Analysis.Mono); ("poly", Analysis.Poly) ])
    [ 21; 22 ]

(* ---------------- unit-boundary diagnostics ---------------- *)

let test_unit_boundary_positions () =
  (* a parse error on line 1 of the third file must be reported as
     third-file line 1, not as an offset into a concatenated program *)
  let files =
    [
      ("a.c", "int f(int x) { return x; }\n");
      ("b.c", "int g(int y) { return y; }\n");
      ("c.c", "int 5broken;\nint h(int z) { return z; }\n");
    ]
  in
  let check_diags label r =
    match r.Session.diagnostics with
    | [ d ] ->
        Alcotest.(check string) (label ^ ": unit") "c.c"
          (Option.value d.Diag.d_unit ~default:"<none>");
        Alcotest.(check int) (label ^ ": line") 1 d.Diag.d_span.Diag.sl
    | ds -> Alcotest.failf "%s: expected 1 diagnostic, got %d" label
              (List.length ds)
  in
  check_diags "per-unit" (run ~mode:Analysis.Mono files);
  ignore (check_parity ~mode:Analysis.Mono "boundary diag" files)

let test_mixed_diagnostic_order () =
  (* a parse error in the first unit and lexical errors in both: the
     linked run reports unit by unit, each unit's lexical diagnostics
     before its parse diagnostics *)
  let files =
    [
      ("a.c", "int = 1;\nint f(int x) { return x @ 1; }\n");
      ("b.c", "int g(int y) { return y; }\nint h(int z) { return z ` 2; }\n");
    ]
  in
  let r = run ~mode:Analysis.Mono files in
  Alcotest.(check (list (pair string string)))
    "unit-major, lexical first"
    [
      ("a.c", "E0101");
      ("a.c", "E0201");
      ("a.c", "E0202");
      ("b.c", "E0101");
      ("b.c", "E0202");
    ]
    (List.map
       (fun d -> (Option.value d.Diag.d_unit ~default:"", d.Diag.d_code))
       (List.filter Diag.is_error r.Session.diagnostics));
  ignore (check_parity ~mode:Analysis.Mono "mixed diag order" files)

(* ---------------- cross-unit environment threading ---------------- *)

let test_typedef_threading () =
  (* unit 2 uses a typedef exported by unit 1: it is parsed once, seeded
     with that name (without it, [myint x;] reads as two declarations) *)
  let files =
    [
      ("header.c", "typedef int myint;\n");
      ("use.c", "myint global_x;\nint f(myint m) { return m; }\n");
    ]
  in
  let r = check_parsed_once "typedef threading" files in
  Alcotest.(check (list string)) "no diagnostics" []
    (List.map Diag.to_string r.Session.diagnostics);
  ignore (check_parity ~mode:Analysis.Mono "typedef threading" files)

let test_enum_threading () =
  let files =
    [
      ("header.c", "enum color { RED, GREEN = 5, BLUE };\n");
      ("use.c", "int f(void) { return GREEN + BLUE; }\n");
    ]
  in
  ignore (check_parsed_once "enum threading" files);
  ignore (check_parity ~mode:Analysis.Mono "enum threading" files)

let test_anon_tag_threading () =
  (* anonymous struct tags are numbered program-wide, as a whole-program
     parse numbers them; a later unit with its own anonymous tag is
     parsed with the running counter, so the generated tags match *)
  let files =
    [
      ("a.c", "struct { int x; } g_a;\n");
      ("b.c", "struct { int y; } g_b;\nint f(void) { return g_b.y; }\n");
    ]
  in
  ignore (check_parsed_once "anon tags" files);
  ignore (check_parity ~mode:Analysis.Mono "anon tags" files)

let test_independent_units_not_reparsed () =
  let files =
    [
      ("a.c", "int f(int x) { return x; }\n");
      ("b.c", "int g(int y) { return y; }\n");
    ]
  in
  let r = check_parsed_once "independent units" files in
  Alcotest.(check int) "two units" 2 (frontend_stats r).Session.fs_units

(* ---------------- diagnostic budget across units ---------------- *)

let bad_decls n = String.concat "" (List.init n (fun _ -> "int 5;\n"))

let test_budget_crosses_boundary () =
  (* 3 parse errors in unit 1, budget 5: unit 2's errors must keep
     counting from 3, so the cap (and its E0299 note) fires inside
     unit 2 — exactly where a whole-program parse stops *)
  let files =
    [
      ("a.c", bad_decls 3 ^ "int f(int x) { return x; }\n");
      ("b.c", bad_decls 4 ^ "int g(int y) { return y; }\n");
    ]
  in
  let d = check_parity ~mode:Analysis.Mono ~max_errors:5 "budget" files in
  let r, parses = run_counting ~max_errors:5 files in
  Alcotest.(check int) "budget: each unit parsed once" 2 parses;
  Alcotest.(check bool) "cap fired in b.c" true
    (List.exists
       (fun dg ->
         dg.Diag.d_code = "E0299" && dg.Diag.d_unit = Some "b.c")
       r.Session.diagnostics);
  Alcotest.(check bool) "digest mentions the cap" true
    (let sub = "E0299" in
     let n = String.length d and m = String.length sub in
     let rec go i = i + m <= n && (String.sub d i m = sub || go (i + 1)) in
     go 0)

let test_budget_exact_boundary () =
  (* the budget runs out exactly at the unit boundary: a whole-program
     parse gives up at the next unit's first token, so the per-unit link
     must synthesize the E0299 note there without parsing the unit *)
  let files =
    [
      ("a.c", bad_decls 2);
      ("b.c", "int g(int y) { return y; }\n");
    ]
  in
  ignore (check_parity ~mode:Analysis.Mono ~max_errors:2 "exact boundary" files);
  let r = run ~mode:Analysis.Mono ~max_errors:2 files in
  (match List.rev r.Session.diagnostics with
  | last :: _ ->
      Alcotest.(check string) "E0299 last" "E0299" last.Diag.d_code;
      Alcotest.(check string) "in b.c" "b.c"
        (Option.value last.Diag.d_unit ~default:"<none>")
  | [] -> Alcotest.fail "expected diagnostics");
  (* b.c was never parsed: g contributes no outcome *)
  Alcotest.(check bool) "g not parsed" true
    (not (List.mem_assoc "g" r.Session.results.Report.outcomes))

(* ---------------- many degraded functions (outcome construction) ----- *)

let test_many_degraded_outcomes () =
  (* thousands of demoted bodies: the outcome list must come back
     complete and in program order (and its construction must not be
     quadratic in the degraded count) *)
  let n = 2000 in
  let src =
    String.concat ""
      (List.init n (fun i ->
           Printf.sprintf "int f%04d(int *p) { return * ; }\n" i))
  in
  let r =
    run ~mode:Analysis.Mono ~max_errors:(n + 1) [ ("many.c", src) ]
  in
  let outs = r.Session.results.Report.outcomes in
  Alcotest.(check int) "all functions have outcomes" n (List.length outs);
  List.iteri
    (fun i (name, o) ->
      if name <> Printf.sprintf "f%04d" i then
        Alcotest.failf "outcome %d out of order: %s" i name;
      match o with
      | Analysis.Degraded _ -> ()
      | Analysis.Analyzed -> Alcotest.failf "%s unexpectedly analyzed" name)
    outs

(* ---------------- scratch directories ---------------- *)

(* a scratch directory, removed with its files afterwards *)
let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "typequal-test-frontend-%d-%d" (Unix.getpid ())
         (Hashtbl.hash f))
  in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  Fun.protect
    ~finally:(fun () ->
      try
        Array.iter
          (fun x -> try Sys.remove (Filename.concat dir x) with Sys_error _ -> ())
          (Sys.readdir dir);
        Sys.rmdir dir
      with Sys_error _ -> ())
    (fun () -> f dir)

(* ---------------- peak heap: linked units vs one file ---------------- *)

(* the built cqualc's stdout; it must exit 0 *)
let cqualc args =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/cqualc.exe"
  in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> Alcotest.failf "cqualc %s failed" (String.concat " " args)

(* midi-project-sim's units through cqualc, and the same units
   concatenated into one file: parsing and linking unit by unit must
   peak strictly below one whole-program parse in each mode, and every
   line outside the header and --stats lines must agree *)
let test_peak_heap_below_one_file () =
  let files = Cbench.Suite.project_of (List.hd Cbench.Suite.scale_smoke) in
  with_temp_dir (fun dir ->
      let write name src =
        let path = Filename.concat dir name in
        Out_channel.with_open_bin path (fun oc -> output_string oc src);
        path
      in
      let units = List.map (fun (name, src) -> write name src) files in
      let whole = write "whole.c" (fst (concat_units files)) in
      (* the peak from "heap N words (peak M)" on the solver: line, and
         the lines below the header *)
      let run mode inputs =
        let lines =
          String.split_on_char '\n'
            (cqualc
               ([ "--mode"; mode; "--stats"; "--positions" ]
               @ inputs))
        in
        let peak =
          List.find_map
            (fun l ->
              List.find_map
                (fun part -> Scanf.sscanf_opt part "peak %d)" Fun.id)
                (String.split_on_char '(' l))
            lines
        in
        let header l =
          List.exists
            (fun pre -> String.starts_with ~prefix:pre l)
            [ "==="; "lines:"; "solver:"; "fdg:"; "frontend:" ]
        in
        (peak, List.filter (fun l -> not (header l)) lines)
      in
      List.iter
        (fun mode ->
          let pu_peak, pu_body = run mode units
          and one_peak, one_body = run mode [ whole ] in
          match (pu_peak, one_peak) with
          | Some pu, Some one ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: per-unit peak %d words < one file's %d"
                   mode pu one)
                true (pu < one);
              Alcotest.(check (list string))
                (mode ^ ": positions agree") one_body pu_body
          | _ -> Alcotest.failf "%s: no peak heap in --stats" mode)
        [ "mono"; "poly" ])

(* ---------------- per-unit AST memo ---------------- *)

(* one session, one touched unit: the in-memory AST memo serves every
   other unit, and the verdicts stay the same *)
let test_dirty_unit_reparses_one () =
  let files = Cbench.Gen.generate_project ~seed:31 ~target_lines:1500 () in
  let nunits = List.length files in
  Alcotest.(check bool) "project has several units" true (nunits > 1);
  let t = Session.create ~mode:Analysis.Mono files in
  let memo () =
    let st = Session.stats t in
    (st.Session.ss_memo_hits, st.Session.ss_memo_misses)
  in
  let r_cold = Session.run t in
  Alcotest.(check (pair int int)) "cold: all units miss" (0, nunits) (memo ());
  let name, src = List.nth files (nunits - 1) in
  ignore (Session.update_unit t name (src ^ "/* touched */\n"));
  let r_dirty = Session.run t in
  let hits, misses = memo () in
  Alcotest.(check (pair int int)) "dirty: one unit re-parses"
    (nunits - 1, 1) (hits, misses - nunits);
  (* the touched comment changes no report content except the line
     count *)
  Alcotest.(check int) "same verdicts"
    r_cold.Session.results.Report.possible
    r_dirty.Session.results.Report.possible

(* ---------------- spliced re-parse ---------------- *)

module Cparse = Cfront.Cparse

let lex ~start ~stop ~line src =
  Cfront.Clexer.tokenize_buf ~start ~stop ~line ~lines:true src

let whole src =
  let tb, lex_diags = Cfront.Clexer.tokenize_buf ~lines:true src in
  Cparse.parse_unit tb ~lex_diags

(* every field of a unit parse the link and the report read: the globals
   (structurally), diagnostics, typedef and enum exports in order, the
   anonymous-tag count, whether it capped and the declarations parsed *)
let observed (r : Cparse.uresult) =
  ( (r.Cparse.ur_pr.Cparse.pr_prog, r.Cparse.ur_pr.Cparse.pr_diags),
    (r.Cparse.ur_typedefs, r.Cparse.ur_enums, r.Cparse.ur_anon),
    (r.Cparse.ur_capped, r.Cparse.ur_decls) )

(* One random edit of a unit's lines, named for the failure report. The
   names in [probe] are the ones [env_decl] may define later, above it:
   a splice that reused the probe without checking the environment
   would keep its old parse. *)
let probe k =
  Printf.sprintf
    "int probe%d(void) { T0 * p0; T1 * p1; struct { int a; } q; return E0 + \
     E1; } "
    k

let edit rng (lines : string array) : string * string array =
  let rint = Cbench.Rng.int rng in
  let n = Array.length lines in
  let at () = rint (max n 1) in
  (* a line that starts a top-level declaration, when there is one *)
  let top () =
    let starts =
      List.filter
        (fun i ->
          String.length lines.(i) > 0
          && match lines.(i).[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
        (List.init n Fun.id)
    in
    match starts with [] -> at () | l -> Cbench.Rng.pick_list rng l
  in
  let set i f =
    let a = Array.copy lines in
    if i < n then a.(i) <- f a.(i);
    a
  in
  let insert i l =
    Array.concat [ Array.sub lines 0 i; [| l |]; Array.sub lines i (n - i) ]
  in
  match rint 12 with
  | 0 ->
      let l =
        Cbench.Rng.pick rng
          [| ""; "/* moved */"; "// moved"; Printf.sprintf "int fresh%d(char *s) { return *s; }" (rint 100) |]
      in
      ("insert a line (moves lines)", insert (at ()) l)
  | 1 when n > 1 ->
      let i = at () in
      ("delete a line (moves lines)", Array.append (Array.sub lines 0 i) (Array.sub lines (i + 1) (n - i - 1)))
  | 2 | 3 ->
      let d =
        match rint 3 with
        | 0 -> Printf.sprintf "typedef int T%d; " (rint 2)
        | 1 -> Printf.sprintf "enum { E%d = %d }; " (rint 2) (rint 9)
        | _ -> "struct { int a; } anon; "
      in
      ("add a typedef, enum constant or anonymous struct", set (top ()) (fun l -> d ^ l))
  | 4 -> ("add a probe", set (top ()) (fun l -> probe (rint 1000) ^ l))
  | 5 ->
      let i = at () in
      ( "write through a body",
        set i (fun l ->
            match String.index_opt l '{' with
            | Some b -> String.sub l 0 (b + 1) ^ " ;" ^ String.sub l (b + 1) (String.length l - b - 1)
            | None -> l) )
  | 6 ->
      let u = if rint 2 = 0 then " /* open" else " \"open" in
      ("an unterminated comment or string", set (at ()) (fun l -> l ^ u))
  | 7 -> ("a parse error", set (at ()) (fun l -> ") " ^ l))
  | 8 when n > 2 ->
      let i = rint (n - 1) in
      let j = i + 1 + rint (min 6 (n - i - 1)) in
      let a = set i (fun l -> l ^ " /* straddle") in
      if j < n then a.(j) <- "*/ " ^ a.(j);
      ("a comment straddling lines", a)
  | 9 -> ("two declarations on one line", set (top ()) (fun l -> Printf.sprintf "int g_two%d; " (rint 100) ^ l))
  | 10 when n > 1 ->
      let i = rint (n - 1) in
      ( "join two lines (moves lines)",
        Array.concat
          [ Array.sub lines 0 i; [| lines.(i) ^ " " ^ lines.(i + 1) |]; Array.sub lines (i + 2) (n - i - 2) ] )
  | _ -> ("an edit that keeps the text", lines)

(* per kind of edit whose text parses without a diagnostic: the splices
   made, and the ones declined *)
let outcomes : (string, int * int) Hashtbl.t = Hashtbl.create 16

let tally what spliced =
  let s, d = Option.value (Hashtbl.find_opt outcomes what) ~default:(0, 0) in
  Hashtbl.replace outcomes what (if spliced then (s + 1, d) else (s, d + 1))

(* Run one random edit sequence on a generated unit. After every edit
   the spliced parse (against the last clean parse, as the session keeps
   it) must equal a whole parse of the new text. *)
let splice_agrees seed =
  let rng = Cbench.Rng.create seed in
  let src =
    Cbench.Gen.generate ~seed:(Cbench.Rng.int rng 1000) ~target_lines:(40 + Cbench.Rng.int rng 80) ()
  in
  let lines = ref (Array.of_list (String.split_on_char '\n' src)) in
  let base = ref (whole src).Cparse.ur_bounds in
  let log = ref [] in
  for _ = 1 to 12 do
    let what, l = if Cbench.Rng.int rng 8 = 0 then ("revert", Array.of_list (String.split_on_char '\n' src)) else edit rng !lines in
    lines := l;
    log := what :: !log;
    let text = String.concat "\n" (Array.to_list l) in
    let w = whole text in
    let spliced =
      match !base with
      | None -> None
      | Some b -> Cparse.reparse_unit ~lex b text
    in
    if Option.is_some !base && Option.is_some w.Cparse.ur_bounds then
      tally what (Option.is_some spliced);
    match spliced with
    | Some (s, k) ->
        if observed s <> observed w || k > w.Cparse.ur_decls then
          QCheck2.Test.fail_reportf
            "seed %d: the spliced parse differs from a whole parse after: \
             %s\n%s"
            seed
            (String.concat "; " (List.rev !log))
            text;
        base := s.Cparse.ur_bounds
    | None -> if Option.is_some w.Cparse.ur_bounds then base := w.Cparse.ur_bounds
  done;
  true

let prop_splice_equals_whole =
  QCheck2.Test.make ~count:300
    ~name:"splice: a spliced re-parse equals a whole parse"
    ~print:(Printf.sprintf "seed %d") QCheck2.Gen.int splice_agrees

(* the property is not vacuous: on fixed seeds, every edit that moves
   lines, writes through a body, puts two declarations on one line or
   keeps the text splices. The others may decline: an edit that changes
   the parser environment above most of the unit, or a revert of many
   edits (each re-parses more than half the unit). A comment that an
   unchanged group closes takes that group into the parsed region, so a
   comment straddling lines declines only on the same grounds: on these
   seeds, twice, where it comments out the header's typedefs (every
   later group is then parsed afresh). *)
let test_splice_fixed_stream () =
  Hashtbl.reset outcomes;
  for seed = 1 to 40 do
    ignore (splice_agrees seed)
  done;
  List.iter
    (fun what ->
      let s, d = Option.value (Hashtbl.find_opt outcomes what) ~default:(0, 0) in
      Alcotest.(check (pair bool int)) (what ^ ": spliced, declined") (true, 0) (s >= 10, d))
    [
      "insert a line (moves lines)";
      "delete a line (moves lines)";
      "join two lines (moves lines)";
      "write through a body";
      "two declarations on one line";
      "an edit that keeps the text";
    ];
  let s, d =
    Option.value (Hashtbl.find_opt outcomes "a comment straddling lines") ~default:(0, 0)
  in
  Alcotest.(check (pair bool int)) "a comment straddling lines: spliced, declined" (true, 2)
    (s >= 10, d)

(* one body edit: one declaration is parsed afresh, and every other
   global is physically the previous one; a comment line inserted at the
   top re-parses no declaration, and the ones it moved equal a whole
   parse's *)
let test_splice_reuses_values () =
  let src =
    "typedef char *str;\nint a(str s) { return *s; }\nint b(str s) { return a(s); }\n\
     int c(str s) { return b(s); }\n"
  in
  let r0 = whole src in
  let b0 = Option.get r0.Cparse.ur_bounds in
  let edited =
    "typedef char *str;\nint a(str s) { return *s; }\nint b(str s) { *s = 0; return a(s); }\n\
     int c(str s) { return b(s); }\n"
  in
  let r1, k = Option.get (Cparse.reparse_unit ~lex b0 edited) in
  Alcotest.(check int) "one declaration re-parsed" 1 k;
  Alcotest.(check bool) "equal to a whole parse" true (observed r1 = observed (whole edited));
  let p0 = r0.Cparse.ur_pr.Cparse.pr_prog and p1 = r1.Cparse.ur_pr.Cparse.pr_prog in
  List.iteri
    (fun i (g0, g1) ->
      Alcotest.(check bool) (Printf.sprintf "global %d kept" i) (i <> 2) (g0 == g1))
    (List.combine p0 p1);
  let moved = "/* a comment line */\n" ^ src in
  let r2, k = Option.get (Cparse.reparse_unit ~lex b0 moved) in
  Alcotest.(check int) "a moved line re-parses nothing" 0 k;
  Alcotest.(check bool) "moved: equal to a whole parse" true
    (observed r2 = observed (whole moved))

(* an edit that opens a comment which a later, unchanged group's text
   closes: that group is parsed afresh with the edited one, the groups
   the comment swallows are dropped, and the groups after it are reused.
   The comment spans ten groups, each lexed once: a region re-lexed from
   its start for every group it takes in would pass the work bound. *)
let test_splice_comment_closed_later () =
  let defs fmt n = String.concat "" (List.init n (Printf.sprintf fmt)) in
  let text a =
    a ^ "\n"
    ^ defs "int b%d(char *s) { return a(s); }\n" 10
    ^ "/* note */\nint c(char *s) { return a(s); }\n"
    ^ defs "int d%d(char *s) { return c(s); }\n" 40
  in
  let src = text "int a(char *s) { return *s; }" in
  let b0 = Option.get (whole src).Cparse.ur_bounds in
  let edited = text "int a(char *s) { return *s; } /* open" in
  match Cparse.reparse_unit ~lex b0 edited with
  | None -> Alcotest.fail "the splice declined"
  | Some (r, k) ->
      Alcotest.(check int) "a and c re-parsed, the b's commented out" 2 k;
      Alcotest.(check bool) "equal to a whole parse" true (observed r = observed (whole edited))

let tests =
  [
    Alcotest.test_case "parity on generated projects" `Quick
      test_parity_generated;
    Alcotest.test_case "unit-boundary diagnostic positions" `Quick
      test_unit_boundary_positions;
    Alcotest.test_case "diagnostics unit-major, lexical first" `Quick
      test_mixed_diagnostic_order;
    Alcotest.test_case "typedef threading forces reparse" `Quick
      test_typedef_threading;
    Alcotest.test_case "enum-constant threading forces reparse" `Quick
      test_enum_threading;
    Alcotest.test_case "anonymous-tag numbering forces reparse" `Quick
      test_anon_tag_threading;
    Alcotest.test_case "independent units are parsed once" `Quick
      test_independent_units_not_reparsed;
    Alcotest.test_case "diagnostic budget crosses unit boundary" `Quick
      test_budget_crosses_boundary;
    Alcotest.test_case "budget exhausted exactly at a boundary" `Quick
      test_budget_exact_boundary;
    Alcotest.test_case "many degraded functions: outcomes complete" `Quick
      test_many_degraded_outcomes;
    Alcotest.test_case "dirty unit re-parses exactly one unit" `Quick
      test_dirty_unit_reparses_one;
    Alcotest.test_case "per-unit peak heap below one file (cqualc)" `Slow
      test_peak_heap_below_one_file;
    QCheck_alcotest.to_alcotest prop_splice_equals_whole;
    Alcotest.test_case "splice: most edits of a fixed stream splice" `Quick
      test_splice_fixed_stream;
    Alcotest.test_case "splice: unchanged declarations are the same values"
      `Quick test_splice_reuses_values;
    Alcotest.test_case "splice: a comment a later group closes" `Quick
      test_splice_comment_closed_later;
  ]
