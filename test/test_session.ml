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

let snapshot t =
  ( Session.render ~positions:true ~name:"replay" t,
    render_diags (Session.diagnostics t) )

(* cold oracle: a fresh serial session over the same sources *)
let cold_snapshot units = snapshot (Session.create ~jobs:1 units)

(* Apply [script] (a list of (unit, new-source) edits) to a warm session
   at [jobs], checking warm = cold after every step. The script must end
   with the units back at their original sources. *)
let replay ~jobs units script =
  let t = Session.create ~jobs units in
  let check step units =
    let warm_r, warm_d = snapshot t in
    let cold_r, cold_d = cold_snapshot units in
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
      check (Printf.sprintf "step %d (%s)" i name) !cur)
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

let test_replay_clean_serial () = replay ~jobs:1 clean_units (clean_script ())
let test_replay_clean_par () = replay ~jobs:4 clean_units (clean_script ())

let test_replay_broken_serial () =
  replay ~jobs:1 broken_units (broken_script ())

let test_replay_broken_par () = replay ~jobs:4 broken_units (broken_script ())

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

(* ---------------- whatif: concurrent thunks = inline ---------------- *)

let test_whatif_concurrent_matches_inline () =
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
  (* prepare serially, evaluate the thunks concurrently on the pool *)
  let thunks =
    List.map
      (fun k ->
        match Session.whatif_task t ~qual:"const" k with
        | Ok f -> f
        | Error e -> Alcotest.fail ("whatif_task failed: " ^ e))
      keys
  in
  let out = Array.make (List.length thunks) None in
  Typequal.Pool.with_pool ~jobs:4 (fun pool ->
      List.iteri
        (fun i f ->
          Typequal.Pool.submit pool (fun () -> out.(i) <- Some (f ())))
        thunks;
      Typequal.Pool.wait pool);
  List.iteri
    (fun i expect ->
      match out.(i) with
      | None -> Alcotest.fail "thunk did not run"
      | Some got ->
          Alcotest.(check bool)
            (Printf.sprintf "pooled whatif %d matches inline" i)
            true (got = expect))
    inline

(* ---------------- the oversubscription notice ---------------- *)

let test_oversubscription_notice () =
  (match Session.oversubscription_notice ~jobs:1 with
  | None -> ()
  | Some _ -> Alcotest.fail "jobs:1 must not warn");
  match Session.oversubscription_notice ~jobs:9999 with
  | None -> Alcotest.fail "jobs:9999 must warn"
  | Some d ->
      Alcotest.(check bool)
        "is a Notice" true
        (d.Cfront.Diag.d_severity = Cfront.Diag.Notice);
      Alcotest.(check string) "stable code" "N0901" d.Cfront.Diag.d_code;
      Alcotest.(check string)
        "severity renders as notice" "notice"
        (Fmt.str "%a" Cfront.Diag.pp_severity d.Cfront.Diag.d_severity);
      Alcotest.(check bool)
        "legacy message text" true
        (String.length d.Cfront.Diag.d_message > 0
        && String.sub d.Cfront.Diag.d_message 0 12 = "--jobs 9999 ")

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
  (match Wire.of_string "{\"a\":1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated object must fail");
  match Wire.of_string "1 2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing input must fail"

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

let tests =
  [
    Alcotest.test_case "replay: clean corpus, serial" `Quick
      test_replay_clean_serial;
    Alcotest.test_case "replay: clean corpus, jobs 4" `Quick
      test_replay_clean_par;
    Alcotest.test_case "replay: broken corpus, serial" `Quick
      test_replay_broken_serial;
    Alcotest.test_case "replay: broken corpus, jobs 4" `Quick
      test_replay_broken_par;
    Alcotest.test_case "unchanged update invalidates nothing" `Quick
      test_unchanged_is_noop;
    Alcotest.test_case "alternating modes stay warm" `Quick
      test_modes_stay_warm;
    Alcotest.test_case "AST memo survives an edit" `Quick
      test_memo_survives_edit;
    Alcotest.test_case "AST memo keeps only current units" `Quick
      test_memo_bounded;
    Alcotest.test_case "remove_unit keeps link order" `Quick test_remove_unit;
    Alcotest.test_case "canonical and structural keys agree" `Quick
      test_position_key_aliases;
    Alcotest.test_case "explain: Ok on known, Error on unknown" `Quick
      test_explain_contract;
    Alcotest.test_case "whatif: pooled thunks match inline" `Quick
      test_whatif_concurrent_matches_inline;
    Alcotest.test_case "oversubscription is a structured notice" `Quick
      test_oversubscription_notice;
    Alcotest.test_case "wire: roundtrip" `Quick test_wire_roundtrip;
    Alcotest.test_case "wire: unicode escapes" `Quick test_wire_unicode;
    Alcotest.test_case "wire: malformed input" `Quick test_wire_errors;
    Alcotest.test_case "wire: request/response framing" `Quick
      test_parse_request;
  ]
