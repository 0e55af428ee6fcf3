(* The persistent analysis cache (Typequal.Cache + the Session whole-run
   tier): envelope verification per fault cause, the lock protocol,
   resilience on unusable directories, and the contract the fault-injection
   harness enforces — every corruption mode yields a report byte-identical
   to a cold run, with the reject counted and the bad entry evicted. *)

module Cache = Typequal.Cache
open Cqual

(* ---------------- scratch plumbing ---------------- *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "tqcache-test-%d-%d" (Unix.getpid ()) !n)
    in
    (try Sys.mkdir d 0o755 with Sys_error _ -> ());
    d

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let flip_byte path off =
  let s = Bytes.of_string (read_file path) in
  Bytes.set s off (Char.chr (Char.code (Bytes.get s off) lxor 0xff));
  write_file path (Bytes.to_string s)

let truncate_to path len = write_file path (String.sub (read_file path) 0 len)

(* ---------------- envelope verification, cause by cause ---------------- *)

let ctx = Digest.string "test-ctx"
let entry = Digest.string "entry-a"
let key = Digest.string "unit-a"
let payload = String.init 300 (fun i -> Char.chr (i mod 251))

let open_exn ?warn ?(ctx = ctx) dir =
  match Cache.open_dir ?warn ~ctx dir with
  | Some t -> t
  | None -> Alcotest.fail "open_dir refused a fresh directory"

(* store one entry, hand its file path back for corruption *)
let populate dir =
  let t = open_exn dir in
  Cache.store t ~name:entry ~key payload;
  Cache.entry_path t ~name:entry

let reject_count t cause =
  match Hashtbl.find_opt (Cache.stats t).Cache.rejects cause with
  | Some n -> n
  | None -> 0

(* reload through a fresh handle and demand a rejection with this cause,
   the entry evicted, and nothing else counted as rejected *)
let check_rejected name ?ctx cause dir =
  let t = open_exn ?ctx dir in
  (match Cache.load t ~name:entry ~key with
  | Some _ -> Alcotest.fail (name ^ ": corrupt entry was served")
  | None -> ());
  let st = Cache.stats t in
  Alcotest.(check int) (name ^ ": cause counted") 1 (reject_count t cause);
  Alcotest.(check int)
    (name ^ ": only this cause")
    1
    (Hashtbl.fold (fun _ n acc -> n + acc) st.Cache.rejects 0);
  Alcotest.(check int) (name ^ ": entry evicted") 1 st.Cache.evictions;
  Alcotest.(check (list string)) (name ^ ": file gone") [] (Cache.entry_files t)

let test_roundtrip () =
  let dir = fresh_dir () in
  let t = open_exn dir in
  Cache.store t ~name:entry ~key payload;
  Alcotest.(check (option string))
    "payload back" (Some payload)
    (Cache.load t ~name:entry ~key);
  let st = Cache.stats t in
  Alcotest.(check int) "one hit" 1 st.Cache.hits;
  Alcotest.(check bool) "bytes read" true (st.Cache.bytes_read > 0);
  Alcotest.(check bool) "bytes written" true (st.Cache.bytes_written > 0)

let test_missing_entry_is_a_miss () =
  let dir = fresh_dir () in
  let path = populate dir in
  Sys.remove path;
  let t = open_exn dir in
  Alcotest.(check (option string))
    "miss" None
    (Cache.load t ~name:entry ~key);
  let st = Cache.stats t in
  Alcotest.(check int) "counted as miss" 1 st.Cache.misses;
  Alcotest.(check int) "not a reject" 0
    (Hashtbl.fold (fun _ n acc -> n + acc) st.Cache.rejects 0)

let test_truncated_header () =
  let dir = fresh_dir () in
  let path = populate dir in
  truncate_to path (Cache.off_key + 3);
  check_rejected "truncated header" "truncated" dir

let test_truncated_payload () =
  let dir = fresh_dir () in
  let path = populate dir in
  let full = String.length (read_file path) in
  truncate_to path (full - 7);
  check_rejected "truncated payload" "truncated" dir

let test_bad_magic () =
  let dir = fresh_dir () in
  let path = populate dir in
  flip_byte path Cache.off_magic;
  check_rejected "bad magic" "bad-magic" dir

let test_bad_version () =
  let dir = fresh_dir () in
  let path = populate dir in
  flip_byte path (Cache.off_version + 1);
  check_rejected "version skew" "bad-version" dir

let test_context_mismatch () =
  (* a foreign lattice: same file, different space fingerprint *)
  let dir = fresh_dir () in
  let _ = populate dir in
  check_rejected "foreign lattice" ~ctx:(Digest.string "other-ctx")
    "lattice-mismatch" dir

let test_key_mismatch () =
  let dir = fresh_dir () in
  let path = populate dir in
  flip_byte path Cache.off_key;
  check_rejected "key mismatch" "key-mismatch" dir

let test_corrupt_payload () =
  let dir = fresh_dir () in
  let path = populate dir in
  flip_byte path (String.length (read_file path) - 1);
  check_rejected "payload bit flip" "corrupt" dir

let test_reject_undecodable () =
  let dir = fresh_dir () in
  let _ = populate dir in
  let t = open_exn dir in
  Cache.reject_undecodable t ~name:entry;
  Alcotest.(check int) "counted" 1 (reject_count t "undecodable");
  Alcotest.(check (list string)) "evicted" [] (Cache.entry_files t)

(* ---------------- lock protocol ---------------- *)

let test_lock_roundtrip () =
  let dir = fresh_dir () in
  let t = open_exn dir in
  let ran = ref false in
  Alcotest.(check bool) "lock taken" true
    (Cache.with_lock t (fun () -> ran := true));
  Alcotest.(check bool) "body ran" true !ran;
  Alcotest.(check bool) "lock released" false
    (Sys.file_exists (Filename.concat dir ".lock"))

let test_lock_held_by_live_process () =
  let dir = fresh_dir () in
  let t = open_exn dir in
  (* a live owner (ourselves): the lock must not be broken, and a store
     under contention skips rather than waits *)
  write_file (Filename.concat dir ".lock") (string_of_int (Unix.getpid ()));
  Alcotest.(check bool) "lock refused" false (Cache.with_lock t (fun () -> ()));
  Cache.store t ~name:entry ~key payload;
  let st = Cache.stats t in
  Alcotest.(check bool) "store skipped" true (st.Cache.write_skips >= 1);
  Alcotest.(check (list string)) "nothing written" [] (Cache.entry_files t);
  Sys.remove (Filename.concat dir ".lock")

let test_stale_lock_broken () =
  let dir = fresh_dir () in
  let t = open_exn dir in
  (* a pid that cannot be alive: the crashed-writer case *)
  write_file (Filename.concat dir ".lock") "99999999";
  Alcotest.(check bool) "stale lock broken" true
    (Cache.with_lock t (fun () -> ()));
  Cache.store t ~name:entry ~key payload;
  Alcotest.(check int) "store went through" 1
    (List.length (Cache.entry_files t))

(* ---------------- domain safety ---------------- *)

(* the stats counters are mutex-guarded: concurrent loads and stores from
   pool domains must not lose updates — every operation is counted exactly
   once *)
let test_concurrent_stats () =
  let dir = fresh_dir () in
  let t = open_exn dir in
  let present =
    List.init 8 (fun i -> Digest.string (Printf.sprintf "present-%d" i))
  in
  List.iter (fun k -> Cache.store t ~name:k ~key:k payload) present;
  let ndom = 4 in
  let worker d () =
    List.iter
      (fun k ->
        match Cache.load t ~name:k ~key:k with
        | Some p -> assert (p = payload)
        | None -> failwith "present entry missed")
      present;
    for i = 0 to 7 do
      ignore
        (let k = Digest.string (Printf.sprintf "absent-%d-%d" d i) in
         Cache.load t ~name:k ~key:k)
    done;
    for i = 0 to 3 do
      let k = Digest.string (Printf.sprintf "new-%d-%d" d i) in
      Cache.store t ~name:k ~key:k payload
    done
  in
  let doms = List.init ndom (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join doms;
  let st = Cache.stats t in
  Alcotest.(check int) "hits exact" (ndom * 8) st.Cache.hits;
  Alcotest.(check int) "misses exact" (ndom * 8) st.Cache.misses;
  (* every concurrent store either landed as a distinct file or was
     counted as skipped (lock contention) — none may vanish uncounted *)
  Alcotest.(check int) "stores accounted"
    (8 + (ndom * 4))
    (List.length (Cache.entry_files t) + st.Cache.write_skips)

(* ---------------- resilience: unusable cache paths ---------------- *)

let test_open_on_file_path () =
  let dir = fresh_dir () in
  let file = Filename.concat dir "plain-file" in
  write_file file "not a directory";
  let warned = ref [] in
  (match Cache.open_dir ~warn:(fun m -> warned := m :: !warned) ~ctx file with
  | Some _ -> Alcotest.fail "opened a regular file as a cache"
  | None -> ());
  Alcotest.(check bool) "warned once" true (List.length !warned = 1);
  (* the Session wrapper degrades the same way: the run proceeds cold *)
  (match Session.open_cache ~warn:(fun _ -> ()) ~opts_id:"t" file with
  | Some _ -> Alcotest.fail "Session.open_cache accepted a file"
  | None -> ());
  let r = Support.run_source ~mode:Analysis.Poly "int f(int *p) { return *p; }" in
  Alcotest.(check int) "analysis unaffected" 1 r.Session.n_functions

(* ---------------- Session tiers: cold == warm == post-corruption ------- *)

let open_cache_exn dir =
  match Session.open_cache ~opts_id:"test" dir with
  | Some cs -> cs
  | None -> Alcotest.fail "Session.open_cache refused a fresh directory"

let cache_stats (cs : Session.cache_spec) = Cache.stats cs.Session.cs_cache

(* (hits, misses) of the run entry *)
let counts cs = ((cache_stats cs).Cache.hits, (cache_stats cs).Cache.misses)

let run_entry_file (cs : Session.cache_spec) =
  match Cache.entry_files cs.Session.cs_cache with
  | [ p ] -> p
  | l -> Alcotest.fail (Printf.sprintf "expected 1 run entry, found %d" (List.length l))

let test_driver_cold_warm_corrupt () =
  let files = Cbench.Gen.generate_project ~seed:0x51 ~target_lines:2_500 () in
  let mode = Analysis.Poly in
  let base = Support.digest Session.(run (create ~mode files)) in
  let dir = fresh_dir () in
  (* cold: populates, changes nothing observable *)
  let cs = open_cache_exn dir in
  let cold = Session.(run (create ~mode ~cache:cs files)) in
  Alcotest.(check string) "cold = uncached" base (Support.digest cold);
  Alcotest.(check int) "no hits cold" 0 (cache_stats cs).Cache.hits;
  (* warm no-op: whole-run tier serves it *)
  let cs = open_cache_exn dir in
  let warm = Session.(run (create ~mode ~cache:cs files)) in
  Alcotest.(check string) "warm = cold" base (Support.digest warm);
  Alcotest.(check (pair int int)) "run-tier hit" (1, 0) (counts cs);
  (* each fault in the run entry: rejected and counted under its own
     cause, then recomputed to the cold report. The warm run before each
     fault makes sure the run entry is there. *)
  List.iter
    (fun (cause, corrupt) ->
      let cs = open_cache_exn dir in
      ignore Session.(run (create ~mode ~cache:cs files));
      corrupt (run_entry_file cs);
      let cs = open_cache_exn dir in
      let recovered = Session.(run (create ~mode ~cache:cs files)) in
      Alcotest.(check string) (cause ^ ": report = cold") base
        (Support.digest recovered);
      Alcotest.(check (list (pair string int)))
        (cause ^ ": the only reject, counted once")
        [ (cause, 1) ]
        (Hashtbl.fold (fun c n acc -> (c, n) :: acc)
           (cache_stats cs).Cache.rejects []))
    [
      ("truncated", fun p -> truncate_to p (String.length (read_file p) / 2));
      ("corrupt", fun p -> flip_byte p (String.length (read_file p) - 1));
      ("bad-magic", fun p -> flip_byte p Cache.off_magic);
      ("bad-version", fun p -> flip_byte p (Cache.off_version + 1));
    ]

(* unit identity is the per-file content hash, so renaming or editing a
   file misses the whole-run entry and gives the cold report *)
let proj rename edit =
  [
    ((if rename then "a2.c" else "a.c"), "int f(int *p) { return *p; }\n");
    ( "b.c",
      "int f(int *p);\nint g(int *q) { return f(q) + "
      ^ (if edit then "2" else "1")
      ^ "; }\n" );
    ("main.c", "int g(int *q);\nint main(void) { int x; return g(&x); }\n");
  ]

(* run [proj rename edit] over a cache already filled by the original
   project: the run entry misses and the report is the uncached one *)
let check_misses_run_entry ~rename ~edit =
  let mode = Analysis.Poly in
  let dir = fresh_dir () in
  let cs = open_cache_exn dir in
  let _ = Session.(run (create ~mode ~cache:cs (proj false false))) in
  let cs = open_cache_exn dir in
  let changed = Session.(run (create ~mode ~cache:cs (proj rename edit))) in
  Alcotest.(check (pair int int)) "the run entry missed" (0, 1) (counts cs);
  let fresh = Session.(run (create ~mode (proj rename edit))) in
  Alcotest.(check string) "report = cold"
    (Support.digest fresh) (Support.digest changed)

let test_rename_misses_run () = check_misses_run_entry ~rename:true ~edit:false
let test_edit_misses_run () = check_misses_run_entry ~rename:false ~edit:true

(* a cold cached run writes the whole-run entry and nothing else; a run
   over an edited file finds that entry under its name, rejects it on its
   key and writes its own in its place; the original files then miss *)
let test_entry_count () =
  let mode = Analysis.Poly in
  let dir = fresh_dir () in
  let run_cached files =
    let cs = open_cache_exn dir in
    (Session.(run (create ~mode ~cache:cs files)), cs)
  in
  let entries cs = List.length (Cache.entry_files cs.Session.cs_cache) in
  let _, cs = run_cached (proj false false) in
  Alcotest.(check int) "cold run: 1 entry" 1 (entries cs);
  let _, cs = run_cached (proj false true) in
  Alcotest.(check int) "edited rerun: still 1 entry" 1 (entries cs);
  Alcotest.(check int) "the stale entry rejected on its key" 1
    (reject_count cs.Session.cs_cache "key-mismatch");
  let again, cs = run_cached (proj false false) in
  Alcotest.(check (pair int int)) "the original files miss" (0, 1) (counts cs);
  Alcotest.(check string) "report = uncached"
    (Support.digest Session.(run (create ~mode (proj false false))))
    (Support.digest again)

(* ---------------- property: the 4-run identity ---------------- *)

let prop_cache_identity =
  QCheck2.Test.make ~count:6
    ~name:"cache: cold/warm/corrupt-one-entry runs byte-identical"
    (QCheck2.Gen.int_bound 10_000)
    (fun seed ->
      let files = Cbench.Gen.generate_project ~seed ~target_lines:1_200 () in
      let mode = Analysis.Poly in
      let base = Support.digest Session.(run (create ~mode files)) in
      let dir = fresh_dir () in
      let run () =
        let cs = open_cache_exn dir in
        (Support.digest Session.(run (create ~mode ~cache:cs files)), cs)
      in
      let cold, _ = run () in
      let warm, cs = run () in
      (* corrupt one entry chosen by the seed, then run again *)
      (match Cache.entry_files cs.Session.cs_cache with
      | [] -> ()
      | l ->
          let path = List.nth l (seed mod List.length l) in
          flip_byte path (String.length (read_file path) - 1));
      let recovered, _ = run () in
      cold = base && warm = base && recovered = base)

let tests =
  [
    Alcotest.test_case "envelope roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "missing entry is a miss" `Quick
      test_missing_entry_is_a_miss;
    Alcotest.test_case "truncated header rejected" `Quick test_truncated_header;
    Alcotest.test_case "truncated payload rejected" `Quick
      test_truncated_payload;
    Alcotest.test_case "bad magic rejected" `Quick test_bad_magic;
    Alcotest.test_case "version skew rejected" `Quick test_bad_version;
    Alcotest.test_case "foreign lattice rejected" `Quick test_context_mismatch;
    Alcotest.test_case "key mismatch rejected" `Quick test_key_mismatch;
    Alcotest.test_case "payload corruption rejected" `Quick
      test_corrupt_payload;
    Alcotest.test_case "undecodable payload evicted" `Quick
      test_reject_undecodable;
    Alcotest.test_case "lock roundtrip" `Quick test_lock_roundtrip;
    Alcotest.test_case "live lock respected" `Quick
      test_lock_held_by_live_process;
    Alcotest.test_case "stale lock broken" `Quick test_stale_lock_broken;
    Alcotest.test_case "concurrent domains: stats counted exactly" `Quick
      test_concurrent_stats;
    Alcotest.test_case "unusable cache path runs cold" `Quick
      test_open_on_file_path;
    Alcotest.test_case "driver: cold/warm/corrupt identity" `Slow
      test_driver_cold_warm_corrupt;
    Alcotest.test_case "a renamed file misses the run entry" `Quick
      test_rename_misses_run;
    Alcotest.test_case "a body edit misses the run entry" `Quick
      test_edit_misses_run;
    Alcotest.test_case "one entry per run: cold, then edited" `Quick
      test_entry_count;
    QCheck_alcotest.to_alcotest ~long:false prop_cache_identity;
  ]
