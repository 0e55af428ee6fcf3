(* cqualc: const inference for C programs (the tool of Section 4).

   Usage:
     cqualc file.c             monomorphic and polymorphic inference
     cqualc a.c b.c main.c     a multi-file project, analyzed whole-program
     cqualc --mode mono file.c only one mode
     cqualc --positions file.c per-position verdicts
     cqualc --bench NAME       run on an embedded/synthetic benchmark
                               (including the multi-file scale corpora)

   Exit status: 0 clean (including degraded-but-recovered analyses),
   1 on type errors (incorrect const usage), 2 on usage errors, files
   with lexer/parser diagnostics, or internal faults. Never prints a
   backtrace. *)

open Cqual

(* --budget spec: "vars=N,pops=N,ms=N" (any subset) or a bare integer,
   which bounds worklist pops. A fresh Budget.t is built per analysis run
   (trips latch, so a budget cannot be shared between the mono and poly
   passes). *)
type budget_spec = {
  bs_vars : int option;
  bs_pops : int option;
  bs_ms : int option;
}

let parse_budget_spec s =
  match int_of_string_opt (String.trim s) with
  | Some n when n > 0 -> Ok { bs_vars = None; bs_pops = Some n; bs_ms = None }
  | Some _ -> Error "budget must be positive"
  | None ->
      List.fold_left
        (fun acc part ->
          match acc with
          | Error _ -> acc
          | Ok spec -> (
              match String.index_opt part '=' with
              | None ->
                  Error
                    (Printf.sprintf
                       "bad budget item %S (want vars=N, pops=N or ms=N)"
                       part)
              | Some i ->
                  let k = String.trim (String.sub part 0 i) in
                  let v =
                    String.sub part (i + 1) (String.length part - i - 1)
                  in
                  (match (k, int_of_string_opt (String.trim v)) with
                  | "vars", Some n when n > 0 ->
                      Ok { spec with bs_vars = Some n }
                  | "pops", Some n when n > 0 ->
                      Ok { spec with bs_pops = Some n }
                  | "ms", Some n when n > 0 -> Ok { spec with bs_ms = Some n }
                  | ("vars" | "pops" | "ms"), _ ->
                      Error
                        (Printf.sprintf "budget %s wants a positive integer" k)
                  | _ ->
                      Error
                        (Printf.sprintf
                           "unknown budget key %S (want vars, pops or ms)" k))))
        (Ok { bs_vars = None; bs_pops = None; bs_ms = None })
        (String.split_on_char ',' s)

let budget_of_spec s =
  Typequal.Budget.create ?max_vars:s.bs_vars ?max_pops:s.bs_pops
    ?deadline_s:(Option.map (fun ms -> float_of_int ms /. 1000.) s.bs_ms)
    ~clock:Unix.gettimeofday ()

(* a thin Session client: one session per mode, used once, its run
   rendered by the session's renderer, which produces the whole stdout
   block. The budget is created here, before the parse, so an ms=
   deadline covers the whole run of that mode. *)
let run_one ~rules ~positions ~stats ~budget ~max_errors ~compact
    ~cache ~print_diags mode name units =
  let r =
    Session.run_sources ~mode ~rules
      ?budget:(Option.map budget_of_spec budget)
      ~compact ~max_errors ?cache units
  in
  (* diagnostics are a property of the source, not the mode: print them
     once even when both modes run *)
  if print_diags then
    List.iter (fun d -> Fmt.epr "%a@." Cfront.Diag.pp d) r.Session.diagnostics;
  Fmt.pr "%s" (Session.render_run ~stats ~positions ~name mode r);
  r

let run_flow ~max_errors name units insensitive =
  match
    Flow.analyze_units
      ~mode:(if insensitive then Flow.Insensitive else Flow.Sensitive)
      ~max_errors units
  with
  | Error diags ->
      List.iter (fun d -> Fmt.epr "%a@." Cfront.Diag.pp d) diags;
      2
  | Ok r ->
      Fmt.pr "=== %s (flow-%s taint) ===@." name
        (if insensitive then "insensitive" else "sensitive");
      List.iter
        (fun fr ->
          if fr.Flow.fr_fell_back then
            Fmt.pr "note: %s uses goto; analyzed flow-insensitively@."
              fr.Flow.fr_name)
        r.Flow.functions;
      if r.Flow.errors = [] then begin
        Fmt.pr "no taint violations@.";
        0
      end
      else begin
        List.iter (fun e -> Fmt.pr "VIOLATION: %s@." e) r.Flow.errors;
        1
      end

let main files bench mode positions taint flow insensitive stats budget _jobs
    max_errors no_compact lattice qual dump_lattice cache_dir =
  let rules =
    match lattice with
    | Some path -> (
        (* --lattice FILE: the measured qualifier defaults to the first
           one declared; --qual overrides *)
        match Analysis.lattice_rules_of_file ?qual path with
        | Ok rules -> rules
        | Error m ->
            Fmt.epr "%s@." m;
            exit 2)
    | None -> if taint then Analysis.taint_rules else Analysis.const_rules
  in
  if dump_lattice then begin
    Fmt.pr "%a" Typequal.Lattice.Space.pp_dump rules.Analysis.qr_space;
    exit 0
  end;
  let name, units =
    match (files, bench) with
    | _ :: _, _ ->
        (* each file is a translation unit: whole-program analysis,
           linked in command-line order *)
        ( String.concat "+" files,
          List.map
            (fun f -> (f, In_channel.with_open_bin f In_channel.input_all))
            files )
    | [], Some b -> (
        match Cbench.Suite.units_of_name b with
        | Some units -> (b, units)
        | None ->
            Fmt.epr
              "unknown benchmark %s; embedded: %a, miniproject; synthetic: \
               %a@."
              b
              Fmt.(list ~sep:comma string)
              (List.map fst Cbench.Programs.all)
              Fmt.(list ~sep:comma string)
              (List.map
                 (fun (x : Cbench.Suite.bench) -> x.b_name)
                 (Cbench.Suite.table1 @ Cbench.Suite.scale
                @ Cbench.Suite.scale_smoke));
            exit 2)
    | [], None ->
        Fmt.epr "need a FILE or --bench NAME@.";
        exit 2
  in
  if flow then run_flow ~max_errors name units insensitive
  else
    (* the rule-set identity the driver's fingerprints cannot derive:
       which analysis flavour and (for --lattice) which config built it.
       Any cache fault warns once on stderr and the run continues cold —
       cache trouble never changes the exit contract. *)
    let cache =
      match cache_dir with
      | None -> None
      | Some dir ->
          let opts_id =
            String.concat ":"
              [
                (match lattice with
                | Some path ->
                    "lattice=" ^ Digest.to_hex (Digest.file path)
                | None -> if taint then "taint" else "const");
                (match qual with Some q -> q | None -> "-");
              ]
          in
          Session.open_cache
            ~warn:(fun m -> Fmt.epr "warning: %s@." m)
            ~rules ~opts_id dir
    in
    let run_one =
      run_one ~rules ~positions ~stats ~budget ~max_errors
        ~compact:(not no_compact) ~cache
    in
    match
      let runs =
        match mode with
        | Some m -> [ run_one ~print_diags:true m name units ]
        | None ->
            let r1 = run_one ~print_diags:true Analysis.Mono name units in
            let r2 = run_one ~print_diags:false Analysis.Poly name units in
            [ r1; r2 ]
      in
      (match cache with
      | Some cs when stats ->
          Fmt.pr "cache: %a@." Typequal.Cache.pp_stats
            (Typequal.Cache.stats cs.Session.cs_cache)
      | _ -> ());
      let type_errors =
        List.fold_left
          (fun n r -> n + r.Session.results.Report.type_errors)
          0 runs
      in
      let bad_source =
        List.exists
          (fun r -> List.exists Cfront.Diag.is_error r.Session.diagnostics)
          runs
      in
      (type_errors, bad_source)
    with
    | _, true -> 2 (* the source did not fully parse *)
    | 0, false -> 0
    | _, false -> 1
    | exception Session.Error m ->
        Fmt.epr "error: %s@." m;
        2

open Cmdliner

let files =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"FILE"
        ~doc:
          "C source file(s); several files are analyzed together as one \
           program (each translation unit parsed on its own, then linked \
           for whole-program analysis)")

let bench =
  Arg.(
    value
    & opt (some string) None
    & info [ "bench" ] ~docv:"NAME" ~doc:"Analyze an embedded or synthetic benchmark")

let mode =
  let mode_conv =
    Arg.enum
      [
        ("mono", Analysis.Mono);
        ("poly", Analysis.Poly);
        ("polyrec", Analysis.Polyrec);
      ]
  in
  Arg.(
    value
    & opt (some mode_conv) None
    & info [ "mode" ] ~docv:"MODE" ~doc:"Run only one inference mode (mono|poly|polyrec)")

let positions =
  Arg.(value & flag & info [ "positions" ] ~doc:"Print every interesting position's verdict")

let taint =
  Arg.(
    value & flag
    & info [ "taint" ]
        ~doc:"Run the taint rules instead of const (\\$tainted/\\$untainted prototypes)")

let flow =
  Arg.(
    value & flag
    & info [ "flow" ]
        ~doc:"Run the flow-sensitive scalar taint analysis (Section 6 extension)")

let insensitive =
  Arg.(
    value & flag
    & info [ "insensitive" ]
        ~doc:"With --flow: use the flow-insensitive baseline")

let stats =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Print constraint-solver statistics (edges, edge dedup, \
              worklist pops)")

let budget =
  let budget_conv =
    Arg.conv
      ( (fun s ->
          match parse_budget_spec s with
          | Ok x -> Ok x
          | Error m -> Error (`Msg m)),
        fun ppf s ->
          let item k = function
            | Some n -> [ Printf.sprintf "%s=%d" k n ]
            | None -> []
          in
          Fmt.string ppf
            (String.concat ","
               (item "vars" s.bs_vars @ item "pops" s.bs_pops
              @ item "ms" s.bs_ms)) )
  in
  Arg.(
    value
    & opt (some budget_conv) None
    & info [ "budget" ] ~docv:"SPEC"
        ~doc:
          "Bound the analysis: $(b,vars=N) caps qualifier variables, \
           $(b,pops=N) caps solver worklist steps, $(b,ms=N) is a \
           wall-clock deadline; combine with commas. A bare integer means \
           $(b,pops=N). When the budget trips, the run still exits 0 but \
           every function is reported degraded and every position \
           could-be-either.")

(* accepted and ignored because gatebench passes it; a later benchmark
   revision drops it *)
let jobs =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Accepted for compatibility and ignored: the analysis is serial.")

let max_errors =
  Arg.(
    value & opt int 20
    & info [ "max-errors" ] ~docv:"N"
        ~doc:"Stop collecting lexer/parser diagnostics after $(docv)")

let no_compact =
  Arg.(
    value & flag
    & info [ "no-compact" ]
        ~doc:
          "Disable scheme compaction and instantiation memoization \
           (the ablation baseline). Reports are identical either way; \
           only constraint-system size and speed differ.")

let lattice =
  Arg.(
    value
    & opt (some string) None
    & info [ "lattice" ] ~docv:"FILE"
        ~doc:
          "Load a user-defined qualifier lattice from a CQual-style config \
           file and analyze with its generic declaration rules ($(b,\\$level) \
           on a declaration pins that pointer level; see the README for the \
           file format). The measured qualifier defaults to the first one \
           declared; override with $(b,--qual).")

let qual =
  Arg.(
    value
    & opt (some string) None
    & info [ "qual" ] ~docv:"NAME"
        ~doc:"With $(b,--lattice): the qualifier whose verdicts the report \
              counts")

let dump_lattice =
  Arg.(
    value & flag
    & info [ "dump-lattice" ]
        ~doc:
          "Print the active qualifier space (qualifiers, levels, order, bit \
           layout) and exit — for debugging custom lattice files")

let cache_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~doc:
          "Persist each run's report under $(docv), one entry per option \
           set and file list (an edited file's run replaces it), keyed by \
           the options and every file's name and content, and reuse an \
           entry whose full verification chain — format, version, \
           lattice, content hash, \
           payload checksum — still holds. Anything else is recomputed \
           cold, so reports are \
           byte-identical with or without a cache. Safe under concurrent \
           invocations; cache I/O trouble warns once and the run continues \
           uncached. See $(b,--stats) for hit/miss/reject counts.")

let cmd =
  let doc = "const inference for C (Foster, Fähndrich, Aiken — PLDI 1999)" in
  Cmd.v
    (Cmd.info "cqualc" ~doc)
    Term.(
      const main $ files $ bench $ mode $ positions $ taint $ flow $ insensitive
      $ stats $ budget $ jobs $ max_errors $ no_compact $ lattice $ qual
      $ dump_lattice $ cache_dir)

(* Last line of defense: whatever leaks out of the pipeline, any
   exception at all, becomes a one-line message and exit 2 — users
   should never see a backtrace.
   Cmdliner's own CLI-error codes (124/125) are folded into 2 so the
   documented contract is just 0 / 1 / 2. *)
let () =
  exit
    (try
       match Cmd.eval' ~catch:false cmd with
       | (124 | 125) -> 2
       | code -> code
     with
    | Session.Error m | Cfront.Cprog.Frontend_error m ->
        Fmt.epr "error: %s@." m;
        2
    | Failure m ->
        Fmt.epr "error: %s@." m;
        2
    | Sys_error m ->
        Fmt.epr "error: %s@." m;
        2
    | e ->
        Fmt.epr "error: internal: %s@." (Printexc.to_string e);
        2)
