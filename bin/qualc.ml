(* qualc: qualifier inference/checking for the example language of the
   paper (Figure 1 + references + annotations/assertions).

   Usage:
     qualc -e 'let x = @[const] ref 1 in x := 2'
     qualc program.lam
     qualc --poly --run -e '...'

   The qualifier space defaults to const+nonzero with their rules; use
   --space to pick another predefined space. *)

open Qlambda

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

type spacekind = SConst | SNonzero | SBindingTime | SCn | SFig2 | STaint

let space_of = function
  | SConst -> (Rules.const_space, Rules.const_hooks)
  | SNonzero -> (Rules.nonzero_space, Rules.nonzero_hooks)
  | SBindingTime -> (Rules.binding_time_space, Rules.binding_time_hooks)
  | SCn -> (Rules.cn_space, Rules.cn_hooks)
  | SFig2 -> (Rules.fig2_space, Rules.fig2_hooks)
  | STaint -> (Rules.taint_space, Rules.taint_hooks)

(* --lattice FILE: a user-defined qualifier space. Only the framework
   rules apply (annotations/assertions resolving qualifier and level names
   against the space); predefined spaces keep their per-qualifier hooks. *)
let space_of_lattice_file path =
  let src = read_file path in
  match Typequal.Qualifier.Config.parse src with
  | Error m ->
      Fmt.epr "%s: %s@." path m;
      exit 2
  | Ok quals -> (
      try Typequal.Lattice.Space.create quals
      with Typequal.Lattice.Space_error e ->
        Fmt.epr "%s: %a@." path Typequal.Lattice.pp_space_error e;
        exit 2)

let spacekind_name = function
  | SConst -> "const"
  | SNonzero -> "nonzero"
  | SBindingTime -> "binding-time"
  | SCn -> "cn"
  | SFig2 -> "fig2"
  | STaint -> "taint"

let main expr file poly run_it spacekind stats no_compact lattice dump_lattice
    cache_dir =
  let space, hooks =
    match lattice with
    | Some path -> (space_of_lattice_file path, Infer.no_hooks)
    | None -> space_of spacekind
  in
  if dump_lattice then begin
    Fmt.pr "%a" Typequal.Lattice.Space.pp_dump space;
    exit 0
  end;
  let src =
    match (expr, file) with
    | Some e, _ -> e
    | None, Some f -> read_file f
    | None, None ->
        Fmt.epr "need -e EXPR or FILE@.";
        exit 2
  in
  (* Output-level cache: the verdict is a pure function of the source, the
     qualifier space and the inference options, so the rendered report and
     exit code are cached whole under one self-checking envelope. Bypassed
     for --run and --stats, whose output (evaluation effects, timings) is
     not a pure function of the input. *)
  let cache, key =
    match cache_dir with
    | Some dir when (not run_it) && not stats ->
        let ctx =
          Digest.string
            (Fmt.str "qualc-out-1|%a|%s" Typequal.Lattice.Space.pp_dump space
               Sys.ocaml_version)
        in
        (* hooks are chosen by the space's provenance, not its contents: a
           --lattice file dumping identically to a predefined space still
           runs without its per-qualifier hooks *)
        let hooks_id =
          match lattice with
          | Some _ -> "lattice"
          | None -> spacekind_name spacekind
        in
        let key =
          Digest.string
            (String.concat "\000"
               [ hooks_id; string_of_bool poly; string_of_bool no_compact; src ])
        in
        ( Typequal.Cache.open_dir
            ~warn:(fun m -> Fmt.epr "warning: %s@." m)
            ~ctx dir,
          key )
    | _ -> (None, Digest.string "")
  in
  (match cache with
  | Some c -> (
      match Typequal.Cache.load c ~kind:"out" ~key with
      | Some payload -> (
          match (Marshal.from_string payload 0 : int * string) with
          | code, out ->
              print_string out;
              exit code
          | exception _ -> Typequal.Cache.reject_undecodable c ~kind:"out" ~key)
      | None -> ())
  | None -> ());
  let store_out code out =
    match cache with
    | Some c ->
        Typequal.Cache.store c ~kind:"out" ~key
          (Marshal.to_string (code, out) [])
    | None -> ()
  in
  match Parse.parse_result src with
  | Error m ->
      Fmt.epr "parse error: %s@." m;
      exit 2
  | Ok ast -> (
      match Infer.check ~hooks ~poly ~compact:(not no_compact) space ast with
      | Error msgs ->
          let out =
            Fmt.str "ill-typed:@."
            ^ String.concat "" (List.map (fun m -> Fmt.str "  %s@." m) msgs)
          in
          print_string out;
          store_out 1 out;
          exit 1
      | Ok r ->
          let out =
            Fmt.str "type: %a@." (Qtype.pp_solved r.Infer.store) r.Infer.qtyp
          in
          print_string out;
          store_out 0 out;
          if stats then
            Fmt.pr "solver: %a@." Typequal.Solver.pp_stats (Infer.stats r);
          if run_it then begin
            let out = Eval.run space ast in
            Fmt.pr "value: %a@." (Eval.pp_outcome space) out
          end;
          exit 0)

open Cmdliner

let expr =
  Arg.(
    value
    & opt (some string) None
    & info [ "e"; "expr" ] ~docv:"EXPR" ~doc:"Program text")

let file =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Program file")

let poly =
  Arg.(value & flag & info [ "poly" ] ~doc:"Qualifier polymorphism at lets (Section 3.2)")

let run_it = Arg.(value & flag & info [ "run" ] ~doc:"Evaluate after checking (Figure 5 semantics)")

let spacekind =
  let space_conv =
    Arg.enum
      [
        ("const", SConst);
        ("nonzero", SNonzero);
        ("binding-time", SBindingTime);
        ("cn", SCn);
        ("fig2", SFig2);
        ("taint", STaint);
      ]
  in
  Arg.(
    value & opt space_conv SCn
    & info [ "space" ] ~docv:"SPACE"
        ~doc:"Qualifier space: const, nonzero, binding-time, cn (const+nonzero), fig2, taint")

let stats =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Print constraint-solver statistics after checking")

let no_compact =
  Arg.(
    value & flag
    & info [ "no-compact" ]
        ~doc:"Disable scheme compaction at let-generalization (ablation)")

let lattice =
  Arg.(
    value
    & opt (some string) None
    & info [ "lattice" ] ~docv:"FILE"
        ~doc:
          "Load a user-defined qualifier lattice from a CQual-style config \
           file (see the README for the format) instead of a predefined \
           $(b,--space). Annotations and assertions may then name levels, \
           e.g. @[[tainted]] and |[[maybe_tainted]].")

let dump_lattice =
  Arg.(
    value & flag
    & info [ "dump-lattice" ]
        ~doc:
          "Print the active qualifier space (qualifiers, levels, order, bit \
           layout) and exit")

let cache_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~doc:
          "Cache the rendered verdict and exit code under $(docv), keyed by \
           the source, the qualifier space and the inference options. A \
           verified hit replays the report without re-running inference; any \
           corrupt, truncated or mismatched entry is evicted and the check \
           runs cold. Ignored with $(b,--run) or $(b,--stats), whose output \
           is not a pure function of the input.")

let cmd =
  let doc = "qualified type inference for the example language (PLDI 1999)" in
  Cmd.v (Cmd.info "qualc" ~doc)
    Term.(
      const main $ expr $ file $ poly $ run_it $ spacekind $ stats
      $ no_compact $ lattice $ dump_lattice $ cache_dir)

let () = exit (Cmd.eval cmd)
