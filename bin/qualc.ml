(* qualc: qualifier inference/checking for the example language of the
   paper (Figure 1 + references + annotations/assertions).

   Usage:
     qualc -e 'let x = @[const] ref 1 in x := 2'
     qualc program.lam
     qualc --poly --run -e '...'

   The qualifier space defaults to const+nonzero with their rules; use
   --space to pick another predefined space. *)

open Qlambda

type spacekind = SConst | SNonzero | SBindingTime | SCn | SFig2 | STaint

let space_of = function
  | SConst -> (Rules.const_space, Rules.const_hooks)
  | SNonzero -> (Rules.nonzero_space, Rules.nonzero_hooks)
  | SBindingTime -> (Rules.binding_time_space, Rules.binding_time_hooks)
  | SCn -> (Rules.cn_space, Rules.cn_hooks)
  | SFig2 -> (Rules.fig2_space, Rules.fig2_hooks)
  | STaint -> (Rules.taint_space, Rules.taint_hooks)

let main_exn expr file poly run_it spacekind stats no_compact lattice dump_lattice =
  let space, hooks =
    match lattice with
    | Some path -> (
        (* --lattice FILE: a user-defined qualifier space. Only the
           framework rules apply (annotations/assertions resolving
           qualifier and level names against the space); predefined
           spaces keep their per-qualifier hooks. *)
        match Typequal.Lattice.Space.of_config_file path with
        | Ok (space, _) -> (space, Infer.no_hooks)
        | Error m ->
            Fmt.epr "%s@." m;
            exit 2)
    | None -> space_of spacekind
  in
  if dump_lattice then begin
    Fmt.pr "%a" Typequal.Lattice.Space.pp_dump space;
    exit 0
  end;
  let src =
    match (expr, file) with
    | Some e, _ -> e
    | None, Some f -> In_channel.with_open_bin f In_channel.input_all
    | None, None ->
        Fmt.epr "need -e EXPR or FILE@.";
        exit 2
  in
  match Parse.parse_result src with
  | Error m ->
      Fmt.epr "parse error: %s@." m;
      exit 2
  | Ok ast -> (
      match Infer.check ~hooks ~poly ~compact:(not no_compact) space ast with
      | Error msgs ->
          Fmt.pr "ill-typed:@.";
          List.iter (fun m -> Fmt.pr "  %s@." m) msgs;
          exit 1
      | Ok r ->
          Fmt.pr "type: %a@." (Qtype.pp_solved r.Infer.store) r.Infer.qtyp;
          if stats then
            Fmt.pr "solver: %a@." Typequal.Solver.pp_stats (Infer.stats r);
          if run_it then begin
            let out = Eval.run space ast in
            Fmt.pr "value: %a@." (Eval.pp_outcome space) out
          end;
          exit 0)

let main expr file poly run_it spacekind stats no_compact lattice dump_lattice =
  (* a FILE or --lattice path that cannot be read is a one-line error and
     exit 2, as in cqualc and typequald *)
  try main_exn expr file poly run_it spacekind stats no_compact lattice dump_lattice
  with Sys_error m ->
    Fmt.epr "error: %s@." m;
    exit 2

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

let cmd =
  let doc = "qualified type inference for the example language (PLDI 1999)" in
  Cmd.v (Cmd.info "qualc" ~doc)
    Term.(
      const main $ expr $ file $ poly $ run_it $ spacekind $ stats
      $ no_compact $ lattice $ dump_lattice)

(* Cmdliner's CLI-error codes (124/125) are folded into 2, the usage-error
   code of cqualc and typequald *)
let () = exit (match Cmd.eval cmd with 124 | 125 -> 2 | code -> code)
