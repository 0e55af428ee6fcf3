(* Shorthands over the one analysis API for the suites that test a single
   C source: a one-unit Session, used once, exactly as [cqualc file.c]
   runs it. *)

open Cqual

let run_source ?rules ?field_sharing ?budget ?jobs ?max_errors ~mode src =
  Session.run_sources ?rules ~mode ?field_sharing ?budget ?jobs ?max_errors
    [ ("<input>", src) ]

(* the linked program of one source, for suites that drive
   [Analysis.run] directly *)
let compile src = Session.program (Session.create [ ("<input>", src) ])

(* the recovering parse of one source on its own: the program plus every
   diagnostic, up to [max_errors] (an E0299 note marks the cutoff) *)
let parse_partial ?(max_errors = 20) src : Cfront.Cparse.presult =
  let tb, lex_diags = Cfront.Clexer.tokenize_buf ~max_errors src in
  (Cfront.Cparse.parse_unit ~max_errors tb ~lex_diags).Cfront.Cparse.ur_pr
