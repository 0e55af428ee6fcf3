(** Structured diagnostics for the C front end.

    Every lexer/parser/frontend failure is represented as a diagnostic
    carrying a severity, a stable code (grep-able and documented in
    DESIGN.md "Resilience"), a source span, and a message. The resilient
    pipeline ({!Cparse.parse_unit}, {!Cqual.Session.run})
    accumulates diagnostics instead of aborting on the first error.

    Code ranges:
    - [E01xx] lexical errors (unexpected character, unterminated
      string/comment, integer literal too large for an int);
    - [E02xx] parse errors ([E0299] is the "too many errors" note);
    - [E03xx] frontend/semantic errors (unknown typedef);
    - [W04xx] degraded-analysis warnings (budget exhaustion);
    - [N09xx] advisory notices (environment/configuration hints such as
      [--jobs] oversubscription) — never about the source text, never
      affect the exit status, and machine clients (the [typequald]
      daemon) ship them as structured values instead of raw stderr. *)

type severity = Error | Warning | Note | Notice

(** A half-open region of source text. Lines and columns are 1-based;
    [ec] is the column of the last character (inclusive). A span whose
    columns are 0 carries line precision only. *)
type span = { sl : int; sc : int; el : int; ec : int }

type t = {
  d_severity : severity;
  d_code : string;
  d_span : span;
  d_message : string;
  d_unit : string option;
      (** translation unit the span is local to; [None] for single-unit
          runs, where positions need no file prefix *)
}

let span_of_line l = { sl = l; sc = 0; el = l; ec = 0 }
let dummy_span = span_of_line 0

let make severity ~code span message =
  {
    d_severity = severity;
    d_code = code;
    d_span = span;
    d_message = message;
    d_unit = None;
  }

let error = make Error
let warning = make Warning
let note = make Note

(** An advisory notice bound to no source position: environment and
    configuration hints ([N09xx]). *)
let notice ~code message = make Notice ~code dummy_span message

let is_error d = d.d_severity = Error
let is_notice d = d.d_severity = Notice

(** Rebind a diagnostic to a unit-local position: multi-unit runs report
    [unit:line:col], so a parse error on line 1 of the third file says so
    instead of quoting an offset into a concatenated program. *)
let with_unit ?span unit d =
  { d with d_unit = Some unit; d_span = Option.value span ~default:d.d_span }

let pp_severity ppf = function
  | Error -> Fmt.string ppf "error"
  | Warning -> Fmt.string ppf "warning"
  | Note -> Fmt.string ppf "note"
  | Notice -> Fmt.string ppf "notice"

let pp_span ppf { sl; sc; el; ec } =
  if sc = 0 then Fmt.pf ppf "line %d" sl
  else if sl = el then
    if sc = ec then Fmt.pf ppf "%d:%d" sl sc
    else Fmt.pf ppf "%d:%d-%d" sl sc ec
  else Fmt.pf ppf "%d:%d-%d:%d" sl sc el ec

(** Uniform rendering: [error[E0201] 3:5-8: message], with a unit prefix
    ([error[E0201] mod_03.c:3:5-8: message]) when the diagnostic belongs
    to one unit of a multi-unit run. *)
let pp ppf d =
  match d.d_unit with
  | None ->
      Fmt.pf ppf "%a[%s] %a: %s" pp_severity d.d_severity d.d_code pp_span
        d.d_span d.d_message
  | Some u ->
      Fmt.pf ppf "%a[%s] %s:%a: %s" pp_severity d.d_severity d.d_code u
        pp_span d.d_span d.d_message

let to_string d = Fmt.str "%a" pp d
