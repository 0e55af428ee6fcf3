(** Flat token buffer: what the lexer ({!Clexer.tokenize_buf}) hands the
    parser.

    A [Tokbuf.t] holds one pointer array of tokens (identifiers interned,
    so each distinct name owns a single boxed [IDENT]) and one flat
    [int array] of packed span components, two per token. There is no
    cons cell, tuple or span record per token; spans are rebuilt lazily,
    only on the error paths that actually report them.

    The intern table doubles as the unit's identifier set: from
    {!idents} the link step of the per-unit frontend decides whether
    a speculatively parsed unit could have been influenced by typedef or
    enum-constant names exported by earlier units (see DESIGN.md
    "Per-unit frontend"). It also counts how often each name was lexed,
    so a spliced re-parse ({!Cparse.reparse_unit}) can keep the set up to
    date from the changed text alone (when the lexer was asked to record
    what a splice needs).

    A buffer can also record where each line it lexed starts, and
    whether the line break before it lies outside any comment or
    literal: the parser cuts a unit into reusable groups of declarations
    only at such clean breaks. *)

(** Open-addressing table from a name's bytes to its unique token. The
    lexer probes it with a slice of the source (offset and length), so a
    name is copied out of the source only the first time it appears. *)
type interns = {
  mutable names : string array;  (** [""] marks a free slot *)
  mutable itoks : Ctoken.t array;
  mutable uses : int array;
      (** times the slot's name was lexed; empty when uses are not
          counted *)
  mutable count : int;
}

type t = {
  src : string;  (** the source lexed *)
  stop : int;  (** just past the last byte lexed *)
  toks : Ctoken.t array;  (** [n] tokens; the last is always [EOF] *)
  spans : int array;
      (** 2 ints per token: start and end position, each {!pack}ed *)
  n : int;
  interns : interns;
      (** name -> its unique token: keywords map to their [KW_*], every
          identifier seen in this unit maps to its shared [IDENT] *)
  line0 : int;  (** the line lexing started on *)
  lines : int array;
      (** empty unless the lexer was asked to record lines; then entry
          [k] is for line [line0 + k]: twice the offset where it starts,
          plus one when the line break before it was crossed outside any
          comment or literal (always so for [line0]) *)
}

(* A position (line, column) as one int. Columns stay below 2^32. *)
let pack line col = (line lsl 32) lor col
let pline p = p lsr 32
let pcol p = p land 0xFFFF_FFFF

(* ------------------------------------------------------------------ *)
(* Intern table                                                        *)
(* ------------------------------------------------------------------ *)

let hash_sub s off len =
  let h = ref 0 in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3
  done;
  !h lxor (!h lsr 29)

let rec sub_equal k s off i len =
  i = len
  || String.unsafe_get k i = String.unsafe_get s (off + i)
     && sub_equal k s off (i + 1) len

(* The slot holding the name [s.[off .. off+len-1]], or the free slot
   where it belongs. The table is never more than half full. *)
let rec probe names mask s off len i =
  let k = Array.unsafe_get names i in
  if String.length k = 0 || (String.length k = len && sub_equal k s off 0 len)
  then i
  else probe names mask s off len ((i + 1) land mask)

let find_slot tbl s off len =
  let mask = Array.length tbl.names - 1 in
  probe tbl.names mask s off len (hash_sub s off len land mask)

let create_interns ?(count = false) size =
  {
    names = Array.make size "";
    itoks = Array.make size Ctoken.EOF;
    uses = (if count then Array.make size 0 else [||]);
    count = 0;
  }

let counts tbl = Array.length tbl.uses > 0

(* Enter [name] with its token and [uses]; the name must be absent. *)
let rec add_uses tbl name tok uses =
  let i = find_slot tbl name 0 (String.length name) in
  tbl.names.(i) <- name;
  tbl.itoks.(i) <- tok;
  if counts tbl then tbl.uses.(i) <- uses;
  tbl.count <- tbl.count + 1;
  if 2 * tbl.count > Array.length tbl.names then begin
    let names = tbl.names and itoks = tbl.itoks and old = tbl.uses in
    let size = 2 * Array.length names in
    tbl.names <- Array.make size "";
    tbl.itoks <- Array.make size Ctoken.EOF;
    if counts tbl then tbl.uses <- Array.make size 0;
    tbl.count <- 0;
    Array.iteri
      (fun j k ->
        if k <> "" then
          add_uses tbl k itoks.(j) (if counts tbl then old.(j) else 0))
      names
  end

let add tbl name tok = add_uses tbl name tok 0

(** The unique token of the name [s.[off .. off+len-1]]: its keyword, or
    its [IDENT], made and added on first sight. Counts one use when the
    table counts them. *)
let intern tbl s off len =
  let i = find_slot tbl s off len in
  if String.length tbl.names.(i) > 0 then begin
    if counts tbl then tbl.uses.(i) <- tbl.uses.(i) + 1;
    tbl.itoks.(i)
  end
  else begin
    let name = String.sub s off len in
    let tok = Ctoken.IDENT name in
    add_uses tbl name tok 1;
    tok
  end

(* ------------------------------------------------------------------ *)
(* Reading the buffer                                                  *)
(* ------------------------------------------------------------------ *)

let length t = t.n

let tok t i = t.toks.(i)

let span t i : Diag.span =
  let s = t.spans.(2 * i) and e = t.spans.((2 * i) + 1) in
  { Diag.sl = pline s; sc = pcol s; el = pline e; ec = pcol e }

let line t i = pline t.spans.(2 * i)
let col t i = pcol t.spans.(2 * i)

(** Were the lines recorded? *)
let has_lines t = Array.length t.lines > 0

(** The offset where line [l] starts; [l] is one of the lines lexed. *)
let line_start t l = t.lines.(l - t.line0) lsr 1

(** Was the line break before line [l] crossed outside any comment or
    literal? *)
let clean_break t l = t.lines.(l - t.line0) land 1 = 1

(** Did this unit's source mention [name] as an identifier? Keywords map
    to keyword tokens, so they never answer [true]. *)
let mentions t name =
  let tbl = t.interns in
  match tbl.itoks.(find_slot tbl name 0 (String.length name)) with
  | Ctoken.IDENT _ -> true
  | _ -> false

(** The distinct identifier names lexed, in no particular order, with
    how often each was lexed (empty when the lexer did not count them) —
    the identifier set the link step of the per-unit frontend reads, and
    the counts a spliced re-parse keeps it up to date with. *)
let idents t : string array * int array =
  let tbl = t.interns in
  let n = ref 0 in
  Array.iter (function Ctoken.IDENT _ -> incr n | _ -> ()) tbl.itoks;
  let names = Array.make !n "" in
  let uses = if counts tbl then Array.make !n 0 else [||] in
  let k = ref 0 in
  Array.iteri
    (fun i tok ->
      match tok with
      | Ctoken.IDENT _ ->
          names.(!k) <- tbl.names.(i);
          if counts tbl then uses.(!k) <- tbl.uses.(i);
          incr k
      | _ -> ())
    tbl.itoks;
  (names, uses)
