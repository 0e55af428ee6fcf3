(** Flat token buffer: what the lexer ({!Clexer.tokenize_buf}) hands the
    parser.

    A [Tokbuf.t] holds one pointer array of tokens (identifiers interned,
    so each distinct name owns a single boxed [IDENT]) and one flat
    [int array] of packed span components, two per token. There is no
    cons cell, tuple or span record per token; spans are rebuilt lazily,
    only on the error paths that actually report them.

    The intern table doubles as the unit's identifier set: from
    {!ident_names} the link step of the per-unit frontend decides whether
    a speculatively parsed unit could have been influenced by typedef or
    enum-constant names exported by earlier units (see DESIGN.md
    "Per-unit frontend"). *)

(** Open-addressing table from a name's bytes to its unique token. The
    lexer probes it with a slice of the source (offset and length), so a
    name is copied out of the source only the first time it appears. *)
type interns = {
  mutable names : string array;  (** [""] marks a free slot *)
  mutable itoks : Ctoken.t array;
  mutable count : int;
}

type t = {
  toks : Ctoken.t array;  (** [n] tokens; the last is always [EOF] *)
  spans : int array;
      (** 2 ints per token: start and end position, each {!pack}ed *)
  n : int;
  interns : interns;
      (** name -> its unique token: keywords map to their [KW_*], every
          identifier seen in this unit maps to its shared [IDENT] *)
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

let create_interns size =
  { names = Array.make size ""; itoks = Array.make size Ctoken.EOF; count = 0 }

let rec add tbl name tok =
  let i = find_slot tbl name 0 (String.length name) in
  tbl.names.(i) <- name;
  tbl.itoks.(i) <- tok;
  tbl.count <- tbl.count + 1;
  if 2 * tbl.count > Array.length tbl.names then begin
    let names = tbl.names and itoks = tbl.itoks in
    let size = 2 * Array.length names in
    tbl.names <- Array.make size "";
    tbl.itoks <- Array.make size Ctoken.EOF;
    tbl.count <- 0;
    Array.iteri (fun j k -> if k <> "" then add tbl k itoks.(j)) names
  end

(** The unique token of the name [s.[off .. off+len-1]]: its keyword, or
    its [IDENT], made and added on first sight. *)
let intern tbl s off len =
  let i = find_slot tbl s off len in
  if String.length tbl.names.(i) > 0 then tbl.itoks.(i)
  else begin
    let name = String.sub s off len in
    let tok = Ctoken.IDENT name in
    add tbl name tok;
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

(** Did this unit's source mention [name] as an identifier? Keywords map
    to keyword tokens, so they never answer [true]. *)
let mentions t name =
  let tbl = t.interns in
  match tbl.itoks.(find_slot tbl name 0 (String.length name)) with
  | Ctoken.IDENT _ -> true
  | _ -> false

(** Distinct identifier names lexed from the unit, in no particular
    order — the persistent form of {!mentions} carried by the per-unit
    AST cache payload (the intern table itself is not marshaled). *)
let ident_names t =
  let tbl = t.interns in
  let acc = ref [] in
  Array.iteri
    (fun i tok ->
      match tok with Ctoken.IDENT _ -> acc := tbl.names.(i) :: !acc | _ -> ())
    tbl.itoks;
  !acc
