(* Lexer for the mini-C language. Handles ANSI C tokens, both comment
   styles, character/string escapes, hex/octal integer literals, and the
   paper's Section 2.5 qualifier extension: identifiers prefixed with `$'
   lex as QUALNAME so user qualifiers never collide with C identifiers.
   Preprocessor lines (`#...') are skipped — benchmark inputs are assumed
   to be post-expansion, as with the paper's use of a real C front end.

   The lexer scans the source string by index, or one range of it that
   starts a line. The current line and the offset where it starts are two
   ints; every newline the scanner steps over, inside a comment, string
   or character literal too, advances them. When asked, it is also
   recorded with whether it lay outside any comment or literal (a clean
   break, where the parser may cut the unit into reusable groups). Tokens and their spans
   go straight into a {!Tokbuf.t}, and names are interned by their
   bytes, so a name's string is allocated once per unit. Each lexeme is the longest prefix any token form matches, with
   ties going to the form listed first below (as in a lex grammar).

   Lexical errors are diagnostics, never exceptions: a bad character
   (E0101) is skipped and an integer literal too large for an OCaml int
   (E0104) is dropped, and lexing goes on; an unterminated string or
   comment (E0102/E0103) exhausts the input, so the token stream ends
   there. *)

open Ctoken

let keywords =
  [
    ("void", KW_VOID); ("char", KW_CHAR); ("short", KW_SHORT);
    ("int", KW_INT); ("long", KW_LONG); ("float", KW_FLOAT);
    ("double", KW_DOUBLE); ("signed", KW_SIGNED); ("unsigned", KW_UNSIGNED);
    ("const", KW_CONST); ("volatile", KW_VOLATILE); ("struct", KW_STRUCT);
    ("union", KW_UNION); ("enum", KW_ENUM); ("typedef", KW_TYPEDEF);
    ("static", KW_STATIC); ("extern", KW_EXTERN); ("register", KW_REGISTER);
    ("auto", KW_AUTO); ("if", KW_IF); ("else", KW_ELSE);
    ("while", KW_WHILE); ("do", KW_DO); ("for", KW_FOR);
    ("return", KW_RETURN); ("break", KW_BREAK); ("continue", KW_CONTINUE);
    ("switch", KW_SWITCH); ("case", KW_CASE); ("default", KW_DEFAULT);
    ("goto", KW_GOTO); ("sizeof", KW_SIZEOF);
  ]

let unescape = function
  | 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r' | '0' -> '\000'
  | 'b' -> '\b' | '\\' -> '\\' | '\'' -> '\'' | '"' -> '"'
  | c -> c

let is_digit c = c >= '0' && c <= '9'
let is_octal c = c >= '0' && c <= '7'

let is_hex c =
  is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

type lx = {
  src : string;
  start : int;  (** first byte of the range lexed *)
  len : int;  (** just past the last byte of the range lexed *)
  mutable pos : int;  (** next byte to scan *)
  mutable line : int;  (** line of [pos], 1-based *)
  mutable bol : int;  (** offset where [line] starts *)
  line0 : int;  (** the line of [start] *)
  mutable lines : int array;
      (** as {!Tokbuf.t}'s [lines]; empty when lines are not recorded *)
  mutable toks : Ctoken.t array;
  mutable spans : int array;
  mutable n : int;
  itab : Tokbuf.interns;
  max_errors : int;
  mutable diags : Diag.t list;  (** reverse order *)
  mutable n_diags : int;
  mutable stop : bool;  (** the EOF token is in *)
}

let at lx i = if i < lx.len then String.unsafe_get lx.src i else '\000'

(* [i] is the offset just past a newline; [clean] is 1 when the newline
   lies outside any comment or literal, else 0 *)
let note_line lx i clean =
  lx.line <- lx.line + 1;
  lx.bol <- i;
  if Array.length lx.lines > 0 then begin
    let k = lx.line - lx.line0 in
    if k = Array.length lx.lines then begin
      let lines = Array.make (2 * k) 0 in
      Array.blit lx.lines 0 lines 0 k;
      lx.lines <- lines
    end;
    Array.unsafe_set lx.lines k ((i lsl 1) lor clean)
  end

(* a newline inside a comment or literal *)
let newline lx i = note_line lx i 0

(* The first index at or after [i] whose byte fails [p]. *)
let rec skip_while p s len i =
  if i < len && p (String.unsafe_get s i) then skip_while p s len (i + 1)
  else i

(* Record [t], which began at column [sc] of line [sl] and ends just
   before [lx.pos]. A token's end column is that of its last byte, but
   never left of its start column. A full buffer grows to what the
   token density so far predicts for the whole source, plus an eighth. *)
let push lx t sl sc =
  if lx.n = Array.length lx.toks then begin
    let cap =
      lx.n
      + ((lx.len - lx.pos) * lx.n / max (lx.pos - lx.start) 1)
      + (lx.n / 8) + 16
    in
    let toks = Array.make cap EOF and spans = Array.make (2 * cap) 0 in
    Array.blit lx.toks 0 toks 0 lx.n;
    Array.blit lx.spans 0 spans 0 (2 * lx.n);
    lx.toks <- toks;
    lx.spans <- spans
  end;
  let o = 2 * lx.n in
  Array.unsafe_set lx.toks lx.n t;
  Array.unsafe_set lx.spans o (Tokbuf.pack sl sc);
  Array.unsafe_set lx.spans (o + 1)
    (Tokbuf.pack lx.line (max (lx.pos - lx.bol) sc));
  lx.n <- lx.n + 1

let push_eof lx =
  push lx EOF lx.line (lx.pos - lx.bol + 1);
  lx.stop <- true

(* A diagnostic on the lexeme from column [sc] of line [sl] to just
   before [lx.pos]. Once [max_errors] are in, or when [fatal] (the input
   is exhausted), the stream ends here. *)
let error lx ~fatal ~code sl sc msg =
  let span =
    { Diag.sl; sc; el = lx.line; ec = max (lx.pos - lx.bol) sc }
  in
  lx.diags <- Diag.error ~code span msg :: lx.diags;
  lx.n_diags <- lx.n_diags + 1;
  if fatal || lx.n_diags >= lx.max_errors then push_eof lx

(* ------------------------------------------------------------------ *)
(* Literals                                                            *)
(* ------------------------------------------------------------------ *)

(* Decimal digits [s.[i .. j-1]] as an int; [None] past max_int, exactly
   where [int_of_string] fails. Up to 18 digits cannot overflow. *)
let decimal s i j =
  if j - i > 18 then int_of_string_opt (String.sub s i (j - i))
  else begin
    let v = ref 0 in
    for k = i to j - 1 do
      v := (10 * !v) + Char.code (String.unsafe_get s k) - 48
    done;
    Some !v
  end

(* The end of an exponent at [i], or [i] itself when there is none. *)
let exp_end lx i =
  match at lx i with
  | 'e' | 'E' ->
      let j = match at lx (i + 1) with '+' | '-' -> i + 2 | _ -> i + 1 in
      if is_digit (at lx j) then skip_while is_digit lx.src lx.len j else i
  | _ -> i

let is_suffix = function 'u' | 'U' | 'l' | 'L' -> true | _ -> false

(* An integer literal from [lx.pos] to [stop] with its [value], or E0104
   when it has none. *)
let int_lit lx stop value =
  let p = lx.pos in
  let sc = p - lx.bol + 1 in
  lx.pos <- stop;
  match value with
  | Some v -> push lx (INT_LIT v) lx.line sc
  | None ->
      error lx ~fatal:false ~code:"E0104" lx.line sc
        (Printf.sprintf "integer literal %s does not fit in an int"
           (String.sub lx.src p (stop - p)))

(* The longest numeric lexeme at [lx.pos], among (by priority on equal
   lengths): hex ["0x" hex+]; octal ['0' oct+]; float [digit+ '.' digit*
   exp?] or [digit+ exp]; decimal [digit+]; and suffixed decimal [digit+
   [uUlL]+], whose value is that of its digits. *)
let number lx =
  let s = lx.src and len = lx.len and p = lx.pos in
  let d = skip_while is_digit s len p in
  let hex =
    if at lx p = '0' && at lx (p + 1) = 'x' && is_hex (at lx (p + 2)) then
      skip_while is_hex s len (p + 2)
    else p
  in
  let oct =
    if at lx p = '0' && is_octal (at lx (p + 1)) then
      skip_while is_octal s len (p + 1)
    else p
  in
  let flt =
    if at lx d = '.' then exp_end lx (skip_while is_digit s len (d + 1))
    else
      let e = exp_end lx d in
      if e > d then e else p
  in
  let suffixed = skip_while is_suffix s len d in
  if hex > p && hex >= flt && hex >= suffixed then
    int_lit lx hex (int_of_string_opt (String.sub s p (hex - p)))
  else if oct > p && oct >= flt && oct >= suffixed then
    int_lit lx oct
      (int_of_string_opt ("0o" ^ String.sub s (p + 1) (oct - p - 1)))
  else if flt > p && flt >= suffixed then begin
    let sc = p - lx.bol + 1 in
    lx.pos <- flt;
    let f = float_of_string (String.sub s p (flt - p)) in
    push lx (FLOAT_LIT f) lx.line sc
  end
  else int_lit lx suffixed (decimal s p d)

(* A string literal from the quote at [lx.pos]: its contents with
   escapes resolved, or E0102 at the end of the input. A literal with no
   backslash is one substring of the source. *)
let string_lit lx =
  let s = lx.src and p = lx.pos in
  let sl = lx.line and sc = p - lx.bol + 1 in
  let escaped = ref false in
  let rec scan i =
    if i >= lx.len then i
    else
      match String.unsafe_get s i with
      | '"' -> i
      | '\n' ->
          newline lx (i + 1);
          scan (i + 1)
      | '\\' when i + 1 < lx.len ->
          escaped := true;
          if String.unsafe_get s (i + 1) = '\n' then newline lx (i + 2);
          scan (i + 2)
      | _ -> scan (i + 1)
  in
  let q = scan (p + 1) in
  if q >= lx.len then begin
    lx.pos <- lx.len;
    error lx ~fatal:true ~code:"E0102" sl sc "unterminated string"
  end
  else begin
    lx.pos <- q + 1;
    let body =
      if not !escaped then String.sub s (p + 1) (q - p - 1)
      else begin
        let b = Buffer.create (q - p) in
        let i = ref (p + 1) in
        while !i < q do
          let c = String.unsafe_get s !i in
          if c = '\\' then begin
            Buffer.add_char b (unescape (String.unsafe_get s (!i + 1)));
            i := !i + 2
          end
          else begin
            Buffer.add_char b c;
            incr i
          end
        done;
        Buffer.contents b
      end
    in
    push lx (STRING_LIT body) sl sc
  end

(* A character literal at the quote at [lx.pos]: ['\\' c '] or [c'] for
   any [c] but a backslash or a quote. Anything else makes the quote a
   bad character. *)
let char_lit lx =
  let p = lx.pos in
  let sl = lx.line and sc = p - lx.bol + 1 in
  let lit c stop =
    if at lx (stop - 2) = '\n' then newline lx (stop - 1);
    lx.pos <- stop;
    push lx (CHAR_LIT c) sl sc
  in
  match at lx (p + 1) with
  | '\\' when p + 3 < lx.len && at lx (p + 3) = '\'' ->
      lit (unescape (at lx (p + 2))) (p + 4)
  | c when c <> '\\' && c <> '\'' && p + 2 < lx.len && at lx (p + 2) = '\''
    ->
      lit c (p + 3)
  | _ ->
      lx.pos <- p + 1;
      error lx ~fatal:false ~code:"E0101" sl sc
        "unexpected character '\\''"

(* ------------------------------------------------------------------ *)
(* The scanner                                                         *)
(* ------------------------------------------------------------------ *)

(* A punctuation token of [k] bytes at [lx.pos]. *)
let punct lx k t =
  let p = lx.pos in
  lx.pos <- p + k;
  push lx t lx.line (p - lx.bol + 1)

(* Skip blanks and newlines from [i] on. *)
let rec skip_space lx i =
  if i >= lx.len then lx.pos <- i
  else
    match String.unsafe_get lx.src i with
    | ' ' | '\t' | '\r' -> skip_space lx (i + 1)
    | '\n' ->
        note_line lx (i + 1) 1;
        skip_space lx (i + 1)
    | _ -> lx.pos <- i

let not_newline c = c <> '\n'

let rec name_end s len i =
  if i < len && is_alnum (String.unsafe_get s i) then name_end s len (i + 1)
  else i

(* Scan one lexeme at [lx.pos]: skip it, record its token, or report
   it. *)
let step lx =
  let s = lx.src and p = lx.pos in
  if p >= lx.len then push_eof lx
  else
    let sc = p - lx.bol + 1 in
    let c1 = at lx (p + 1) in
    match String.unsafe_get s p with
    | ' ' | '\t' | '\r' | '\n' -> skip_space lx p
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
        let e = name_end s lx.len (p + 1) in
        lx.pos <- e;
        push lx (Tokbuf.intern lx.itab s p (e - p)) lx.line sc
    | '0' .. '9' -> number lx
    | '"' -> string_lit lx
    | '\'' -> char_lit lx
    | '$' when is_alpha c1 ->
        let e = name_end s lx.len (p + 1) in
        lx.pos <- e;
        push lx (QUALNAME (String.sub s (p + 1) (e - p - 1))) lx.line sc
    | '#' -> lx.pos <- skip_while not_newline s lx.len p
    | '/' when c1 = '/' -> lx.pos <- skip_while not_newline s lx.len p
    | '/' when c1 = '*' ->
        let sl = lx.line in
        let rec close i =
          if i >= lx.len then begin
            lx.pos <- lx.len;
            error lx ~fatal:true ~code:"E0103" sl sc "unterminated comment"
          end
          else
            match String.unsafe_get s i with
            | '*' when at lx (i + 1) = '/' -> lx.pos <- i + 2
            | '\n' ->
                newline lx (i + 1);
                close (i + 1)
            | _ -> close (i + 1)
        in
        close (p + 2)
    | '.' ->
        if c1 = '.' && at lx (p + 2) = '.' then punct lx 3 ELLIPSIS
        else punct lx 1 DOT
    | '-' -> (
        match c1 with
        | '>' -> punct lx 2 ARROW
        | '-' -> punct lx 2 MINUSMINUS
        | '=' -> punct lx 2 MINUS_ASSIGN
        | _ -> punct lx 1 MINUS)
    | '+' -> (
        match c1 with
        | '+' -> punct lx 2 PLUSPLUS
        | '=' -> punct lx 2 PLUS_ASSIGN
        | _ -> punct lx 1 PLUS)
    | '<' -> (
        match c1 with
        | '<' ->
            if at lx (p + 2) = '=' then punct lx 3 SHL_ASSIGN else punct lx 2 SHL
        | '=' -> punct lx 2 LE
        | _ -> punct lx 1 LT)
    | '>' -> (
        match c1 with
        | '>' ->
            if at lx (p + 2) = '=' then punct lx 3 SHR_ASSIGN else punct lx 2 SHR
        | '=' -> punct lx 2 GE
        | _ -> punct lx 1 GT)
    | '=' -> if c1 = '=' then punct lx 2 EQEQ else punct lx 1 ASSIGN
    | '!' -> if c1 = '=' then punct lx 2 NE else punct lx 1 BANG
    | '&' -> (
        match c1 with
        | '&' -> punct lx 2 AMPAMP
        | '=' -> punct lx 2 AMP_ASSIGN
        | _ -> punct lx 1 AMP)
    | '|' -> (
        match c1 with
        | '|' -> punct lx 2 BARBAR
        | '=' -> punct lx 2 BAR_ASSIGN
        | _ -> punct lx 1 BAR)
    | '*' -> if c1 = '=' then punct lx 2 STAR_ASSIGN else punct lx 1 STAR
    | '/' -> if c1 = '=' then punct lx 2 SLASH_ASSIGN else punct lx 1 SLASH
    | '%' ->
        if c1 = '=' then punct lx 2 PERCENT_ASSIGN else punct lx 1 PERCENT
    | '^' -> if c1 = '=' then punct lx 2 CARET_ASSIGN else punct lx 1 CARET
    | '(' -> punct lx 1 LPAREN
    | ')' -> punct lx 1 RPAREN
    | '{' -> punct lx 1 LBRACE
    | '}' -> punct lx 1 RBRACE
    | '[' -> punct lx 1 LBRACKET
    | ']' -> punct lx 1 RBRACKET
    | ';' -> punct lx 1 SEMI
    | ',' -> punct lx 1 COMMA
    | ':' -> punct lx 1 COLON
    | '?' -> punct lx 1 QUESTION
    | '~' -> punct lx 1 TILDE
    | c ->
        lx.pos <- p + 1;
        error lx ~fatal:false ~code:"E0101" lx.line sc
          (Printf.sprintf "unexpected character %C" c)

(** Tokenize one unit's source into a flat {!Tokbuf.t}, with its lexical
    diagnostics in source order. At most [max_errors] diagnostics are
    produced; the stream ends at the one that reaches the cap.

    With [start], [stop] and [line], only the bytes from [start] to just
    before [stop] are lexed, as if the source ended at [stop]; [start]
    must be the first byte of a line, and [line] is its number. Positions
    stay those of the whole source.

    With [~lines:true] the buffer also records what a parse needs to
    record its declaration boundaries for a later splice
    ({!Cparse.reparse_unit}): where each line starts and whether the
    break before it was clean ({!Tokbuf.t}'s [lines]), and how often each
    name was lexed. Otherwise [lines] is empty and no use is counted. *)
let tokenize_buf ?(max_errors = 20) ?(start = 0) ?stop ?(line = 1)
    ?(lines = false) (src : string) : Tokbuf.t * Diag.t list =
  let len = match stop with Some s -> s | None -> String.length src in
  (* C source has 0.30-0.38 tokens per byte (0.36 on average over the
     generated corpora); 9 per 16 bytes, 1.5 times the densest unit, sizes
     the buffer once for any realistic unit, and only a pathological one
     grows it, in [push]. The size also sets when the GC's cycles end
     during the analysis that follows, and with it the peak RSS of a
     daemon's set-up and of a one-file batch run: EXPERIMENTS.md "One
     allocation-lean frontend" has the sizes measured. *)
  let cap = (9 * (len - start) / 16) + 16 in
  let itab = Tokbuf.create_interns ~count:lines 256 in
  List.iter (fun (k, t) -> Tokbuf.add itab k t) keywords;
  let lx =
    {
      src;
      start;
      len;
      pos = start;
      line;
      bol = start;
      line0 = line;
      lines =
        (if not lines then [||]
         else
           (* one entry per line: C source has 19-38 bytes per line on the
              generated corpora, so a line per 16 bytes is rarely
              outgrown *)
           let a = Array.make (((len - start) / 16) + 16) 0 in
           a.(0) <- (start lsl 1) lor 1;
           a);
      toks = Array.make cap EOF;
      spans = Array.make (2 * cap) 0;
      n = 0;
      itab;
      max_errors;
      diags = [];
      n_diags = 0;
      stop = false;
    }
  in
  while not lx.stop do
    step lx
  done;
  ( {
      Tokbuf.src;
      stop = len;
      toks = lx.toks;
      spans = lx.spans;
      n = lx.n;
      interns = itab;
      line0 = line;
      lines = lx.lines;
    },
    List.rev lx.diags )
