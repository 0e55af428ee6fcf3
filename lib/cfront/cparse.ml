(** Recursive-descent parser for the mini-C language.

    Covers the ANSI C declaration syntax the paper's const study needs:
    full declarators (pointers with per-star qualifiers, arrays, function
    pointers, parenthesized declarators), struct/union/enum definitions,
    typedefs (names tracked so casts and declarations disambiguate), the
    whole C expression grammar with correct precedence, and the usual
    statements. The parser is hand-written over the flat token buffer of
    {!Clexer.tokenize_buf}; parsing an expression allocates only its AST
    nodes. *)

open Cast

exception Parse_error of string * Diag.span

type st = {
  tb : Tokbuf.t;  (* spans are rebuilt from it only on paths that report
                     them *)
  t_toks : Ctoken.t array;  (* flat token array; last entry is EOF *)
  t_len : int;
  mutable pos : int;
  typedefs : (string, unit) Hashtbl.t;
  enum_consts : (string, int) Hashtbl.t;
  mutable anon : int;
  mutable diags : Diag.t list;  (* reverse order *)
  mutable n_diags : int;  (* List.length diags, maintained incrementally *)
  mutable degraded : (string * string) list;  (* (function, reason) *)
  mutable new_typedefs : string list;
      (* typedef names registered while parsing, newest first: the unit's
         typedef exports, replayed into the link environment *)
  mutable new_enums : (string * int) list;
      (* enum constants registered while parsing, newest first *)
  mutable last_params : (string * int) list;
      (* name tokens of the parameter list parsed most recently — set by
         [parse_params] on completion, so after a declarator like
         [int foo(int a, char *b)] it holds a's and b's name tokens. Inner
         (function-pointer) parameter lists finish before the enclosing
         one, which overwrites them; [parse_global] re-aligns by name and
         falls back to (0,0) on any mismatch. *)
}

let add_diag st d =
  st.diags <- d :: st.diags;
  st.n_diags <- st.n_diags + 1

(* [peek] is compared with [==] against constant constructors: those
   are immediates, so physical equality is token equality, without a
   call to the polymorphic compare. *)
let peek st = st.t_toks.(st.pos)
let peek2 st =
  if st.pos + 1 < st.t_len then st.t_toks.(st.pos + 1) else Ctoken.EOF

let span st : Diag.span = Tokbuf.span st.tb st.pos
let line st = Tokbuf.line st.tb st.pos

let next st =
  let t = st.t_toks.(st.pos) in
  if st.pos + 1 < st.t_len then st.pos <- st.pos + 1;
  t

let err st msg = raise (Parse_error (msg, span st))

(* The error paths below report the span of the token [next] consumed,
   at [pos]; it is built only then. *)
let fail_at st pos fmt =
  Printf.ksprintf
    (fun msg -> raise (Parse_error (msg, Tokbuf.span st.tb pos)))
    fmt

(* [t] is always a constant constructor *)
let expect st (t : Ctoken.t) =
  let pos = st.pos in
  let got = next st in
  if got != t then
    fail_at st pos "expected `%s', got `%s'" (Ctoken.to_string t)
      (Ctoken.to_string got)

let ident st =
  let pos = st.pos in
  match next st with
  | Ctoken.IDENT x -> x
  | t -> fail_at st pos "expected identifier, got `%s'" (Ctoken.to_string t)

let fresh_anon st prefix =
  st.anon <- st.anon + 1;
  Printf.sprintf "%s$%d" prefix st.anon

let is_typedef st name = Hashtbl.mem st.typedefs name

let register_typedef st name =
  Hashtbl.replace st.typedefs name ();
  st.new_typedefs <- name :: st.new_typedefs

let register_enum_const st name v =
  Hashtbl.replace st.enum_consts name v;
  st.new_enums <- (name, v) :: st.new_enums

(* Does the current token start a type (decl-specs)? *)
let starts_type st =
  match peek st with
  | Ctoken.KW_VOID | KW_CHAR | KW_SHORT | KW_INT | KW_LONG | KW_FLOAT
  | KW_DOUBLE | KW_SIGNED | KW_UNSIGNED | KW_CONST | KW_VOLATILE | KW_STRUCT
  | KW_UNION | KW_ENUM | KW_TYPEDEF | KW_STATIC | KW_EXTERN | KW_REGISTER
  | KW_AUTO | QUALNAME _ ->
      true
  | IDENT x -> is_typedef st x
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Declaration specifiers                                              *)
(* ------------------------------------------------------------------ *)

type specs = {
  base : ctype;
  s_typedef : bool;
  s_static : bool;
  s_extern : bool;
}

(* A binary operator's precedence, loosest 1 to tightest 10, and its
   operator; precedence 0 for a token that is no binary operator. The
   pairs are constants, so the lookup allocates nothing. *)
let binop_info : Ctoken.t -> int * binop = function
  | Ctoken.BARBAR -> (1, LOr)
  | AMPAMP -> (2, LAnd)
  | BAR -> (3, BOr)
  | CARET -> (4, BXor)
  | AMP -> (5, BAnd)
  | EQEQ -> (6, Eq)
  | NE -> (6, Ne)
  | LT -> (7, Lt)
  | GT -> (7, Gt)
  | LE -> (7, Le)
  | GE -> (7, Ge)
  | SHL -> (8, Shl)
  | SHR -> (8, Shr)
  | PLUS -> (9, Add)
  | MINUS -> (9, Sub)
  | STAR -> (10, Mul)
  | SLASH -> (10, Div)
  | PERCENT -> (10, Mod)
  | _ -> (0, Add)

(* the operator of a compound assignment token *)
let assign_op : Ctoken.t -> binop option = function
  | Ctoken.PLUS_ASSIGN -> Some Add
  | MINUS_ASSIGN -> Some Sub
  | STAR_ASSIGN -> Some Mul
  | SLASH_ASSIGN -> Some Div
  | PERCENT_ASSIGN -> Some Mod
  | AMP_ASSIGN -> Some BAnd
  | BAR_ASSIGN -> Some BOr
  | CARET_ASSIGN -> Some BXor
  | SHL_ASSIGN -> Some Shl
  | SHR_ASSIGN -> Some Shr
  | _ -> None

(* the name of the IDENT token at [i] *)
let name_at st i =
  match st.t_toks.(i) with Ctoken.IDENT x -> x | _ -> assert false

(* ptr_quals is reversed source order (head = last star); the first star
   in source order is the innermost pointer, so fold source order left *)
let apply_ptrs ptr_quals b =
  List.fold_left (fun t q -> TPtr (t, q)) b (List.rev ptr_quals)

(* the first suffix in source order is outermost: a[2][3] is array 2 of
   array 3 of the base *)
let apply_suffixes sfx b =
  List.fold_right
    (fun s inner ->
      match s with
      | `Arr n -> TArray (inner, n, no_quals)
      | `Fn (ps, va) -> TFun (inner, ps, va))
    sfx b

(* the base type [b] a decl-spec names, unless one is already named *)
let set_base st cur b =
  match cur with
  | None -> b
  | Some _ -> err st "two base types in declaration"

let ikind_of signed b =
  match (b, signed) with
  | `Char, Some false -> IUChar
  | `Char, _ -> IChar
  | `Short, Some false -> IUShort
  | `Short, _ -> IShort
  | `Int, Some false -> IUInt
  | `Int, _ -> IInt
  | `Long, Some false -> IULong
  | `Long, _ -> ILong
  | _ -> IInt

(* Struct/union/enum definitions encountered inside decl-specs are hoisted
   out as extra globals; the caller collects them. The state is in local
   refs no closure captures, so it lives in registers. *)
let rec parse_decl_specs st (hoist : global list ref) : specs =
  let quals = ref [] in
  let signed = ref None in
  let base = ref None in
  let long_count = ref 0 in
  let is_typedef_kw = ref false in
  let is_static = ref false in
  let is_extern = ref false in
  let continue_ = ref true in
  while !continue_ do
    (match peek st with
    | Ctoken.KW_CONST ->
        ignore (next st);
        quals := add_qual "const" !quals
    | QUALNAME q ->
        ignore (next st);
        quals := add_qual q !quals
    | KW_VOLATILE | KW_REGISTER | KW_AUTO -> ignore (next st)
    | KW_TYPEDEF ->
        ignore (next st);
        is_typedef_kw := true
    | KW_STATIC ->
        ignore (next st);
        is_static := true
    | KW_EXTERN ->
        ignore (next st);
        is_extern := true
    | KW_VOID ->
        ignore (next st);
        base := set_base st !base (Some `Void)
    | KW_CHAR ->
        ignore (next st);
        base := set_base st !base (Some `Char)
    | KW_SHORT ->
        ignore (next st);
        base := set_base st !base (Some `Short)
    | KW_INT -> (
        ignore (next st);
        match !base with
        | Some (`Short | `Long) | None ->
            if !base = None then base := Some `Int
        | Some _ -> err st "two base types in declaration")
    | KW_LONG ->
        ignore (next st);
        incr long_count;
        if !base = None || !base = Some `Int then base := Some `Long
    | KW_FLOAT ->
        ignore (next st);
        base := set_base st !base (Some `Float)
    | KW_DOUBLE ->
        ignore (next st);
        base := set_base st !base (Some `Double)
    | KW_SIGNED ->
        ignore (next st);
        signed := Some true
    | KW_UNSIGNED ->
        ignore (next st);
        signed := Some false
    | KW_STRUCT | KW_UNION ->
        let is_union = peek st == KW_UNION in
        ignore (next st);
        let tag =
          match peek st with
          | IDENT x ->
              ignore (next st);
              x
          | _ -> fresh_anon st (if is_union then "union" else "struct")
        in
        if peek st == LBRACE then begin
          let fields = parse_fields st hoist in
          hoist := GComp (tag, is_union, fields, line st) :: !hoist
        end;
        base := set_base st !base (Some (`Struct tag))
    | KW_ENUM ->
        ignore (next st);
        let tag =
          match peek st with
          | IDENT x ->
              ignore (next st);
              x
          | _ -> fresh_anon st "enum"
        in
        if peek st == LBRACE then begin
          ignore (next st);
          let items = ref [] in
          let v = ref 0 in
          let rec items_loop () =
            match peek st with
            | RBRACE -> ignore (next st)
            | IDENT x ->
                ignore (next st);
                (match peek st with
                | ASSIGN ->
                    ignore (next st);
                    (* constant expressions: integer literal, possibly
                       negated, or a previously defined enum constant *)
                    let value =
                      match next st with
                      | INT_LIT n -> n
                      | MINUS -> (
                          match next st with
                          | INT_LIT n -> -n
                          | _ -> err st "expected integer in enum")
                      | IDENT y -> (
                          match Hashtbl.find_opt st.enum_consts y with
                          | Some n -> n
                          | None -> err st "unknown enum constant")
                      | _ -> err st "expected constant in enum"
                    in
                    v := value
                | _ -> ());
                register_enum_const st x !v;
                items := (x, !v) :: !items;
                incr v;
                (match peek st with
                | COMMA -> ignore (next st)
                | _ -> ());
                items_loop ()
            | _ -> err st "bad enum body"
          in
          items_loop ();
          hoist := GEnum (tag, List.rev !items, line st) :: !hoist
        end;
        (* enums are ints for the analysis *)
        base := set_base st !base (Some `Int)
    | IDENT x when is_typedef st x && !base = None && !signed = None ->
        ignore (next st);
        base := set_base st !base (Some (`Named x))
    | _ -> continue_ := false);
    if !base <> None && not (starts_spec_continuation st) then continue_ := false
  done;
  let q = List.sort_uniq compare !quals in
  let base_t =
    match !base with
    | Some `Void -> TVoid q
    | Some ((`Char | `Short | `Int | `Long) as b) ->
        TInt (ikind_of !signed b, q)
    | Some `Float -> TFloat (FFloat, q)
    | Some `Double -> TFloat (FDouble, q)
    | Some (`Struct tag) -> TStruct (tag, q)
    | Some (`Named x) -> TNamed (x, q)
    | None ->
        if !signed <> None || !long_count > 0 then
          TInt (ikind_of !signed `Int, q)
        else TInt (IInt, q) (* implicit int, as in K&R C *)
  in
  {
    base = base_t;
    s_typedef = !is_typedef_kw;
    s_static = !is_static;
    s_extern = !is_extern;
  }

and starts_spec_continuation st =
  (* after a base type, only qualifiers/storage may continue the specs *)
  match peek st with
  | Ctoken.KW_CONST | KW_VOLATILE | QUALNAME _ | KW_TYPEDEF | KW_STATIC
  | KW_EXTERN | KW_REGISTER | KW_AUTO | KW_UNSIGNED | KW_SIGNED | KW_LONG
  | KW_INT ->
      true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Declarators                                                         *)
(* ------------------------------------------------------------------ *)

(* A parsed declarator: the index of its name token (anchoring the
   report's position keys), or -1 for an abstract declarator, plus a
   function that wraps the base type into the declared type (the standard
   inside-out construction). A plain name wraps with [Fun.id], so only a
   declarator with a pointer, a suffix or parentheses allocates one. *)
and parse_declarator st (hoist : global list ref) : int * (ctype -> ctype) =
  let ptr_quals = parse_ptrs st [] in
  (* direct declarator *)
  let name = ref (-1) and wrap_direct = ref Fun.id in
  (match peek st with
  | Ctoken.IDENT _ ->
      name := st.pos;
      ignore (next st)
  | LPAREN when is_nested_declarator st ->
      ignore (next st);
      let n, w = parse_declarator st hoist in
      expect st RPAREN;
      name := n;
      wrap_direct := w
  | _ -> () (* abstract declarator *));
  let sfx = parse_suffixes st hoist [] in
  let wrap =
    match (ptr_quals, sfx) with
    | [], [] -> !wrap_direct
    | _ ->
        let wrap_direct = !wrap_direct in
        fun base -> wrap_direct (apply_suffixes sfx (apply_ptrs ptr_quals base))
  in
  (!name, wrap)

(* pointer prefix, each star with its own qualifiers, newest first *)
and parse_ptrs st acc =
  match peek st with
  | Ctoken.STAR ->
      ignore (next st);
      parse_ptrs st (parse_ptr_quals st no_quals :: acc)
  | _ -> acc

and parse_ptr_quals st acc =
  match peek st with
  | Ctoken.KW_CONST ->
      ignore (next st);
      parse_ptr_quals st (add_qual "const" acc)
  | QUALNAME q ->
      ignore (next st);
      parse_ptr_quals st (add_qual q acc)
  | KW_VOLATILE ->
      ignore (next st);
      parse_ptr_quals st acc
  | _ -> acc

(* array and parameter-list suffixes, in source order *)
and parse_suffixes st hoist acc =
  match peek st with
  | Ctoken.LBRACKET ->
      ignore (next st);
      let n =
        match peek st with
        | INT_LIT n ->
            ignore (next st);
            Some n
        | IDENT x when Hashtbl.mem st.enum_consts x ->
            ignore (next st);
            Some (Hashtbl.find st.enum_consts x)
        | RBRACKET -> None
        | _ ->
            (* skip a constant expression we do not evaluate *)
            skip_until_bracket st;
            None
      in
      expect st RBRACKET;
      parse_suffixes st hoist (`Arr n :: acc)
  | LPAREN ->
      ignore (next st);
      let params, varargs = parse_params st hoist in
      expect st RPAREN;
      parse_suffixes st hoist (`Fn (params, varargs) :: acc)
  | _ -> List.rev acc

and skip_until_bracket st =
  let depth = ref 0 in
  let rec go () =
    match peek st with
    | Ctoken.RBRACKET when !depth = 0 -> ()
    | LBRACKET ->
        incr depth;
        ignore (next st);
        go ()
    | RBRACKET ->
        decr depth;
        ignore (next st);
        go ()
    | EOF -> err st "unterminated ["
    | _ ->
        ignore (next st);
        go ()
  in
  go ()

(* '(' just consumed-to-be: decide nested declarator vs parameter list *)
and is_nested_declarator st =
  match peek2 st with
  | Ctoken.STAR | LPAREN -> true
  | IDENT x -> not (is_typedef st x)
  | _ -> false

and parse_params st hoist : (string * ctype) list * bool =
  match peek st with
  | Ctoken.RPAREN -> finish_params st [] [] false
  | KW_VOID when peek2 st == RPAREN ->
      ignore (next st);
      finish_params st [] [] false
  | _ -> parse_param_list st hoist [] []

(* [params] and the name tokens of the named ones, newest first *)
and parse_param_list st hoist params names =
  match peek st with
  | Ctoken.ELLIPSIS ->
      ignore (next st);
      finish_params st params names true
  | _ ->
      let specs = parse_decl_specs st hoist in
      let name, wrap = parse_declarator st hoist in
      let t = wrap specs.base in
      let params, names =
        if name < 0 then
          ((Printf.sprintf "$p%d" (List.length params), t) :: params, names)
        else
          let n = name_at st name in
          ((n, t) :: params, (n, name) :: names)
      in
      if peek st == COMMA then begin
        ignore (next st);
        parse_param_list st hoist params names
      end
      else finish_params st params names false

and finish_params st params names varargs =
  st.last_params <- List.rev names;
  (List.rev params, varargs)

and parse_fields st hoist : (string * ctype) list =
  expect st LBRACE;
  let fields = ref [] in
  while peek st != RBRACE do
    let specs = parse_decl_specs st hoist in
    (* bitfields and multiple declarators *)
    let rec decls () =
      let name, wrap = parse_declarator st hoist in
      let bitfield =
        match peek st with
        | COLON ->
            (* bitfield width: skip the constant *)
            ignore (next st);
            (match next st with
            | INT_LIT _ -> ()
            | IDENT _ -> ()
            | _ -> err st "bad bitfield width");
            true
        | _ -> false
      in
      if name >= 0 then fields := (name_at st name, wrap specs.base) :: !fields
      else if not bitfield then
        (* only anonymous bitfields may omit the field name *)
        err st "struct field without a name";
      match peek st with
      | COMMA ->
          ignore (next st);
          decls ()
      | _ -> ()
    in
    decls ();
    expect st SEMI
  done;
  expect st RBRACE;
  List.rev !fields

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

and parse_type_name st hoist : ctype =
  let specs = parse_decl_specs st hoist in
  let _, wrap = parse_declarator st hoist in
  wrap specs.base

and parse_expr st hoist : expr =
  let e = parse_assign st hoist in
  match peek st with
  | Ctoken.COMMA ->
      ignore (next st);
      EComma (e, parse_expr st hoist)
  | _ -> e

and parse_assign st hoist : expr =
  let lhs = parse_cond st hoist in
  match peek st with
  | Ctoken.ASSIGN ->
      ignore (next st);
      EAssign (lhs, parse_assign st hoist)
  | t -> (
      match assign_op t with
      | Some op ->
          ignore (next st);
          EAssignOp (op, lhs, parse_assign st hoist)
      | None -> lhs)

and parse_cond st hoist : expr =
  let c = parse_binary st hoist 1 in
  match peek st with
  | Ctoken.QUESTION ->
      ignore (next st);
      let e1 = parse_expr st hoist in
      expect st COLON;
      let e2 = parse_cond st hoist in
      ECond (c, e1, e2)
  | _ -> c

(* Precedence climbing: a chain of binary operators of precedence at
   least [min_prec], left-associative within each level. *)
and parse_binary st hoist min_prec : expr =
  binary_rest st hoist min_prec (parse_cast_expr st hoist)

and binary_rest st hoist min_prec lhs : expr =
  let prec, op = binop_info (peek st) in
  if prec < min_prec (* [min_prec] is at least 1 *) then lhs
  else begin
    ignore (next st);
    let rhs = binary_rest st hoist (prec + 1) (parse_cast_expr st hoist) in
    binary_rest st hoist min_prec (EBinop (op, lhs, rhs))
  end

and parse_cast_expr st hoist : expr =
  match peek st with
  | Ctoken.LPAREN when starts_type_at st (st.pos + 1) ->
      ignore (next st);
      let t = parse_type_name st hoist in
      expect st RPAREN;
      (* (T){...} compound literals: treat as cast of init list *)
      if peek st == LBRACE then ECast (t, parse_init st hoist)
      else ECast (t, parse_cast_expr st hoist)
  | _ -> parse_unary st hoist

and starts_type_at st pos =
  if pos >= st.t_len then false
  else
    match st.t_toks.(pos) with
    | Ctoken.KW_VOID | KW_CHAR | KW_SHORT | KW_INT | KW_LONG | KW_FLOAT
    | KW_DOUBLE | KW_SIGNED | KW_UNSIGNED | KW_CONST | KW_VOLATILE
    | KW_STRUCT | KW_UNION | KW_ENUM | QUALNAME _ ->
        true
    | IDENT x -> is_typedef st x
    | _ -> false

and parse_unary st hoist : expr =
  match peek st with
  | Ctoken.PLUSPLUS ->
      ignore (next st);
      EIncDec (true, true, parse_unary st hoist)
  | MINUSMINUS ->
      ignore (next st);
      EIncDec (true, false, parse_unary st hoist)
  | AMP ->
      ignore (next st);
      EAddr (parse_cast_expr st hoist)
  | STAR ->
      ignore (next st);
      EDeref (parse_cast_expr st hoist)
  | PLUS ->
      ignore (next st);
      parse_cast_expr st hoist
  | MINUS ->
      ignore (next st);
      EUnop (Neg, parse_cast_expr st hoist)
  | BANG ->
      ignore (next st);
      EUnop (Not, parse_cast_expr st hoist)
  | TILDE ->
      ignore (next st);
      EUnop (BitNot, parse_cast_expr st hoist)
  | KW_SIZEOF ->
      ignore (next st);
      if peek st == LPAREN && starts_type_at st (st.pos + 1) then begin
        ignore (next st);
        let t = parse_type_name st hoist in
        expect st RPAREN;
        ESizeofT t
      end
      else ESizeofE (parse_unary st hoist)
  | _ -> parse_postfix st hoist

and parse_postfix st hoist : expr =
  postfix_rest st hoist (parse_primary st hoist)

and postfix_rest st hoist e : expr =
  match peek st with
  | Ctoken.LBRACKET ->
      ignore (next st);
      let i = parse_expr st hoist in
      expect st RBRACKET;
      postfix_rest st hoist (EIndex (e, i))
  | LPAREN ->
      ignore (next st);
      let args =
        if peek st == RPAREN then [] else parse_args st hoist []
      in
      expect st RPAREN;
      postfix_rest st hoist (ECall (e, args))
  | DOT ->
      ignore (next st);
      postfix_rest st hoist (EMember (e, ident st))
  | ARROW ->
      ignore (next st);
      postfix_rest st hoist (EArrow (e, ident st))
  | PLUSPLUS ->
      ignore (next st);
      postfix_rest st hoist (EIncDec (false, true, e))
  | MINUSMINUS ->
      ignore (next st);
      postfix_rest st hoist (EIncDec (false, false, e))
  | _ -> e

(* call arguments, [acc] holding those before, newest first *)
and parse_args st hoist acc : expr list =
  let a = parse_assign st hoist in
  if peek st == COMMA then begin
    ignore (next st);
    parse_args st hoist (a :: acc)
  end
  else List.rev (a :: acc)

and parse_primary st hoist : expr =
  let pos = st.pos in
  match next st with
  | Ctoken.INT_LIT n -> EInt n
  | FLOAT_LIT f -> EFloat f
  | CHAR_LIT c -> EChar c
  | STRING_LIT s -> (
      (* adjacent string literals concatenate *)
      match peek st with
      | STRING_LIT _ ->
          let buf = Buffer.create (2 * String.length s) in
          Buffer.add_string buf s;
          while
            match peek st with
            | STRING_LIT s2 ->
                ignore (next st);
                Buffer.add_string buf s2;
                true
            | _ -> false
          do
            ()
          done;
          EString (Buffer.contents buf)
      | _ -> EString s)
  | IDENT x -> (
      match Hashtbl.find_opt st.enum_consts x with
      | Some n -> EInt n
      | None -> EVar x)
  | LPAREN ->
      let e = parse_expr st hoist in
      expect st RPAREN;
      e
  | t -> fail_at st pos "unexpected token `%s'" (Ctoken.to_string t)

and parse_init st hoist : expr =
  match peek st with
  | Ctoken.LBRACE ->
      ignore (next st);
      let items = ref [] in
      let rec go () =
        match peek st with
        | RBRACE -> ignore (next st)
        | _ ->
            (* skip designators: .field = / [i] = *)
            (match peek st with
            | DOT ->
                ignore (next st);
                ignore (ident st);
                expect st ASSIGN
            | LBRACKET ->
                ignore (next st);
                skip_until_bracket st;
                expect st RBRACKET;
                expect st ASSIGN
            | _ -> ());
            items := parse_init st hoist :: !items;
            (match peek st with COMMA -> ignore (next st) | _ -> ());
            go ()
      in
      go ();
      EInitList (List.rev !items)
  | _ -> parse_assign st hoist

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

and parse_stmt st hoist : stmt =
  match peek st with
  | Ctoken.SEMI ->
      ignore (next st);
      SNull
  | LBRACE -> SBlock (parse_block st hoist)
  | KW_IF ->
      ignore (next st);
      expect st LPAREN;
      let c = parse_expr st hoist in
      expect st RPAREN;
      let s1 = parse_stmt st hoist in
      let s2 =
        if peek st == KW_ELSE then begin
          ignore (next st);
          Some (parse_stmt st hoist)
        end
        else None
      in
      SIf (c, s1, s2)
  | KW_WHILE ->
      ignore (next st);
      expect st LPAREN;
      let c = parse_expr st hoist in
      expect st RPAREN;
      SWhile (c, parse_stmt st hoist)
  | KW_DO ->
      ignore (next st);
      let body = parse_stmt st hoist in
      expect st KW_WHILE;
      expect st LPAREN;
      let c = parse_expr st hoist in
      expect st RPAREN;
      expect st SEMI;
      SDoWhile (body, c)
  | KW_FOR ->
      ignore (next st);
      expect st LPAREN;
      let init =
        if peek st == SEMI then begin
          ignore (next st);
          None
        end
        else if starts_type st then begin
          let ds = parse_local_decl st hoist in
          Some (SDecl ds)
        end
        else begin
          let e = parse_expr st hoist in
          expect st SEMI;
          Some (SExpr e)
        end
      in
      let cond =
        if peek st == SEMI then None else Some (parse_expr st hoist)
      in
      expect st SEMI;
      let step =
        if peek st == RPAREN then None else Some (parse_expr st hoist)
      in
      expect st RPAREN;
      SFor (init, cond, step, parse_stmt st hoist)
  | KW_RETURN ->
      ignore (next st);
      if peek st == SEMI then begin
        ignore (next st);
        SReturn None
      end
      else begin
        let e = parse_expr st hoist in
        expect st SEMI;
        SReturn (Some e)
      end
  | KW_BREAK ->
      ignore (next st);
      expect st SEMI;
      SBreak
  | KW_CONTINUE ->
      ignore (next st);
      expect st SEMI;
      SContinue
  | KW_SWITCH ->
      ignore (next st);
      expect st LPAREN;
      let e = parse_expr st hoist in
      expect st RPAREN;
      SSwitch (e, parse_stmt st hoist)
  | KW_CASE ->
      ignore (next st);
      let e = parse_cond st hoist in
      expect st COLON;
      SCase (e, parse_stmt_or_null st hoist)
  | KW_DEFAULT ->
      ignore (next st);
      expect st COLON;
      SDefault (parse_stmt_or_null st hoist)
  | KW_GOTO ->
      ignore (next st);
      let l = ident st in
      expect st SEMI;
      SGoto l
  | IDENT x when peek2 st == COLON && not (is_typedef st x) ->
      ignore (next st);
      ignore (next st);
      SLabel (x, parse_stmt_or_null st hoist)
  | _ when starts_type st -> SDecl (parse_local_decl st hoist)
  | _ ->
      let e = parse_expr st hoist in
      expect st SEMI;
      SExpr e

and parse_stmt_or_null st hoist =
  (* a case label may be immediately followed by another label or `}' *)
  match peek st with
  | Ctoken.RBRACE | KW_CASE | KW_DEFAULT -> SNull
  | _ -> parse_stmt st hoist

and parse_block st hoist : stmt list =
  expect st LBRACE;
  let stmts = ref [] in
  while peek st != RBRACE do
    stmts := parse_stmt st hoist :: !stmts
  done;
  expect st RBRACE;
  List.rev !stmts

and parse_local_decl st hoist : decl list =
  let ln = line st in
  let specs = parse_decl_specs st hoist in
  if peek st == SEMI then begin
    (* pure struct/enum declaration inside a function *)
    ignore (next st);
    []
  end
  else parse_local_declarators st hoist specs ln []

(* the declarators of one local declaration, [acc] those before, newest
   first *)
and parse_local_declarators st hoist specs ln acc =
  let name, wrap = parse_declarator st hoist in
  let t = wrap specs.base in
  if name < 0 then err st "declaration without name";
  let name = name_at st name in
  let init =
    if peek st == ASSIGN then begin
      ignore (next st);
      Some (parse_init st hoist)
    end
    else None
  in
  if specs.s_typedef then register_typedef st name;
  let acc = { d_name = name; d_type = t; d_init = init; d_line = ln } :: acc in
  match peek st with
  | COMMA ->
      ignore (next st);
      parse_local_declarators st hoist specs ln acc
  | _ ->
      expect st SEMI;
      List.rev acc

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

(* Skip a balanced {...} starting at the current LBRACE (used to step over
   a function body that failed to parse). Stops at EOF. *)
let skip_balanced_braces st =
  if peek st == Ctoken.LBRACE then begin
    ignore (next st);
    let depth = ref 1 in
    while !depth > 0 && peek st != Ctoken.EOF do
      (match peek st with
      | Ctoken.LBRACE -> incr depth
      | Ctoken.RBRACE -> decr depth
      | _ -> ());
      ignore (next st)
    done
  end

let rec parse_global st (hoist : global list ref) : global list =
  let ln = line st in
  let specs = parse_decl_specs st hoist in
  if peek st == SEMI then begin
    (* struct/union/enum definition alone *)
    ignore (next st);
    []
  end
  else begin
    let name, wrap = parse_declarator st hoist in
    let t = wrap specs.base in
    if name < 0 then err st "declaration without a name"
    else if peek st == LBRACE then (
        (* function definition *)
        match t with
        | TFun (ret, params, varargs) -> (
            (* anchor each parameter at its name token. [last_params]
               holds the most recently completed parameter list, which
               for an exotic declarator (a function returning a function
               pointer) may be an inner one — re-align by name and drop
               to (0,0) on any mismatch, so keys are never mislocated *)
            let loc i = (Tokbuf.line st.tb i, Tokbuf.col st.tb i) in
            let param_locs =
              List.map
                (fun (pname, _) ->
                  match List.assoc_opt pname st.last_params with
                  | Some i -> loc i
                  | None -> (0, 0))
                params
            in
            let fname = name_at st name in
            (* fault isolation: a body that fails to parse demotes the
               function to a prototype (analyzed like a library function,
               which is conservative) rather than poisoning the file *)
            let brace = st.pos in
            match parse_block st hoist with
            | body ->
                [
                  GFun
                    {
                      f_name = fname;
                      f_ret = ret;
                      f_params = params;
                      f_varargs = varargs;
                      f_body = body;
                      f_static = specs.s_static;
                      f_line = ln;
                      f_name_loc = loc name;
                      f_param_locs = param_locs;
                    };
                ]
            | exception Parse_error (m, sp) ->
                add_diag st (Diag.error ~code:"E0202" sp m);
                st.degraded <-
                  (fname, Printf.sprintf "body failed to parse: %s" m)
                  :: st.degraded;
                st.pos <- brace;
                skip_balanced_braces st;
                [ GProto (fname, t, ln) ])
        | _ -> err st "function body after non-function declarator")
    else global_declarators st hoist specs ln [] (name_at st name) t
  end

(* the declarators of one global declaration from [name] of type [t] on,
   [acc] the globals before, newest first *)
and global_declarators st hoist specs ln acc name t =
  let init =
    if peek st == ASSIGN then begin
      ignore (next st);
      Some (parse_init st hoist)
    end
    else None
  in
  let g =
    if specs.s_typedef then begin
      register_typedef st name;
      GTypedef (name, t, ln)
    end
    else
      match t with
      | TFun _ -> GProto (name, t, ln)
      | _ -> GVar { d_name = name; d_type = t; d_init = init; d_line = ln }
  in
  let acc = g :: acc in
  match peek st with
  | COMMA ->
      ignore (next st);
      let name2, wrap2 = parse_declarator st hoist in
      if name2 < 0 then err st "declarator without name";
      global_declarators st hoist specs ln acc (name_at st name2)
        (wrap2 specs.base)
  | _ ->
      expect st SEMI;
      List.rev acc

(* ------------------------------------------------------------------ *)
(* Panic-mode recovery                                                 *)
(* ------------------------------------------------------------------ *)

(* Synchronize after a parse error: skip to the next plausible top-level
   declaration boundary. We consume until a `;' or `}' at brace depth 0
   (an unmatched `}' closes whatever construct the error interrupted) or
   until a token that starts a declaration. Stopping at a type-start token
   without consuming anything is safe: the parser only reaches an error
   with a type-start lookahead after consuming at least one token, so the
   outer loop always makes progress. *)
let sync st =
  let depth = ref 0 in
  let stop = ref false in
  while not !stop do
    match peek st with
    | Ctoken.EOF -> stop := true
    | Ctoken.LBRACE ->
        incr depth;
        ignore (next st)
    | Ctoken.RBRACE ->
        if !depth > 0 then begin
          decr depth;
          ignore (next st)
        end
        else begin
          ignore (next st);
          if peek st == Ctoken.SEMI then ignore (next st);
          stop := true
        end
    | Ctoken.SEMI when !depth = 0 ->
        ignore (next st);
        if starts_type st || peek st == Ctoken.EOF then stop := true
    | _ when !depth = 0 && starts_type st -> stop := true
    | _ -> ignore (next st)
  done

type presult = {
  pr_prog : program;  (** every global that parsed *)
  pr_diags : Diag.t list;  (** in source order, lexical errors first *)
  pr_degraded : (string * string) list;
      (** functions demoted to prototypes because their body failed to
          parse, with the reason *)
}

(* ------------------------------------------------------------------ *)
(* Per-unit parsing                                                    *)
(* ------------------------------------------------------------------ *)

(** The cross-unit parser environment a unit parse can be seeded with:
    typedef and enum-constant exports of the units linked before it, the
    running anonymous-tag counter, and the number of diagnostics those
    units already consumed from the run's error budget. *)
type useed = {
  us_typedefs : string list;
  us_enums : (string * int) list;
  us_anon : int;
  us_count_base : int;
}

let empty_seed =
  { us_typedefs = []; us_enums = []; us_anon = 0; us_count_base = 0 }

(** A digest of everything a parse with no diagnostic reads besides its
    tokens (the parser enters the seed's names into tables, so their
    order is irrelevant). The diagnostics consumed before the unit,
    [us_count_base], are left out: they change only a parse that reports
    one. *)
let seed_digest (seed : useed) =
  Digest.string
    (Marshal.to_string
       (List.sort compare seed.us_typedefs, List.sort compare seed.us_enums, seed.us_anon)
       [])

(** What one group of declarations added to the parser environment. *)
type regs = {
  r_typedefs : string list;  (** in registration order *)
  r_enums : (string * int) list;  (** in registration order *)
  r_anon : int;  (** anonymous tags minted *)
}

let no_regs = { r_typedefs = []; r_enums = []; r_anon = 0 }

(* The environment digest after a declaration that registered [regs] and
   left the anonymous-tag counter at [anon]. It rolls [d] forward one
   declaration at a time, so however declarations are grouped, equal
   digests mean equal registration histories from equal seeds. *)
let env_step d regs anon =
  let b = Buffer.create 64 in
  Buffer.add_string b d;
  List.iter (fun n -> Printf.bprintf b "t%s\000" n) regs.r_typedefs;
  List.iter (fun (n, v) -> Printf.bprintf b "e%s=%d\000" n v) regs.r_enums;
  Printf.bprintf b "a%d" anon;
  Digest.string (Buffer.contents b)

(** A group that registered anything: its index, what it registered,
    and the environment digest after it. *)
type mark = { m_group : int; m_regs : regs; m_env : string }

(** Where a clean parse's declarations lie, for a later splice
    ({!reparse_unit}). The parse is cut into groups: runs of consecutive
    top-level declarations, with the definitions hoisted out of them,
    that cover whole lines. A group starts at the first byte of a line
    and ends just past a line break the lexer crossed outside any
    comment or literal, or where the parsed text ends; the groups tile
    the parsed range. The environment digest before a group is the one
    after the last marked group before it, or [b_env0]. *)
type bounds = {
  b_src : string;  (** the text parsed *)
  b_stop : int;  (** where the parsed range ends *)
  b_end_line : int;  (** the line [b_stop] is on *)
  b_cut : bool;  (** [b_stop] is just past a clean line break *)
  b_starts : int array;
      (** per group, its line and the offset of its first byte, packed
          as {!Tokbuf.pack} packs a line and a column (offsets, like
          columns, stay below 2^32) *)
  b_sizes : int array;
      (** per group, its top-level declarations and the globals they
          parsed to, packed likewise *)
  b_marks : mark list;  (** the groups that registered anything, in order *)
  b_env0 : string;  (** environment digest before the first group *)
  b_prog : global list;  (** every group's globals, in order *)
}

type uresult = {
  ur_pr : presult;
  ur_typedefs : string list;
      (** typedef names this unit registered, in registration order *)
  ur_enums : (string * int) list;
      (** enum constants this unit registered, in registration order *)
  ur_anon : int;  (** anonymous struct/union/enum tags this unit created *)
  ur_capped : bool;  (** the unit itself emitted E0299 and gave up *)
  ur_decls : int;  (** top-level declarations parsed, failed ones too *)
  ur_bounds : bounds option;
      (** the declaration boundaries; [None] unless the lexer recorded
          its lines and the parse produced no diagnostic *)
}

(* a group's [b_sizes] entry, unpacked *)
let decls_of size = Tokbuf.pline size
let nglobals_of size = Tokbuf.pcol size

(* A growable int array: the per-declaration and per-group records are
   kept unboxed, so a unit of tens of thousands of declarations adds a
   few words per declaration while it is parsed. *)
type ints = { mutable a : int array; mutable n : int }

let ints () = { a = Array.make 64 0; n = 0 }

let push b x =
  if b.n = Array.length b.a then begin
    let a = Array.make (2 * b.n) 0 in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  Array.unsafe_set b.a b.n x;
  b.n <- b.n + 1

let contents b = Array.sub b.a 0 b.n

(* The registrations in [l] newer than its suffix [old], oldest first *)
let newer l old =
  let rec go l acc =
    if l == old then acc else match l with x :: r -> go r (x :: acc) | [] -> acc
  in
  go l []

let merge_regs a b =
  if a == no_regs then b
  else
    {
      r_typedefs = a.r_typedefs @ b.r_typedefs;
      r_enums = a.r_enums @ b.r_enums;
      r_anon = a.r_anon + b.r_anon;
    }

(* Cut a clean parse's declarations into groups: after each declaration,
   at the first clean line break before the next token; declarations
   with no clean break between them share a group. Declaration [i] runs
   from token [firsts.(i)] to token [lasts.(i)] and parsed to
   [nglobals.(i)] globals; [marks] are the declarations that registered
   anything, indexed by declaration, in order. *)
let group_items (tb : Tokbuf.t) ~firsts ~lasts ~nglobals ~marks ~env0 ~prog :
    bounds =
  let eof_line = Tokbuf.line tb (tb.Tokbuf.n - 1) in
  let starts = ints () and sizes = ints () and gmarks = ref [] in
  let marks = ref marks in
  (* the group being gathered: where it starts, its declarations and
     globals, and what they registered *)
  let g_off = ref (Tokbuf.line_start tb tb.Tokbuf.line0)
  and g_line = ref tb.Tokbuf.line0
  and decls = ref 0
  and globals = ref 0
  and regs = ref no_regs
  and env = ref env0 in
  let close off line =
    if off > !g_off || !decls > 0 then begin
      if !regs != no_regs then
        gmarks := { m_group = starts.n; m_regs = !regs; m_env = !env } :: !gmarks;
      push starts (Tokbuf.pack !g_line !g_off);
      push sizes (Tokbuf.pack !decls !globals)
    end;
    g_off := off;
    g_line := line;
    decls := 0;
    globals := 0;
    regs := no_regs
  in
  for i = 0 to firsts.n - 1 do
    incr decls;
    globals := !globals + nglobals.a.(i);
    (match !marks with
    | m :: rest when m.m_group = i ->
        regs := merge_regs !regs m.m_regs;
        env := m.m_env;
        marks := rest
    | _ -> ());
    let next_line =
      if i + 1 < firsts.n then Tokbuf.line tb firsts.a.(i + 1) else eof_line
    in
    let rec find l =
      if l > next_line then ()
      else if Tokbuf.clean_break tb l then close (Tokbuf.line_start tb l) l
      else find (l + 1)
    in
    find (Tokbuf.pline tb.Tokbuf.spans.((2 * lasts.a.(i)) + 1) + 1)
  done;
  let stop = tb.Tokbuf.stop in
  close stop eof_line;
  {
    b_src = tb.Tokbuf.src;
    b_stop = stop;
    b_end_line = eof_line;
    b_cut = Tokbuf.line_start tb eof_line = stop && Tokbuf.clean_break tb eof_line;
    b_starts = contents starts;
    b_sizes = contents sizes;
    b_marks = List.rev !gmarks;
    b_env0 = env0;
    b_prog = prog;
  }

(* [parse_unit] with the environment digest before the first declaration
   given: a splice's region continues the digest where the text before
   it left it *)
let parse_tokens ~max_errors ~seed ~env0 (tb : Tokbuf.t)
    ~(lex_diags : Diag.t list) : uresult =
  let typedefs = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace typedefs n ()) seed.us_typedefs;
  let enum_consts = Hashtbl.create 16 in
  List.iter (fun (n, v) -> Hashtbl.replace enum_consts n v) seed.us_enums;
  let st =
    {
      tb;
      t_toks = tb.Tokbuf.toks;
      t_len = tb.Tokbuf.n;
      pos = 0;
      typedefs;
      enum_consts;
      anon = seed.us_anon;
      diags = List.rev lex_diags;
      n_diags = List.length lex_diags;
      degraded = [];
      new_typedefs = [];
      new_enums = [];
      last_params = [];
    }
  in
  (* panic mode: a global that fails to parse is reported and skipped.
     Before each global, the cap fires if the run's running total of
     diagnostics, the earlier units' [us_count_base] and this unit's
     lexical ones included, has reached [max_errors], so a parse error
     never takes the total past it; the E0299 note quotes the caller's
     budget. While no diagnostic is in, and when the lexer recorded its
     lines, each declaration is also recorded for the boundary table. *)
  let record = Tokbuf.has_lines tb in
  let globals = ref [] in
  let capped = ref false in
  let decls = ref 0 in
  let firsts = ints () and lasts = ints () and nglobals = ints () in
  let marks = ref [] and env = ref env0 in
  while peek st != EOF && not !capped do
    if seed.us_count_base + st.n_diags >= max_errors then begin
      capped := true;
      add_diag st
        (Diag.note ~code:"E0299" (span st)
           (Printf.sprintf
              "too many errors (%d); giving up on the rest of the file"
              max_errors))
    end
    else begin
      incr decls;
      let first = st.pos
      and td0 = st.new_typedefs
      and en0 = st.new_enums
      and anon0 = st.anon in
      let hoist = ref [] in
      match parse_global st hoist with
      | gs ->
          globals := List.rev_append gs (List.rev_append !hoist !globals);
          if record && st.n_diags = 0 then begin
            if not (st.new_typedefs == td0 && st.new_enums == en0 && st.anon = anon0)
            then begin
              let regs =
                {
                  r_typedefs = newer st.new_typedefs td0;
                  r_enums = newer st.new_enums en0;
                  r_anon = st.anon - anon0;
                }
              in
              env := env_step !env regs st.anon;
              marks := { m_group = firsts.n; m_regs = regs; m_env = !env } :: !marks
            end;
            push firsts first;
            push lasts (st.pos - 1);
            push nglobals (List.length !hoist + List.length gs)
          end
      | exception Parse_error (m, sp) ->
          add_diag st (Diag.error ~code:"E0201" sp m);
          (* keep whatever was hoisted before the failure *)
          globals := List.rev_append !hoist !globals;
          sync st
    end
  done;
  let prog = List.rev !globals in
  {
    ur_pr =
      {
        pr_prog = prog;
        pr_diags = List.rev st.diags;
        pr_degraded = List.rev st.degraded;
      };
    ur_typedefs = List.rev st.new_typedefs;
    ur_enums = List.rev st.new_enums;
    ur_anon = st.anon - seed.us_anon;
    ur_capped = !capped;
    ur_decls = !decls;
    ur_bounds =
      (if (not record) || st.n_diags > 0 || !capped then None
       else
         Some
           (group_items tb ~firsts ~lasts ~nglobals ~marks:(List.rev !marks)
              ~env0 ~prog));
  }

(** Parse one translation unit over an already-lexed token buffer,
    under [seed]: the environment the units linked before it left (see
    DESIGN.md "Per-unit frontend"). A parse with no diagnostic of a
    buffer lexed with its lines recorded also records its declaration
    boundaries ([ur_bounds]) for {!reparse_unit}. *)
let parse_unit ?(max_errors = 20) ?(seed = empty_seed) (tb : Tokbuf.t)
    ~(lex_diags : Diag.t list) : uresult =
  let env0 = if Tokbuf.has_lines tb then seed_digest seed else "" in
  parse_tokens ~max_errors ~seed ~env0 tb ~lex_diags

(* Are [a.[ao .. ao+n-1]] and [b.[bo .. bo+n-1]] the same bytes? Eight at
   a time, then one at a time. *)
let same_bytes a ao b bo n =
  let rec words i =
    if i + 8 > n then bytes i
    else String.get_int64_ne a (ao + i) = String.get_int64_ne b (bo + i)
         && words (i + 8)
  and bytes i =
    i >= n
    || String.unsafe_get a (ao + i) = String.unsafe_get b (bo + i)
       && bytes (i + 1)
  in
  words 0

(* The length of the longest common prefix of [a] and [b], at most [n] *)
let common_prefix a b n =
  let rec words i =
    if i + 8 <= n && String.get_int64_ne a i = String.get_int64_ne b i then
      words (i + 8)
    else bytes i
  and bytes i =
    if i < n && String.unsafe_get a i = String.unsafe_get b i then bytes (i + 1)
    else i
  in
  words 0

(* The length of the longest common suffix of [a]'s first [al] bytes and
   [b]'s first [bl], at most [n] *)
let common_suffix a al b bl n =
  let rec words i =
    if i + 8 <= n
       && String.get_int64_ne a (al - i - 8) = String.get_int64_ne b (bl - i - 8)
    then words (i + 8)
    else bytes i
  and bytes i =
    if i < n && String.unsafe_get a (al - i - 1) = String.unsafe_get b (bl - i - 1)
    then bytes (i + 1)
    else i
  in
  words 0

(* The line breaks in [s.[i .. j-1]] *)
let count_newlines s i j =
  let rec go i acc =
    if i >= j then acc
    else go (i + 1) (if String.unsafe_get s i = '\n' then acc + 1 else acc)
  in
  go i 0

exception Decline

(** Parse [src], a new text of the unit [prev] was parsed from, by
    splicing it against [prev] — the boundaries of that earlier clean
    parse, under the same [seed]. A group of [prev] is reused when its
    bytes are identical in [src] from the start of a line on, and the
    environment digest before it is equal: as the same values where it
    starts on the same line, else with its lines shifted
    ({!Cast.shift_global}). It is looked for where the line shift of the
    last group reused puts it, then where the shift of the whole text's
    line count does, then one line either side of the first: so an edit
    at one place, or two edits that each insert or delete a line, leave
    only the groups they changed to parse. Everything else forms
    regions, each lexed with [lex] (as {!Clexer.tokenize_buf} over a
    range, recording its lines) and parsed by {!parse_unit}'s own loop,
    seeded with the environment at its start. A region whose text ends
    inside a comment takes in the group after it, which is then parsed
    afresh, until the comment closes. Returns the result, equal to a
    whole parse of [src], with the number of declarations parsed afresh.

    Returns [None] (parse it whole) at once when [seed]'s digest is not
    the one [prev] was parsed under, as then no group can be reused. It
    also does when a region has any other diagnostic or does not end on
    a clean line break, when [src] has no declaration, and before the
    splice would do more than half of a whole parse's work: a byte
    counts once each time a region lexes it and once more when the
    region parses it, against twice the length of [src]. *)
let reparse_unit ?(max_errors = 20) ?(seed = empty_seed)
    ~(lex : start:int -> stop:int -> line:int -> string -> Tokbuf.t * Diag.t list)
    (prev : bounds) (src : string) : (uresult * int) option =
  let env0 = seed_digest seed in
  let len = String.length src in
  let old = prev.b_src in
  let m = Array.length prev.b_starts in
  let off_of p = Tokbuf.pcol p and line_of p = Tokbuf.pline p in
  let old_off k = off_of prev.b_starts.(k) and old_line k = line_of prev.b_starts.(k) in
  let old_end k = if k + 1 < m then old_off (k + 1) else prev.b_stop in
  let old_end_line k = if k + 1 < m then old_line (k + 1) else prev.b_end_line in
  (* how many more lines [src] has than the old text: the line breaks
     between their common prefix and their common suffix; needed only
     once a group is not where the last shift puts it *)
  let end_shift =
    lazy
      (let pre = common_prefix old src (min prev.b_stop len) in
       let suf =
         common_suffix old prev.b_stop src len (min prev.b_stop len - pre)
       in
       count_newlines src pre (len - suf)
       - count_newlines old pre (prev.b_stop - suf))
  in
  (* the cursor: offset [no] where line [nl] of [src] starts, the first
     text no group or region covers yet; and where lines [tbase],
     [tbase + 1], ... of [src] start, as far as scanned. The table is
     scanned on from its end and restarted where the cursor passes it,
     so no byte is scanned twice *)
  let no = ref 0 and nl = ref 1 in
  let tab = ints () and tbase = ref 1 in
  push tab 0;
  let rec line_off l =
    (* [len] past the last line *)
    let i = l - !tbase in
    if i < tab.n then tab.a.(i)
    else
      match String.index_from_opt src tab.a.(tab.n - 1) '\n' with
      | Some j ->
          push tab (j + 1);
          line_off l
      | None -> len
  in
  let move o l =
    no := o;
    nl := l;
    if l - !tbase >= tab.n then begin
      tab.n <- 0;
      push tab o;
      tbase := l
    end
  in
  (* the work spent, in the units above; over [len] the splice declines *)
  let spent = ref 0 in
  let spend n =
    spent := !spent + n;
    if !spent > len then raise Decline
  in
  (* the new groups, marks (newest first) and globals (newest first),
     and the declarations parsed afresh *)
  let starts = ints () and sizes = ints () and marks = ref [] in
  let prog = ref [] and fresh = ref 0 in
  (* the environment so far: its digest and the registrations since the
     seed, newest first *)
  let env = ref env0 in
  let tds = ref [] and ens = ref [] and anon = ref 0 in
  let add_group start size regs =
    if regs != no_regs then begin
      marks := { m_group = starts.n; m_regs = regs; m_env = !env } :: !marks;
      tds := List.rev_append regs.r_typedefs !tds;
      ens := List.rev_append regs.r_enums !ens;
      anon := !anon + regs.r_anon
    end;
    push starts start;
    push sizes size
  in
  (* the line the new text ends on, and whether its last group ends just
     past a clean break *)
  let end_line = ref 1 and end_cut = ref true in
  (* where the last comment a region left open closes: no group before
     it is reused *)
  let comment_end = ref 0 in
  (* parse [src.[start .. stop-1]]; [false], parsing nothing, when its
     text ends inside a comment, which the first "*/" past it closes *)
  let region start line stop =
    stop <= start
    ||
    let n = stop - start in
    spend n;
    let tb, lex_diags = lex ~start ~stop ~line src in
    match lex_diags with
    | [ d ] when d.Diag.d_code = "E0103" && stop < len ->
        let rec close i =
          if i + 1 >= len then len
          else if src.[i] = '*' && src.[i + 1] = '/' then i + 2
          else close (i + 1)
        in
        comment_end := close stop;
        false
    | _ :: _ -> raise Decline
    | [] -> (
      spend n;
      let rseed =
        {
          us_typedefs = List.rev_append !tds seed.us_typedefs;
          us_enums = seed.us_enums @ List.rev !ens;
          us_anon = seed.us_anon + !anon;
          us_count_base = seed.us_count_base;
        }
      in
      let r = parse_tokens ~max_errors ~seed:rseed ~env0:!env tb ~lex_diags in
      match r.ur_bounds with
      | Some b when b.b_cut || stop = len ->
          let bmarks = ref b.b_marks in
          Array.iteri
            (fun i start ->
              let regs =
                match !bmarks with
                | mk :: rest when mk.m_group = i ->
                    bmarks := rest;
                    env := mk.m_env;
                    mk.m_regs
                | _ -> no_regs
              in
              add_group start b.b_sizes.(i) regs)
            b.b_starts;
          prog := List.rev_append b.b_prog !prog;
          fresh := !fresh + r.ur_decls;
          end_line := b.b_end_line;
          end_cut := b.b_cut;
          true
      | _ -> raise Decline)
  in
  (* the line shift of the last group reused; whether the environment
     differs from the old one (it then differs before every later group
     too); the old globals not yet passed, the old environment before
     group [k] and the old marks not yet passed *)
  let shift = ref 0 in
  let diverged = ref false in
  let old_prog = ref prev.b_prog in
  let old_env = ref prev.b_env0 and old_marks = ref prev.b_marks in
  (* does group [k]'s text start line [l] of [src]? (a group is never
     empty, so none starts past the last line) *)
  let at k l =
    l >= !nl
    &&
    let off = old_off k and o = line_off l in
    let size = old_end k - off in
    o >= !comment_end
    && o + size <= len
    && (k < m - 1 || prev.b_cut || o + size = len)
    && same_bytes old off src o size
  in
  match
    (* no group can be reused under another environment *)
    if not (String.equal env0 prev.b_env0) then raise Decline;
    for k = 0 to m - 1 do
      let line = old_line k in
      let size = old_end k - old_off k in
      let found =
        if !diverged then None
        else if at k (line + !shift) then Some (line + !shift)
        else
          Option.map (( + ) line)
            (List.find_opt
               (fun d -> at k (line + d))
               [ Lazy.force end_shift; !shift - 1; !shift + 1 ])
      in
      let env_before = !old_env in
      let regs =
        match !old_marks with
        | mk :: rest when mk.m_group = k ->
            old_marks := rest;
            old_env := mk.m_env;
            mk.m_regs
        | _ -> no_regs
      in
      (* the text before the group is parsed first: the environment
         before it is known then. A comment that text leaves open makes
         the group part of the text after it. *)
      let reused =
        match found with
        | None -> false
        | Some l ->
            region !no !nl (line_off l)
            && begin
                 move (line_off l) l;
                 String.equal !env env_before || (diverged := true; false)
               end
      in
      let delta = !nl - line in
      for _ = 1 to nglobals_of prev.b_sizes.(k) do
        match !old_prog with
        | g :: rest ->
            if reused then prog := Cast.shift_global delta g :: !prog;
            old_prog := rest
        | [] -> ()
      done;
      if reused then begin
        (* equal environments before, equal declarations: equal after *)
        env := !old_env;
        add_group (Tokbuf.pack !nl !no) prev.b_sizes.(k) regs;
        move (!no + size) (!nl + old_end_line k - line);
        end_line := !nl;
        shift := delta;
        end_cut := k < m - 1 || prev.b_cut
      end
    done;
    (* the last region leaves no comment to a later one *)
    ignore (region !no !nl len : bool)
  with
  | exception Decline -> None
  | () -> (
      let total = ref 0 in
      for k = 0 to sizes.n - 1 do
        total := !total + decls_of sizes.a.(k)
      done;
      if !total = 0 then None
      else
        let prog = List.rev !prog in
        Some
          ( {
              ur_pr = { pr_prog = prog; pr_diags = []; pr_degraded = [] };
              ur_typedefs = List.rev !tds;
              ur_enums = List.rev !ens;
              ur_anon = !anon;
              ur_capped = false;
              ur_decls = !total;
              ur_bounds =
                Some
                  {
                    b_src = src;
                    b_stop = len;
                    b_end_line = !end_line;
                    b_cut = !end_cut;
                    b_starts = contents starts;
                    b_sizes = contents sizes;
                    b_marks = List.rev !marks;
                    b_env0 = env0;
                    b_prog = prog;
                  };
            },
            !fresh ))
