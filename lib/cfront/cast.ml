(** Abstract syntax of the mini-C language (the subject language of the
    paper's Section 4). Every C construct the paper's const-inference
    discussion mentions is present: pointers with per-level qualifiers,
    structs with shared field declarations, typedefs (macro-expanded),
    casts, variadic functions, library prototypes, globals.

    Qualifiers on types are kept as the literal list of source qualifier
    names ([const], plus [$name] user qualifiers per Section 2.5);
    [volatile] and storage classes are parsed and dropped, as they are
    irrelevant to qualifier inference. *)

type quals = string list
(** qualifier names, sorted, no duplicates; [const] is the one Section 4
    analyzes *)

let no_quals : quals = []
let has_qual q (qs : quals) = List.mem q qs
let add_qual q (qs : quals) = if List.mem q qs then qs else List.sort compare (q :: qs)
let merge_quals (a : quals) (b : quals) = List.sort_uniq compare (a @ b)
let is_const qs = has_qual "const" qs

(** C types. Integer kinds are collapsed to {!TInt} with a width tag kept
    only for printing; the qualifier analysis does not distinguish them
    (the paper's translation handles "pointer and integer types"). *)
type ctype =
  | TVoid of quals
  | TInt of ikind * quals
  | TFloat of fkind * quals
  | TPtr of ctype * quals  (** quals qualify the pointer value itself *)
  | TArray of ctype * int option * quals
  | TStruct of string * quals  (** reference to a struct/union tag *)
  | TNamed of string * quals  (** typedef name, expanded before analysis *)
  | TFun of ctype * (string * ctype) list * bool  (** return, params, varargs *)

and ikind = IChar | IShort | IInt | ILong | IUChar | IUShort | IUInt | IULong
and fkind = FFloat | FDouble

type unop = Neg | Not | BitNot

type binop =
  | Add | Sub | Mul | Div | Mod
  | Shl | Shr | BAnd | BOr | BXor
  | Lt | Gt | Le | Ge | Eq | Ne
  | LAnd | LOr

type expr =
  | EInt of int
  | EFloat of float
  | EChar of char
  | EString of string
  | EVar of string
  | EUnop of unop * expr
  | EBinop of binop * expr * expr
  | EAssign of expr * expr
  | EAssignOp of binop * expr * expr  (** [e1 op= e2] *)
  | EIncDec of bool * bool * expr  (** pre?, inc?, lvalue *)
  | ECond of expr * expr * expr
  | EComma of expr * expr
  | ECall of expr * expr list
  | EIndex of expr * expr
  | EMember of expr * string  (** [e.f] *)
  | EArrow of expr * string  (** [e->f] *)
  | ECast of ctype * expr
  | ESizeofT of ctype
  | ESizeofE of expr
  | EAddr of expr  (** [&e] *)
  | EDeref of expr  (** [*e] *)
  | EInitList of expr list  (** brace initializer *)

type decl = {
  d_name : string;
  d_type : ctype;
  d_init : expr option;
  d_line : int;
}

type stmt =
  | SExpr of expr
  | SDecl of decl list
  | SBlock of stmt list
  | SIf of expr * stmt * stmt option
  | SWhile of expr * stmt
  | SDoWhile of stmt * expr
  | SFor of stmt option * expr option * expr option * stmt
      (** init is a decl or expression statement *)
  | SReturn of expr option
  | SBreak
  | SContinue
  | SSwitch of expr * stmt
  | SCase of expr * stmt
  | SDefault of stmt
  | SLabel of string * stmt
  | SGoto of string
  | SNull

type fundef = {
  f_name : string;
  f_ret : ctype;
  f_params : (string * ctype) list;
  f_varargs : bool;
  f_body : stmt list;
  f_static : bool;
  f_line : int;
  f_name_loc : int * int;
      (** (line, column) of the defining occurrence of [f_name]; column 0
          when only line precision is available (cf. {!Diag.span}) *)
  f_param_locs : (int * int) list;
      (** (line, column) of each parameter's name, aligned with
          [f_params]; (0, 0) for unnamed or unlocatable parameters.
          These anchor the report's stable position keys
          ([file:line:col]), so a position survives marshaling without
          its solver-variable back-pointer. *)
}

type global =
  | GVar of decl
  | GFun of fundef
  | GProto of string * ctype * int  (** name, TFun type, line *)
  | GTypedef of string * ctype * int
  | GComp of string * bool * (string * ctype) list * int
      (** tag, is_union, fields, line — struct/union definition *)
  | GEnum of string * (string * int) list * int

type program = global list

(* ------------------------------------------------------------------ *)
(* Type utilities                                                      *)
(* ------------------------------------------------------------------ *)

let quals_of = function
  | TVoid q | TInt (_, q) | TFloat (_, q) | TPtr (_, q) | TArray (_, _, q)
  | TStruct (_, q) | TNamed (_, q) ->
      q
  | TFun _ -> no_quals

let set_quals q = function
  | TVoid _ -> TVoid q
  | TInt (k, _) -> TInt (k, q)
  | TFloat (k, _) -> TFloat (k, q)
  | TPtr (t, _) -> TPtr (t, q)
  | TArray (t, n, _) -> TArray (t, n, q)
  | TStruct (s, _) -> TStruct (s, q)
  | TNamed (s, _) -> TNamed (s, q)
  | TFun _ as t -> t

let add_quals extra t = set_quals (merge_quals extra (quals_of t)) t

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp_quals ppf (qs : quals) =
  List.iter
    (fun q ->
      if String.length q > 0 && q.[0] <> '$' && q <> "const" then
        Fmt.pf ppf "$%s " q
      else Fmt.pf ppf "%s " q)
    qs

let ikind_name = function
  | IChar -> "char"
  | IShort -> "short"
  | IInt -> "int"
  | ILong -> "long"
  | IUChar -> "unsigned char"
  | IUShort -> "unsigned short"
  | IUInt -> "unsigned int"
  | IULong -> "unsigned long"

let rec pp_ctype ppf = function
  | TVoid q -> Fmt.pf ppf "%avoid" pp_quals q
  | TInt (k, q) -> Fmt.pf ppf "%a%s" pp_quals q (ikind_name k)
  | TFloat (FFloat, q) -> Fmt.pf ppf "%afloat" pp_quals q
  | TFloat (FDouble, q) -> Fmt.pf ppf "%adouble" pp_quals q
  | TPtr (t, q) -> Fmt.pf ppf "%a*%a" pp_ctype t pp_quals q
  | TArray (t, Some n, q) -> Fmt.pf ppf "%a%a[%d]" pp_quals q pp_ctype t n
  | TArray (t, None, q) -> Fmt.pf ppf "%a%a[]" pp_quals q pp_ctype t
  | TStruct (s, q) -> Fmt.pf ppf "%astruct %s" pp_quals q s
  | TNamed (s, q) -> Fmt.pf ppf "%a%s" pp_quals q s
  | TFun (r, ps, va) ->
      Fmt.pf ppf "%a(%a%s)" pp_ctype r
        Fmt.(list ~sep:comma (fun ppf (_, t) -> pp_ctype ppf t))
        ps
        (if va then ", ..." else "")

let ctype_to_string t = Fmt.str "%a" pp_ctype t

(* ------------------------------------------------------------------ *)
(* Traversal helpers                                                   *)
(* ------------------------------------------------------------------ *)

(** Fold over every expression in a statement (pre-order). *)
let rec fold_stmt_exprs f acc = function
  | SExpr e -> f acc e
  | SDecl ds ->
      List.fold_left
        (fun acc d -> match d.d_init with Some e -> f acc e | None -> acc)
        acc ds
  | SBlock ss -> List.fold_left (fold_stmt_exprs f) acc ss
  | SIf (e, s1, s2) ->
      let acc = f acc e in
      let acc = fold_stmt_exprs f acc s1 in
      Option.fold ~none:acc ~some:(fold_stmt_exprs f acc) s2
  | SWhile (e, s) -> fold_stmt_exprs f (f acc e) s
  | SDoWhile (s, e) -> f (fold_stmt_exprs f acc s) e
  | SFor (init, cond, step, body) ->
      let acc = Option.fold ~none:acc ~some:(fold_stmt_exprs f acc) init in
      let acc = Option.fold ~none:acc ~some:(f acc) cond in
      let acc = Option.fold ~none:acc ~some:(f acc) step in
      fold_stmt_exprs f acc body
  | SReturn (Some e) -> f acc e
  | SReturn None | SBreak | SContinue | SGoto _ | SNull -> acc
  | SSwitch (e, s) -> fold_stmt_exprs f (f acc e) s
  | SCase (e, s) -> fold_stmt_exprs f (f acc e) s
  | SDefault s | SLabel (_, s) -> fold_stmt_exprs f acc s

(** All identifiers referenced in an expression (for the FDG). *)
let rec expr_idents acc = function
  | EInt _ | EFloat _ | EChar _ | EString _ | ESizeofT _ -> acc
  | EVar x -> x :: acc
  | EUnop (_, e) | ECast (_, e) | ESizeofE e | EAddr e | EDeref e
  | EIncDec (_, _, e) ->
      expr_idents acc e
  | EBinop (_, a, b) | EAssign (a, b) | EAssignOp (_, a, b) | EComma (a, b)
  | EIndex (a, b) ->
      expr_idents (expr_idents acc a) b
  | ECond (a, b, c) -> expr_idents (expr_idents (expr_idents acc a) b) c
  | ECall (f, args) -> List.fold_left expr_idents (expr_idents acc f) args
  | EMember (e, _) | EArrow (e, _) -> expr_idents acc e
  | EInitList es -> List.fold_left expr_idents acc es

(* ------------------------------------------------------------------ *)
(* Equality up to source locations                                     *)
(* ------------------------------------------------------------------ *)

(* Expressions and types carry no locations; statements carry them only in
   local declarations' [d_line]. [compare] short-circuits on physically
   shared subterms, which a re-parse of unchanged text does not produce but
   a memoized unit does. *)
let same a b = compare a b = 0

let equal_decl_mod_locs a b =
  a.d_name = b.d_name && same a.d_type b.d_type && same a.d_init b.d_init

let rec equal_stmt_mod_locs a b =
  a == b
  ||
  match (a, b) with
  | SDecl x, SDecl y -> List.equal equal_decl_mod_locs x y
  | SBlock x, SBlock y -> List.equal equal_stmt_mod_locs x y
  | SIf (e, s1, s2), SIf (e', s1', s2') ->
      same e e' && equal_stmt_mod_locs s1 s1'
      && Option.equal equal_stmt_mod_locs s2 s2'
  | SWhile (e, s), SWhile (e', s')
  | SDoWhile (s, e), SDoWhile (s', e')
  | SSwitch (e, s), SSwitch (e', s')
  | SCase (e, s), SCase (e', s') ->
      same e e' && equal_stmt_mod_locs s s'
  | SFor (i, c, st, b), SFor (i', c', st', b') ->
      Option.equal equal_stmt_mod_locs i i'
      && same c c' && same st st' && equal_stmt_mod_locs b b'
  | SDefault s, SDefault s' -> equal_stmt_mod_locs s s'
  | SLabel (l, s), SLabel (l', s') -> l = l' && equal_stmt_mod_locs s s'
  | (SExpr _ | SReturn _ | SBreak | SContinue | SGoto _ | SNull), _ ->
      same a b
  | _ -> false

(** The parts of a definition its interface is built from: name,
    parameters (names and types), return type, varargs. *)
let equal_signature (a : fundef) (b : fundef) =
  a == b
  || a.f_name = b.f_name
     && same a.f_ret b.f_ret && same a.f_params b.f_params
     && a.f_varargs = b.f_varargs

(** Two definitions that differ at most in where they sit in the source:
    analysis generates the same constraints for both (constraint reasons
    carry no line numbers). *)
let equal_fundef_mod_locs (a : fundef) (b : fundef) =
  a == b
  || equal_signature a b && a.f_static = b.f_static
     && List.equal equal_stmt_mod_locs a.f_body b.f_body

(* ------------------------------------------------------------------ *)
(* Moving a declaration                                                *)
(* ------------------------------------------------------------------ *)

(* [List.map f l], or [l] itself when [f] returned every element as is *)
let map_shared f l =
  let l' = List.map f l in
  if List.for_all2 ( == ) l l' then l else l'

(** [g] as it parses [delta] lines further down the source: every line it
    carries moves by [delta], and a (0, 0) location stays unknown.
    Expressions and types carry no locations, and a statement with no
    local declaration in it none either: those are shared with [g]. *)
let shift_global delta g =
  if delta = 0 then g
  else
    let ln l = if l > 0 then l + delta else l in
    let loc ((l, c) as p) = if l > 0 then (l + delta, c) else p in
    let decl d = { d with d_line = ln d.d_line } in
    let rec stmt s =
      (* [s] rebuilt by [k] around its one sub-statement [b], if that moved *)
      let one b k =
        let b' = stmt b in
        if b' == b then s else k b'
      in
      match s with
      | SDecl ds -> SDecl (List.map decl ds)
      | SBlock ss ->
          let ss' = map_shared stmt ss in
          if ss' == ss then s else SBlock ss'
      | SIf (e, a, None) -> one a (fun a' -> SIf (e, a', None))
      | SIf (e, a, Some b) ->
          let a' = stmt a and b' = stmt b in
          if a' == a && b' == b then s else SIf (e, a', Some b')
      | SFor (Some i, c, st, b) ->
          let i' = stmt i and b' = stmt b in
          if i' == i && b' == b then s else SFor (Some i', c, st, b')
      | SFor (None, c, st, b) -> one b (fun b' -> SFor (None, c, st, b'))
      | SWhile (e, b) -> one b (fun b' -> SWhile (e, b'))
      | SDoWhile (b, e) -> one b (fun b' -> SDoWhile (b', e))
      | SSwitch (e, b) -> one b (fun b' -> SSwitch (e, b'))
      | SCase (e, b) -> one b (fun b' -> SCase (e, b'))
      | SDefault b -> one b (fun b' -> SDefault b')
      | SLabel (l, b) -> one b (fun b' -> SLabel (l, b'))
      | SExpr _ | SReturn _ | SBreak | SContinue | SGoto _ | SNull -> s
    in
    match g with
    | GVar d -> GVar (decl d)
    | GFun f ->
        GFun
          {
            f with
            f_body = map_shared stmt f.f_body;
            f_line = ln f.f_line;
            f_name_loc = loc f.f_name_loc;
            f_param_locs = List.map loc f.f_param_locs;
          }
    | GProto (n, t, l) -> GProto (n, t, ln l)
    | GTypedef (n, t, l) -> GTypedef (n, t, ln l)
    | GComp (tag, u, fs, l) -> GComp (tag, u, fs, ln l)
    | GEnum (tag, cs, l) -> GEnum (tag, cs, ln l)
