(** Whole-program tables over a parsed translation unit: typedef expansion
    (typedefs are macro-expanded, so distinct uses share no qualifiers —
    Section 4.2), struct/union field tables (shared per declaration —
    Section 4.2), and the function/global inventories the const inference
    and the FDG construction consume. *)

open Cast

type t = {
  typedefs : (string, ctype) Hashtbl.t;
  comps : (string, (string * ctype) list) Hashtbl.t;  (* struct/union tag -> fields *)
  fundefs : (string, fundef) Hashtbl.t;
  protos : (string, ctype) Hashtbl.t;  (* declared but possibly undefined *)
  globals : (string, decl) Hashtbl.t;
  order : global list;  (* original order *)
}

exception Frontend_error of string

let build (prog : program) : t =
  let t =
    {
      typedefs = Hashtbl.create 16;
      comps = Hashtbl.create 16;
      fundefs = Hashtbl.create 16;
      protos = Hashtbl.create 16;
      globals = Hashtbl.create 16;
      order = prog;
    }
  in
  List.iter
    (function
      | GTypedef (name, ty, _) -> Hashtbl.replace t.typedefs name ty
      | GComp (tag, _, fields, _) -> Hashtbl.replace t.comps tag fields
      | GFun f -> Hashtbl.replace t.fundefs f.f_name f
      | GProto (name, ty, _) ->
          if not (Hashtbl.mem t.protos name) then Hashtbl.replace t.protos name ty
      | GVar d -> Hashtbl.replace t.globals d.d_name d
      | GEnum _ -> ())
    prog;
  t

(** Link per-unit tables into one whole-program table, in unit order.
    Deterministically equivalent to {!build} over the concatenation of
    the units' globals: typedefs, struct/union layouts, function
    definitions and global variables resolve last-definition-wins, while
    prototypes keep the first declaration — each per-unit table has
    already collapsed its within-unit duplicates the same way, so a
    cross-unit table fold in file order reproduces the sequential scan.
    A single unit is its own whole program. *)
let merge (units : t list) : t =
  match units with
  | [ u ] -> u
  | _ ->
    let t =
      {
        typedefs = Hashtbl.create 64;
        comps = Hashtbl.create 64;
        fundefs = Hashtbl.create 64;
        protos = Hashtbl.create 64;
        globals = Hashtbl.create 64;
        order = List.concat_map (fun u -> u.order) units;
      }
    in
    List.iter
      (fun u ->
        Hashtbl.iter (fun k v -> Hashtbl.replace t.typedefs k v) u.typedefs;
        Hashtbl.iter (fun k v -> Hashtbl.replace t.comps k v) u.comps;
        Hashtbl.iter (fun k v -> Hashtbl.replace t.fundefs k v) u.fundefs;
        Hashtbl.iter
          (fun k v ->
            if not (Hashtbl.mem t.protos k) then Hashtbl.replace t.protos k v)
          u.protos;
        Hashtbl.iter (fun k v -> Hashtbl.replace t.globals k v) u.globals)
      units;
    t

(** Expand typedefs away (macro-expansion semantics, Section 4.2): the
    qualifiers written on the use site are merged with the definition's.
    Function types expand their parameter and return types. *)
let rec expand t (ty : ctype) : ctype =
  match ty with
  | TNamed (name, q) -> (
      match Hashtbl.find_opt t.typedefs name with
      | Some def -> expand t (add_quals q def)
      | None -> raise (Frontend_error ("unknown typedef " ^ name)))
  | TPtr (inner, q) -> TPtr (expand t inner, q)
  | TArray (inner, n, q) -> TArray (expand t inner, n, q)
  | TFun (ret, params, va) ->
      TFun
        ( expand t ret,
          List.map (fun (n, pt) -> (n, expand t pt)) params,
          va )
  | TVoid _ | TInt _ | TFloat _ | TStruct _ -> ty

(** Array-of-T in parameter position decays to pointer-to-T. *)
let decay = function
  | TArray (inner, _, q) -> TPtr (inner, q)
  | ty -> ty

(** Parameters of a function type, typedefs expanded, arrays decayed. *)
let param_types t = function
  | TFun (_, params, _) ->
      List.map (fun (n, pt) -> (n, decay (expand t pt))) params
  | _ -> raise (Frontend_error "param_types: not a function type")

let return_type t = function
  | TFun (ret, _, _) -> expand t ret
  | _ -> raise (Frontend_error "return_type: not a function type")

let fields t tag =
  match Hashtbl.find_opt t.comps tag with
  | Some fs -> List.map (fun (n, ft) -> (n, expand t ft)) fs
  | None -> []

let find_fun t name = Hashtbl.find_opt t.fundefs name
let is_defined t name = Hashtbl.mem t.fundefs name

(** Declared (prototype) type of a function not defined in this program:
    the paper's "library function" case (Section 4.2). *)
let find_proto t name = Hashtbl.find_opt t.protos name

let functions t =
  List.filter_map (function GFun f -> Some f | _ -> None) t.order

let global_vars t =
  List.filter_map (function GVar d -> Some d | _ -> None) t.order

(** Count physical source lines (for Table 1-style reporting). *)
let count_lines src =
  String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 1 src

(** A project's translation units as one source, in order: each unit
    behind a [/* === name === */] banner line, a final newline added
    where a unit lacks one. Also returns, per unit, the line of the
    concatenation its source starts on. *)
let concat_units (files : (string * string) list) :
    string * (string * int) list =
  let b = Buffer.create 65536 in
  let line = ref 1 in
  let starts =
    List.map
      (fun (name, src) ->
        Buffer.add_string b (Printf.sprintf "/* === %s === */\n" name);
        let start = !line + 1 in
        Buffer.add_string b src;
        let missing_nl = src <> "" && src.[String.length src - 1] <> '\n' in
        if missing_nl then Buffer.add_char b '\n';
        line := start + count_lines src - (if missing_nl then 0 else 1);
        (name, start))
      files
  in
  (Buffer.contents b, starts)
