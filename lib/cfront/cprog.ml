(** Whole-program tables over a parsed translation unit: typedef expansion
    (typedefs are macro-expanded, so distinct uses share no qualifiers —
    Section 4.2), struct/union field tables (shared per declaration —
    Section 4.2), and the function/global inventories the const inference
    and the FDG construction consume. *)

open Cast

type t = {
  typedefs : (string, ctype) Hashtbl.t;
  comps : (string, (string * ctype) list) Hashtbl.t;  (* struct/union tag -> fields *)
  protos : (string, ctype) Hashtbl.t;  (* declared but possibly undefined *)
  order : global list list;
      (* each unit's globals in declaration order, the units in link
         order: the global variables' only table *)
  defs : fundef array array;
      (* each unit's function definitions in declaration order, the units
         in link order; built once per unit table and shared by every
         program that links it *)
}

exception Frontend_error of string

let build (prog : program) : t =
  let t =
    {
      typedefs = Hashtbl.create 16;
      comps = Hashtbl.create 16;
      protos = Hashtbl.create 16;
      order = [ prog ];
      defs =
        [| Array.of_list (List.filter_map (function GFun f -> Some f | _ -> None) prog) |];
    }
  in
  List.iter
    (function
      | GTypedef (name, ty, _) -> Hashtbl.replace t.typedefs name ty
      | GComp (tag, _, fields, _) -> Hashtbl.replace t.comps tag fields
      | GProto (name, ty, _) ->
          if not (Hashtbl.mem t.protos name) then Hashtbl.replace t.protos name ty
      | GFun _ | GVar _ | GEnum _ -> ())
    prog;
  t

(** Link per-unit tables into one whole-program table, in unit order.
    Deterministically equivalent to {!build} over the concatenation of
    the units' globals: typedefs and struct/union layouts resolve
    last-definition-wins, while prototypes keep the first declaration —
    each per-unit table has already collapsed its within-unit duplicates
    the same way, so a cross-unit table fold in file order reproduces the
    sequential scan. Function definitions are not resolved here: the
    per-unit definition arrays are concatenated, and the function
    dependence graph decides which definition a name means and which
    unit is its home. The prototype table starts at the units' summed
    sizes, so it never grows. The struct table keeps its fixed start: the
    global pass creates variables in its iteration order, which its
    bucket count decides. A single unit is its own whole program. *)
let merge (units : t list) : t =
  match units with
  | [ u ] -> u
  | _ ->
    let t =
      {
        typedefs = Hashtbl.create 64;
        comps = Hashtbl.create 64;
        protos =
          Hashtbl.create (List.fold_left (fun n u -> n + Hashtbl.length u.protos) 0 units);
        order = List.concat_map (fun u -> u.order) units;
        defs = Array.concat (List.map (fun u -> u.defs) units);
      }
    in
    List.iter
      (fun u ->
        Hashtbl.iter (fun k v -> Hashtbl.replace t.typedefs k v) u.typedefs;
        Hashtbl.iter (fun k v -> Hashtbl.replace t.comps k v) u.comps;
        Hashtbl.iter
          (fun k v ->
            if not (Hashtbl.mem t.protos k) then Hashtbl.replace t.protos k v)
          u.protos)
      units;
    t

(* the same bindings in the same iteration order: tables that [merge]
   folds into the same table *)
let same_table a b =
  a == b
  || Hashtbl.length a = Hashtbl.length b
     && Seq.equal
          (fun (k, v) (k', v') -> String.equal k k' && compare v v' = 0)
          (Hashtbl.to_seq a) (Hashtbl.to_seq b)

(** [relink ~prev ~before after] is [merge after], built from [prev], the
    merge of [before]: the same number of units, a unit of [after] that
    is physically its predecessor being unchanged. The typedef, struct
    and prototype tables are [prev]'s own; the per-unit declaration lists
    are gathered afresh and the per-unit definition arrays are the
    units' own. No table of [prev] or of a unit is written.

    [None] when a changed unit's typedefs, struct layouts or prototypes
    differ from its predecessor's, in a binding or in iteration order:
    [merge] alone then builds tables laid out as a cold link's. *)
let relink ~(prev : t) ~(before : t array) (after : t array) : t option =
  let altered (p, u) =
    u != p
    && not
         (same_table p.typedefs u.typedefs
         && same_table p.comps u.comps
         && same_table p.protos u.protos)
  in
  if Seq.exists altered (Array.to_seq (Array.combine before after)) then None
  else
    Some
      {
        prev with
        order = List.concat_map (fun u -> u.order) (Array.to_list after);
        defs = Array.concat (Array.to_list (Array.map (fun u -> u.defs) after));
      }

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

(** Declared (prototype) type of a function not defined in this program:
    the paper's "library function" case (Section 4.2). *)
let find_proto t name = Hashtbl.find_opt t.protos name

(* [pick]'s values over every global, in order *)
let gather pick t =
  List.rev
    (List.fold_left
       (List.fold_left (fun acc g ->
            match pick g with Some x -> x :: acc | None -> acc))
       [] t.order)

(** Every function definition, in link order. *)
let functions t = List.concat_map Array.to_list (Array.to_list t.defs)

let global_vars t = gather (function GVar d -> Some d | _ -> None) t

(** Count physical source lines (for Table 1-style reporting). *)
let count_lines src =
  String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 1 src
