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
      fundefs = Hashtbl.create 16;
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
      | GFun f -> Hashtbl.replace t.fundefs f.f_name f
      | GProto (name, ty, _) ->
          if not (Hashtbl.mem t.protos name) then Hashtbl.replace t.protos name ty
      | GVar _ | GEnum _ -> ())
    prog;
  t

(** Link per-unit tables into one whole-program table, in unit order.
    Deterministically equivalent to {!build} over the concatenation of
    the units' globals: typedefs, struct/union layouts and function
    definitions resolve last-definition-wins, while prototypes keep the
    first declaration — each per-unit table has already collapsed its
    within-unit duplicates the same way, so a cross-unit table fold in
    file order reproduces the sequential scan. The function and
    prototype tables start at the units' summed sizes, so they never
    grow. The struct table keeps its fixed start: the global pass
    creates variables in its iteration order, which its bucket count
    decides. A single unit is its own whole program. *)
let merge (units : t list) : t =
  match units with
  | [ u ] -> u
  | _ ->
    let sum tbl = List.fold_left (fun n u -> n + Hashtbl.length (tbl u)) 0 units in
    let t =
      {
        typedefs = Hashtbl.create 64;
        comps = Hashtbl.create 64;
        fundefs = Hashtbl.create (sum (fun u -> u.fundefs));
        protos = Hashtbl.create (sum (fun u -> u.protos));
        order = List.concat_map (fun u -> u.order) units;
        defs = Array.concat (List.map (fun u -> u.defs) units);
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

(** The first unit of [units] that defines [name], or the last with
    [~last:true]. *)
let defining_unit ~last (units : t array) name =
  let n = Array.length units in
  let rec go k =
    if k = n then None
    else
      let j = if last then n - 1 - k else k in
      if Hashtbl.mem units.(j).fundefs name then Some j else go (k + 1)
  in
  go 0

(** [relink ~prev ~before after] is [merge after], built from [prev], the
    merge of [before]: the same number of units, a unit of [after] that
    is physically its predecessor being unchanged. The typedef, struct
    and prototype tables are [prev]'s own; the function table is a copy
    of [prev]'s with the changed units' definitions patched in, the last
    definition winning; the per-unit declaration lists are gathered
    afresh and the per-unit definition arrays are the units' own. No
    table of [prev] or of a unit is written. Also returns the
    names whose defining units changed: those a changed unit defines
    and did not, or defined and does not.

    [None] when a changed unit's typedefs, struct layouts or prototypes
    differ from its predecessor's, in a binding or in iteration order:
    [merge] alone then builds tables laid out as a cold link's. *)
let relink ~(prev : t) ~(before : t array) (after : t array) :
    (t * string list) option =
  let altered (p, u) =
    u != p
    && not
         (same_table p.typedefs u.typedefs
         && same_table p.comps u.comps
         && same_table p.protos u.protos)
  in
  if Seq.exists altered (Array.to_seq (Array.combine before after)) then None
  else begin
    let fundefs = Hashtbl.copy prev.fundefs in
    let moved = ref [] in
    Array.iteri
      (fun i u ->
        let p = before.(i) in
        if u != p then begin
          let kept = ref 0 in
          Hashtbl.iter
            (fun name f ->
              match Hashtbl.find_opt p.fundefs name with
              | None -> moved := name :: !moved
              | Some old -> (
                  incr kept;
                  (* this unit still defines it: unless another changed
                     unit started or stopped defining it (resolved
                     below), the same unit wins, and where that is this
                     one, with its new definition. Each unit's
                     definitions are its own values, so [prev] holds
                     this unit's old one exactly when this unit won. *)
                  if f != old then
                    match Hashtbl.find_opt prev.fundefs name with
                    | Some w when w == old -> Hashtbl.replace fundefs name f
                    | _ -> ()))
            u.fundefs;
          if !kept < Hashtbl.length p.fundefs then
            Hashtbl.iter
              (fun name _ ->
                if not (Hashtbl.mem u.fundefs name) then moved := name :: !moved)
              p.fundefs
        end)
      after;
    (* after every patch above, which a moved name's resolution
       overrides *)
    List.iter
      (fun name ->
        match defining_unit ~last:true after name with
        | Some j -> Hashtbl.replace fundefs name (Hashtbl.find after.(j).fundefs name)
        | None -> Hashtbl.remove fundefs name)
      !moved;
    Some
      ( {
          prev with
          fundefs;
          order = List.concat_map (fun u -> u.order) (Array.to_list after);
          defs = Array.concat (Array.to_list (Array.map (fun u -> u.defs) after));
        },
        !moved )
  end

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
