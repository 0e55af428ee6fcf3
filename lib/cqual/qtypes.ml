(** Qualified types for C and the paper's translation ℓ from C types to
    ref types (Section 4.1).

    All C variables denote updateable memory locations; in the paper's
    terms they are all ref types, and the C qualifiers shift up one level:
    [ℓ(Q int) = Q ref(⊥ int)] and [ℓ(Q ptr(CT)) = Q ref(Q0 ref(ρ))] where
    [(Q0, ρ) = ℓ'(CT)]. We represent a memory cell ("Q ref(ρ)") as a
    {!cell} carrying the solver variable for [Q] and the structure of its
    contents; the r-value of a pointer expression {e is} the cell it points
    to, so the standard invariant (SubRef) subtyping applies directly. *)

module Solver = Typequal.Solver
module Elt = Typequal.Lattice.Elt
open Cfront

type rt =
  | RBase  (** integers, floats, enums — their own qualifier level is
               irrelevant to const inference (always ⊥ in ℓ) *)
  | RVoid  (** contents of [void*]: matches anything, loses information *)
  | RPtr of cell  (** a pointer value: the cell it points to *)
  | RStruct of string  (** a struct/union value; fields live in the shared
                           per-tag table (Section 4.2) *)
  | RFun of fsig  (** a function designator / function pointer *)

and cell = {
  q : Solver.var;  (** the qualifier on this ref — where [const] lives *)
  mutable contents : rt;
}

and fsig = {
  fs_params : cell list;
      (** the parameter {e variables'} cells: an argument flows into the
          contents of its parameter's cell *)
  fs_ret : rt;
  fs_varargs : bool;
}

let fresh_cell ?(name = "cell") store contents =
  { q = Solver.fresh ~name store; contents }

(* ------------------------------------------------------------------ *)
(* The ℓ translation                                                   *)
(* ------------------------------------------------------------------ *)

(** Seed a cell's qualifier with its declared source qualifiers: a declared
    [const] becomes a lower bound, so the least solution reports the
    position as must-const and flows out of it carry constness. User [$q]
    qualifiers in the space are seeded the same way. *)
let seed_declared store (c : cell) (quals : Cast.quals) ~reason =
  let sp = Solver.space store in
  let elt =
    List.fold_left
      (fun acc q ->
        match Typequal.Lattice.Space.resolve sp q with
        | Some (`Qual i) -> Elt.set sp i acc
        | Some (`Level (i, l)) ->
            (* a declared level of an ordered coordinate lower-bounds the
               coordinate at that level *)
            Elt.join sp acc (Elt.with_level sp i l (Elt.bottom sp))
        | None -> acc (* qualifier not in this analysis's space: ignored *))
      (Elt.bottom sp) quals
  in
  if not (Elt.equal elt (Elt.bottom sp)) then
    Solver.add_leq_cv ~reason store elt c.q

(** [rt_of_ctype] translates an (already typedef-expanded) C type to the
    r-value structure ℓ'(CT), creating a fresh cell per pointer level and
    seeding declared qualifiers via [seed] (default: every declared
    qualifier that names a space member becomes a lower bound; analyses
    with richer declaration semantics — e.g. taint's [$untainted] sink
    markers — pass their own). *)
let rec rt_of_ctype ?seed store (ty : Cast.ctype) : rt =
  match ty with
  | TVoid _ -> RVoid
  | TInt _ | TFloat _ -> RBase
  | TStruct (tag, _) -> RStruct tag
  | TNamed (n, _) ->
      (* an unexpanded typedef can only reach here when its definition was
         lost (e.g. to a parse error); signal it like Cprog.expand does so
         the analysis demotes the enclosing function to degraded instead
         of crashing the run *)
      raise (Cprog.Frontend_error ("unknown typedef " ^ n))
  | TPtr (target, _) | TArray (target, _, _) ->
      let c = cell_of_ctype ?seed store target in
      RPtr c
  | TFun (ret, params, varargs) ->
      RFun
        {
          fs_params =
            List.map (fun (n, pt) -> cell_of_param ?seed store n pt) params;
          fs_ret = rt_of_ctype ?seed store (Cprog.decay ret);
          fs_varargs = varargs;
        }

(** The cell for a memory location holding a value of C type [ty]: its
    qualifier carries [ty]'s top-level declared qualifiers (ℓ shifts them
    onto the ref). *)
and cell_of_ctype ?(name = "cell") ?seed store (ty : Cast.ctype) : cell =
  let c = fresh_cell ~name store (rt_of_ctype ?seed store ty) in
  (match seed with
  | Some f -> f c (Cast.quals_of ty)
  | None -> seed_declared store c (Cast.quals_of ty) ~reason:"declared qualifier");
  c

and cell_of_param ?seed store pname pt =
  cell_of_ctype ~name:("param_" ^ pname) ?seed store (Cprog.decay pt)

(* ------------------------------------------------------------------ *)
(* Subtyping (SubRef is invariant — Section 2.4)                       *)
(* ------------------------------------------------------------------ *)

(* C programs defeat the type system in ways the paper enumerates
   (Section 4.2); on shape mismatch we lose the association rather than
   fail, like the paper's handling of casts. *)
let rec sub ?reason store (r1 : rt) (r2 : rt) : unit =
  match (r1, r2) with
  | RPtr c1, RPtr c2 ->
      Solver.add_leq_vv ?reason store c1.q c2.q;
      eq_contents ?reason store c1.contents c2.contents
  | RFun f1, RFun f2 -> eq_fsig ?reason store f1 f2
  (* a function designator decays to a function pointer (and back):
     storing a function into a function-pointer cell links the
     signatures *)
  | RFun f1, RPtr { contents = RFun f2; _ }
  | RPtr { contents = RFun f1; _ }, RFun f2 ->
      eq_fsig ?reason store f1 f2
  | RStruct _, RStruct _ | RBase, RBase -> ()
  | _ -> () (* implicit conversion: retain nothing across shapes *)

and eq_contents ?reason store (r1 : rt) (r2 : rt) : unit =
  match (r1, r2) with
  | RVoid, _ | _, RVoid -> () (* void* erases deeper structure *)
  | RPtr c1, RPtr c2 ->
      if c1 != c2 then begin
        Solver.add_eq_vv ?reason store c1.q c2.q;
        eq_contents ?reason store c1.contents c2.contents
      end
  | RFun f1, RFun f2 -> eq_fsig ?reason store f1 f2
  | RFun f1, RPtr { contents = RFun f2; _ }
  | RPtr { contents = RFun f1; _ }, RFun f2 ->
      eq_fsig ?reason store f1 f2
  | _ -> ()

and eq_fsig ?reason store f1 f2 =
  (* function pointers: equate parameter and return structure *)
  List.iter2
    (fun (c1 : cell) (c2 : cell) ->
      if c1 != c2 then begin
        Solver.add_eq_vv ?reason store c1.q c2.q;
        eq_contents ?reason store c1.contents c2.contents
      end)
    (take_common f1.fs_params f2.fs_params)
    (take_common f2.fs_params f1.fs_params);
  sub ?reason store f1.fs_ret f2.fs_ret;
  sub ?reason store f2.fs_ret f1.fs_ret

and take_common a b =
  (* mismatched arities happen in real C; relate the common prefix *)
  let la = List.length a and lb = List.length b in
  if la <= lb then a else List.filteri (fun i _ -> i < lb) a

(* ------------------------------------------------------------------ *)
(* Copying under a renaming (polymorphic instantiation, Section 4.3)   *)
(* ------------------------------------------------------------------ *)

(** Structural copy of an interface with every cell's qualifier variable
    mapped through [rn]; shared cells stay shared (memo on identity). *)
let copy_rt (rn : Solver.var -> Solver.var) (r : rt) : rt =
  let memo : (int, cell) Hashtbl.t = Hashtbl.create 8 in
  let rec go_rt = function
    | (RBase | RVoid | RStruct _) as r -> r
    | RPtr c -> RPtr (go_cell c)
    | RFun f ->
        RFun
          {
            fs_params = List.map go_cell f.fs_params;
            fs_ret = go_rt f.fs_ret;
            fs_varargs = f.fs_varargs;
          }
  and go_cell c =
    match Hashtbl.find_opt memo (Solver.var_id c.q) with
    | Some c' -> c'
    | None ->
        let c' = { q = rn c.q; contents = RBase } in
        Hashtbl.add memo (Solver.var_id c.q) c';
        c'.contents <- go_rt c.contents;
        c'
  in
  go_rt r

let copy_fsig rn (f : fsig) : fsig =
  match copy_rt rn (RFun f) with RFun f' -> f' | _ -> assert false

(** All qualifier variables reachable from an r-type (for generalization
    bookkeeping). *)
let rt_qvars (r : rt) : Solver.var list =
  match r with
  | RBase | RVoid | RStruct _ -> [] (* no cells: skip the visited table *)
  | RPtr _ | RFun _ ->
      let seen = Hashtbl.create 16 in
      let acc = ref [] in
      let rec go_rt = function
        | RBase | RVoid | RStruct _ -> ()
        | RPtr c -> go_cell c
        | RFun f ->
            List.iter go_cell f.fs_params;
            go_rt f.fs_ret
      and go_cell c =
        if not (Hashtbl.mem seen (Solver.var_id c.q)) then begin
          Hashtbl.add seen (Solver.var_id c.q) ();
          acc := c.q :: !acc;
          go_rt c.contents
        end
      in
      go_rt r;
      !acc

(* ------------------------------------------------------------------ *)
(* Hash-consed shapes                                                  *)
(* ------------------------------------------------------------------ *)

(** The qualifier-less skeleton of an r-type, hash-consed per analysis
    environment: structurally equal r-types (including their cell-sharing
    pattern, but independent of which qualifier variables they carry) map
    to the same small integer. A shape id plus the DFS sequence of
    qualifier variables (the {!rt_qvars} order — cell numbering below
    visits in the same order) fully determines every constraint a
    structural [sub] against the r-type emits, which is what makes shapes
    usable as instantiation-memo keys. *)
module Shape = struct
  type t = {
    sh_id : int;
    sh_flat : bool;
        (* no RPtr/RFun anywhere: a structural [sub] against a flat
           r-type emits no constraints at all *)
  }

  type table = {
    tbl : (string, t) Hashtbl.t;
    mutable next : int;
    by_cell : (int, t) Hashtbl.t;
        (* root-cell intern: id of an [RPtr] root's qualifier → shape.
           Sound because a cell's reachable structure is fixed once its
           builder returns ([copy_rt]/[mirror]/decode tie the knot before
           exposing the cell), and a qualifier variable shared between two
           cells only arises through structure-preserving copies — the
           cells are isomorphic, so their shapes coincide. *)
  }

  let create_table () =
    { tbl = Hashtbl.create 64; next = 0; by_cell = Hashtbl.create 256 }

  let id s = s.sh_id
  let flat s = s.sh_flat

  let intern table key ~flat =
    match Hashtbl.find_opt table.tbl key with
    | Some s -> s
    | None ->
        let s = { sh_id = table.next; sh_flat = flat } in
        table.next <- table.next + 1;
        Hashtbl.add table.tbl key s;
        s

  (* canonical structural key: cells are numbered by first visit and
     back-references rendered as [@k], so aliasing patterns distinguish
     shapes while the variables themselves do not *)
  let of_rt_uncached table (r : rt) : t =
    let buf = Buffer.create 32 in
    let seen = Hashtbl.create 8 in
    let count = ref 0 in
    let flat = ref true in
    let rec go_rt = function
      | RBase -> Buffer.add_char buf 'b'
      | RVoid -> Buffer.add_char buf 'v'
      | RStruct tag ->
          Buffer.add_char buf 's';
          Buffer.add_string buf tag;
          Buffer.add_char buf ';'
      | RPtr c ->
          flat := false;
          Buffer.add_char buf 'p';
          go_cell c
      | RFun f ->
          flat := false;
          Buffer.add_char buf (if f.fs_varargs then 'F' else 'f');
          Buffer.add_char buf '(';
          List.iter go_cell f.fs_params;
          Buffer.add_char buf ')';
          go_rt f.fs_ret
    and go_cell c =
      match Hashtbl.find_opt seen (Solver.var_id c.q) with
      | Some k ->
          Buffer.add_char buf '@';
          Buffer.add_string buf (string_of_int k)
      | None ->
          Hashtbl.add seen (Solver.var_id c.q) !count;
          incr count;
          Buffer.add_char buf 'c';
          go_rt c.contents
    in
    go_rt r;
    intern table (Buffer.contents buf) ~flat:!flat

  (* fast paths over the canonical-key walk: cell-free skeletons intern
     against constant keys (no buffer, no visited table), and pointer
     roots are remembered per root cell — repeated shape queries against
     the same argument type (every call site of a session-memo candidate
     makes one per argument) become a single table hit *)
  let of_rt table (r : rt) : t =
    match r with
    | RBase -> intern table "b" ~flat:true
    | RVoid -> intern table "v" ~flat:true
    | RStruct tag -> intern table ("s" ^ tag ^ ";") ~flat:true
    | RPtr c -> (
        let id = Solver.var_id c.q in
        match Hashtbl.find_opt table.by_cell id with
        | Some s -> s
        | None ->
            let s = of_rt_uncached table r in
            Hashtbl.add table.by_cell id s;
            s)
    | RFun _ -> of_rt_uncached table r
end
