(** Qualified types (Section 2.1): standard types in which every
    constructor carries a qualifier, here always a solver variable (ground
    qualifiers are expressed by pinning the variable with constant bounds).

    The type structure is shared/unified imperatively, mirroring the
    factorization the paper describes: the {e shapes} are solved by
    ordinary unification (the standard type system), while the qualifiers
    generate atomic lattice constraints solved separately by
    {!Typequal.Solver}. Qualifiers never influence which shapes unify
    (Observation 1). *)

module Solver = Typequal.Solver
module Elt = Typequal.Lattice.Elt

type t = { q : Solver.var; shape : shape }

and shape =
  | Var of tv
  | Int
  | Unit
  | Fun of t * t
  | Ref of t

and tv = { id : int; mutable link : shape option }

exception Type_error of string

let counter = ref 0

let fresh_tv () =
  incr counter;
  { id = !counter; link = None }

let rec repr = function
  | Var ({ link = Some s; _ } as v) ->
      let s' = repr s in
      v.link <- Some s';
      s'
  | s -> s

let make store ?(name = "q") shape = { q = Solver.fresh ~name store; shape }
let fresh store ?name () = make store ?name (Var (fresh_tv ()))

(** [sp store tau]: the spread operator of Section 3.1 — rewrite a standard
    type into a qualified type by decorating every constructor with a fresh
    qualifier variable. Standard type variables are rewritten consistently
    (the [V] map of the paper) via [tvmap]. *)
let sp store tau =
  let tvmap : (int, shape) Hashtbl.t = Hashtbl.create 8 in
  let rec go tau =
    match Stype.repr tau with
    | Stype.SVar v -> (
        match Hashtbl.find_opt tvmap v.Stype.id with
        | Some sh -> { q = Solver.fresh ~name:"sp" store; shape = sh }
        | None ->
            let sh = Var (fresh_tv ()) in
            Hashtbl.add tvmap v.Stype.id sh;
            { q = Solver.fresh ~name:"sp" store; shape = sh })
    | Stype.SInt -> make store ~name:"sp" Int
    | Stype.SUnit -> make store ~name:"sp" Unit
    | Stype.SFun (a, r) -> make store ~name:"sp" (Fun (go a, go r))
    | Stype.SRef c -> make store ~name:"sp" (Ref (go c))
  in
  go tau

(** [strip rho]: forget the qualifiers (Section 2.3). Unresolved shape
    variables become fresh standard type variables, consistently. *)
let strip rho =
  let tvmap : (int, Stype.t) Hashtbl.t = Hashtbl.create 8 in
  let rec go rho =
    match repr rho.shape with
    | Var v -> (
        match Hashtbl.find_opt tvmap v.id with
        | Some t -> t
        | None ->
            let t = Stype.fresh_var () in
            Hashtbl.add tvmap v.id t;
            t)
    | Int -> Stype.SInt
    | Unit -> Stype.SUnit
    | Fun (a, r) -> Stype.SFun (go a, go r)
    | Ref c -> Stype.SRef (go c)
  in
  go rho

let rec occurs v sh =
  match repr sh with
  | Var v' -> v == v'
  | Int | Unit -> false
  | Fun (a, r) -> occurs v a.shape || occurs v r.shape
  | Ref c -> occurs v c.shape

(* ------------------------------------------------------------------ *)
(* Subtyping constraint decomposition (Figure 4a)                      *)
(* ------------------------------------------------------------------ *)

(* When a shape variable meets a constructed shape we link them, sharing
   the constructed side's qualified subterms. Sharing makes the inner
   qualifiers of the two sides equal, which is a sound (conservative)
   strengthening of the co/contravariant rules; the top-level qualifiers
   are still related by the proper inequality. (The paper's own const
   system relies on equality under ref anyway — rule (SubRef).) *)
let link v sh =
  (match sh with
  | Var v' when v == v' -> ()
  | _ ->
      if occurs v sh then raise (Type_error "occurs check (recursive type)");
      v.link <- Some sh)

(* [sub store r1 r2] emits the atomic constraints for [r1 <= r2]:
   (SubInt)/(SubUnit): Q1 <= Q2; (SubFun): contravariant domain, covariant
   codomain; (SubRef): invariant contents (the sound rule of Section 2.4 —
   see the unsound covariant variant exercised in the ablation tests). *)
let rec sub ?reason store r1 r2 =
  Solver.add_leq_vv ?reason store r1.q r2.q;
  sub_shape ?reason store r1.shape r2.shape

and sub_shape ?reason store s1 s2 =
  match (repr s1, repr s2) with
  | Var v1, Var v2 when v1 == v2 -> ()
  | Var v, s | s, Var v -> link v s
  | Int, Int | Unit, Unit -> ()
  | Fun (a1, r1), Fun (a2, r2) ->
      sub ?reason store a2 a1;
      sub ?reason store r1 r2
  | Ref c1, Ref c2 -> eq ?reason store c1 c2
  | s1, s2 ->
      raise
        (Type_error
           (Fmt.str "cannot relate %a and %a" pp_shape_simple s1
              pp_shape_simple s2))

(* [eq store r1 r2]: rho1 = rho2, i.e. both inequalities (the paper
   abbreviates exactly so). *)
and eq ?reason store r1 r2 =
  Solver.add_eq_vv ?reason store r1.q r2.q;
  match (repr r1.shape, repr r2.shape) with
  | Var v1, Var v2 when v1 == v2 -> ()
  | Var v, s | s, Var v -> link v s
  | Int, Int | Unit, Unit -> ()
  | Fun (a1, b1), Fun (a2, b2) ->
      eq ?reason store a1 a2;
      eq ?reason store b1 b2
  | Ref c1, Ref c2 -> eq ?reason store c1 c2
  | s1, s2 ->
      raise
        (Type_error
           (Fmt.str "cannot equate %a and %a" pp_shape_simple s1
              pp_shape_simple s2))

and pp_shape_simple ppf = function
  | Var v -> Fmt.pf ppf "'s%d" v.id
  | Int -> Fmt.string ppf "int"
  | Unit -> Fmt.string ppf "unit"
  | Fun _ -> Fmt.string ppf "(_ -> _)"
  | Ref _ -> Fmt.string ppf "ref(_)"

(** The deliberately unsound covariant-ref decomposition from Section 2.4
    (rule (Unsound)), kept only so tests and the ablation bench can show it
    accepts the paper's counterexample. *)
let rec sub_unsound_ref ?reason store r1 r2 =
  Solver.add_leq_vv ?reason store r1.q r2.q;
  match (repr r1.shape, repr r2.shape) with
  | Var v1, Var v2 when v1 == v2 -> ()
  | Var v, s | s, Var v -> link v s
  | Int, Int | Unit, Unit -> ()
  | Fun (a1, b1), Fun (a2, b2) ->
      sub_unsound_ref ?reason store a2 a1;
      sub_unsound_ref ?reason store b1 b2
  | Ref c1, Ref c2 -> sub_unsound_ref ?reason store c1 c2 (* covariant! *)
  | s1, s2 ->
      raise
        (Type_error
           (Fmt.str "cannot relate %a and %a" pp_shape_simple s1
              pp_shape_simple s2))

(* ------------------------------------------------------------------ *)
(* Copying under a qualifier-variable renaming (scheme instantiation)  *)
(* ------------------------------------------------------------------ *)

(** [rename_copy rn rho]: structural copy of [rho] with every qualifier
    variable mapped through [rn]. Resolved shapes are copied; unresolved
    shape variables are {e shared} (types are monomorphic — only qualifiers
    are polymorphic, Section 3.2). *)
let rename_copy rn rho =
  let rec go rho =
    let q = rn rho.q in
    match repr rho.shape with
    | Var _ as sh -> { q; shape = sh }
    | Int -> { q; shape = Int }
    | Unit -> { q; shape = Unit }
    | Fun (a, r) -> { q; shape = Fun (go a, go r) }
    | Ref c -> { q; shape = Ref (go c) }
  in
  go rho

(** All qualifier variables reachable in a type (through resolved links). *)
let qvars rho =
  let acc = ref [] in
  let seen = Hashtbl.create 8 in
  let rec go rho =
    if not (Hashtbl.mem seen (Solver.var_id rho.q)) then begin
      Hashtbl.add seen (Solver.var_id rho.q) ();
      acc := rho.q :: !acc
    end;
    match repr rho.shape with
    | Var _ | Int | Unit -> ()
    | Fun (a, r) ->
        go a;
        go r
    | Ref c -> go c
  in
  go rho;
  !acc

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

(** Print a qualified type with each qualifier variable's {e least}
    solution (call after solving). *)
let pp_solved store ppf rho =
  let sp = Solver.space store in
  let pq ppf q = Elt.pp sp ppf (Solver.least store q) in
  let rec go ppf rho =
    match repr rho.shape with
    | Var v -> Fmt.pf ppf "%a 's%d" pq rho.q v.id
    | Int -> Fmt.pf ppf "%a int" pq rho.q
    | Unit -> Fmt.pf ppf "%a unit" pq rho.q
    | Fun (a, r) -> Fmt.pf ppf "%a (%a -> %a)" pq rho.q go a go r
    | Ref c -> Fmt.pf ppf "%a ref(%a)" pq rho.q go c
  in
  go ppf rho
