(** Flow-sensitive qualifiers (the paper's Section 6, "Future Work").

    The paper's framework keeps one qualified type per location for the
    whole program, which cannot express lclint-style analyses "in which
    annotations on a given location may vary at each program point". The
    solution it sketches: {e assign each location a distinct type at every
    program point and add subtyping constraints between the different
    types — if statement [s] does not perform a strong update of [x] add
    [tau1 <= tau2]; if [s] strongly updates [x], do not add this
    constraint.}

    This module implements that sketch for mini-C, intraprocedurally, for
    scalar locals, over the taint qualifier:

    - every tracked local has a fresh qualifier variable per program
      point; ordinary statements thread the state;
    - an assignment to a local whose address is never taken is a {e
      strong update}: the new variable is constrained only by the
      right-hand side, severing the past;
    - address-taken locals get {e weak} updates (old state flows in too);
    - control-flow joins (if/else, switch, loop back edges, break and
      continue) introduce fresh merge variables with a constraint from
      each incoming state — loops need no fixpoint iteration because the
      constraint solver already computes one over the cyclic graph;
    - sources and sinks come from the Section 2.5 [$]-qualifier syntax on
      prototypes: [$tainted int read_input(void);] and
      [void run($untainted int cmd);].

    A [goto] or a label makes the enclosing function fall back to
    flow-insensitive mode (one variable per local) — the approximation is
    per-function and explicit in the result. The flow-insensitive mode is
    also available directly, as the comparison baseline. *)

module Solver = Typequal.Solver
module Elt = Typequal.Lattice.Elt
module Space = Typequal.Lattice.Space
open Cfront

let space = Space.create [ Typequal.Qualifier.tainted ]

type mode = Sensitive | Insensitive

type func_result = {
  fr_name : string;
  fr_fell_back : bool;  (** goto/label forced flow-insensitive analysis *)
}

type result = {
  errors : string list;  (** one per violated sink constraint *)
  functions : func_result list;
}

(* per-function analysis context *)
type ctx = {
  store : Solver.t;
  prog : Cprog.t;
  defined : (string, Cast.fundef) Hashtbl.t;  (** name -> its last definition *)
  addr_taken : (string, unit) Hashtbl.t;
  flow : bool;  (** false: one variable per local (fallback/baseline) *)
  tainted_elt : Elt.t;
  not_tainted : Elt.t;
  mutable breaks : state list;  (** pending break states (innermost loop) *)
  mutable continues : state list;
}

(* the abstract state: taint variable of each tracked local *)
and state = (string * Solver.var) list

let fresh ctx name = Solver.fresh ~name:("flow_" ^ name) ctx.store

let lookup st x = List.assoc_opt x st

(* same binding discipline as [(x, v) :: List.remove_assoc x st] (new
   binding at the head, first old occurrence dropped) in one traversal
   without the intermediate list *)
let update st x v =
  let rec drop = function
    | [] -> []
    | (y, _) :: tl when String.equal y x -> tl
    | b :: tl -> b :: drop tl
  in
  (x, v) :: drop st

(* join two states: fresh variable per local, both branches flow in *)
let join_states ctx (a : state) (b : state) : state =
  List.map
    (fun (x, va) ->
      match lookup b x with
      | Some vb when Solver.var_id vb <> Solver.var_id va ->
          let v = fresh ctx (x ^ "_join") in
          Solver.add_leq_vv ~reason:"control-flow join" ctx.store va v;
          Solver.add_leq_vv ~reason:"control-flow join" ctx.store vb v;
          (x, v)
      | _ -> (x, va))
    a

let join_all ctx = function
  | [] -> None
  | s :: rest -> Some (List.fold_left (join_states ctx) s rest)

(* ------------------------------------------------------------------ *)
(* Declared $-qualifiers on prototypes                                 *)
(* ------------------------------------------------------------------ *)

let ret_tainted ctx fname =
  match Cprog.find_proto ctx.prog fname with
  | Some (TFun (ret, _, _)) -> Cast.has_qual "tainted" (Cast.quals_of ret)
  | _ -> (
      match Hashtbl.find_opt ctx.defined fname with
      | Some f -> Cast.has_qual "tainted" (Cast.quals_of f.f_ret)
      | None -> false)

let param_decls ctx fname =
  match Cprog.find_proto ctx.prog fname with
  | Some (TFun (_, ps, _)) -> List.map snd ps
  | _ -> (
      match Hashtbl.find_opt ctx.defined fname with
      | Some f -> List.map snd f.f_params
      | None -> [])

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

(* taint of an expression in a state; returns (taint var, state) — calls
   have no effect on tracked locals except through explicit assignment
   (scalars are passed by value) *)
let rec taint_of ctx (st : state) (e : Cast.expr) : Solver.var * state =
  match e with
  | EInt _ | EFloat _ | EChar _ | EString _ | ESizeofT _ | ESizeofE _ ->
      (fresh ctx "lit", st)
  | EVar x -> (
      match lookup st x with
      | Some v -> (v, st)
      | None -> (fresh ctx ("ext_" ^ x), st))
  | EUnop (_, e) | ECast (_, e) ->
      (* unary ops preserve taint; casts of scalars do too (a cast cannot
         launder a value the way it severs pointer structure) *)
      taint_of ctx st e
  | EBinop (_, a, b) ->
      let va, st = taint_of ctx st a in
      let vb, st = taint_of ctx st b in
      let r = fresh ctx "binop" in
      Solver.add_leq_vv ~reason:"left operand taints result" ctx.store va r;
      Solver.add_leq_vv ~reason:"right operand taints result" ctx.store vb r;
      (r, st)
  | ECond (g, a, b) ->
      let _, st = taint_of ctx st g in
      let va, st = taint_of ctx st a in
      let vb, st = taint_of ctx st b in
      let r = fresh ctx "cond" in
      Solver.add_leq_vv ~reason:"?: left" ctx.store va r;
      Solver.add_leq_vv ~reason:"?: right" ctx.store vb r;
      (r, st)
  | EComma (a, b) ->
      let st = effects ctx st a in
      taint_of ctx st b
  | EAssign (lhs, rhs) ->
      let v, st = assign ctx st lhs rhs in
      (v, st)
  | EAssignOp (_, lhs, rhs) ->
      (* x op= e reads x: a weak update regardless *)
      let vr, st = taint_of ctx st rhs in
      let vold, st = taint_of ctx st lhs in
      let v = fresh ctx "opassign" in
      Solver.add_leq_vv ~reason:"compound assignment" ctx.store vold v;
      Solver.add_leq_vv ~reason:"compound assignment" ctx.store vr v;
      let st = weak_or_strong_update ctx st lhs v ~strong:false in
      (v, st)
  | EIncDec (_, _, lhs) ->
      let vold, st = taint_of ctx st lhs in
      let st = weak_or_strong_update ctx st lhs vold ~strong:false in
      (vold, st)
  | ECall (EVar fname, args) ->
      let decls = param_decls ctx fname in
      let st =
        List.fold_left
          (fun st (i, arg) ->
            let va, st = taint_of ctx st arg in
            (match List.nth_opt decls i with
            | Some pt when Cast.has_qual "untainted" (Cast.quals_of pt) ->
                Solver.add_leq_vc
                  ~reason:
                    (Printf.sprintf "argument %d of sink %s must be untainted"
                       i fname)
                  ctx.store va ctx.not_tainted
            | _ -> ());
            st)
          st
          (List.mapi (fun i a -> (i, a)) args)
      in
      let r = fresh ctx ("ret_" ^ fname) in
      if ret_tainted ctx fname then
        Solver.add_leq_cv
          ~reason:(fname ^ " returns tainted data (source)")
          ctx.store ctx.tainted_elt r;
      (r, st)
  | ECall (f, args) ->
      let st = effects ctx st f in
      let st = List.fold_left (fun st a -> effects ctx st a) st args in
      (fresh ctx "indirect_call", st)
  | EAddr e | EDeref e | EIndex (e, _) | EMember (e, _) | EArrow (e, _) ->
      let st = effects ctx st e in
      (fresh ctx "mem", st)
  | EInitList es ->
      let st = List.fold_left (fun st e -> effects ctx st e) st es in
      (fresh ctx "init", st)

and effects ctx st e =
  let _, st = taint_of ctx st e in
  st

and weak_or_strong_update ctx st lhs v ~strong : state =
  match lhs with
  | EVar x when lookup st x <> None ->
      let strong =
        strong && ctx.flow && not (Hashtbl.mem ctx.addr_taken x)
      in
      if strong then update st x v
      else begin
        (* weak: the new value joins the old *)
        let old = Option.get (lookup st x) in
        if Solver.var_id old <> Solver.var_id v then
          Solver.add_leq_vv ~reason:"weak update" ctx.store v old;
        st
      end
  | _ -> st (* writes through memory are outside the scalar tracking *)

and assign ctx st lhs rhs : Solver.var * state =
  let vr, st = taint_of ctx st rhs in
  match lhs with
  | EVar x when lookup st x <> None ->
      if ctx.flow && not (Hashtbl.mem ctx.addr_taken x) then begin
        (* strong update: a brand-new variable, severed from the past *)
        let v = fresh ctx (x ^ "_upd") in
        Solver.add_leq_vv ~reason:"assignment" ctx.store vr v;
        (v, update st x v)
      end
      else begin
        let old = Option.get (lookup st x) in
        Solver.add_leq_vv ~reason:"weak assignment" ctx.store vr old;
        (old, st)
      end
  | _ ->
      let st = effects ctx st lhs in
      (vr, st)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let is_scalar = function
  | Cast.TInt _ | Cast.TFloat _ -> true
  | _ -> false

let rec stmt ctx (st : state) (s : Cast.stmt) : state =
  match s with
  | SExpr e -> effects ctx st e
  | SDecl ds ->
      List.fold_left
        (fun st (d : Cast.decl) ->
          let ty = Cprog.expand ctx.prog d.d_type in
          if is_scalar ty then begin
            let v = fresh ctx d.d_name in
            if Cast.has_qual "tainted" (Cast.quals_of ty) then
              Solver.add_leq_cv ~reason:"declared $tainted" ctx.store
                ctx.tainted_elt v;
            if Cast.has_qual "untainted" (Cast.quals_of ty) then
              Solver.add_leq_vc ~reason:"declared $untainted" ctx.store v
                ctx.not_tainted;
            let st = (d.d_name, v) :: st in
            match d.d_init with
            | Some e ->
                let vi, st = taint_of ctx st e in
                Solver.add_leq_vv ~reason:"initializer" ctx.store vi v;
                st
            | None -> st
          end
          else
            match d.d_init with Some e -> effects ctx st e | None -> st)
        st ds
  | SBlock ss -> List.fold_left (stmt ctx) st ss
  | SIf (g, s1, s2) ->
      let st = effects ctx st g in
      let st1 = stmt ctx st s1 in
      let st2 = match s2 with Some s2 -> stmt ctx st s2 | None -> st in
      if ctx.flow then join_states ctx st1 st2
      else st (* insensitive: all vars are shared anyway *)
  | SWhile (g, body) -> loop ctx st ~pre_test:(Some g) ~post_test:None body
  | SDoWhile (body, g) ->
      loop ctx st ~pre_test:None ~post_test:(Some g) body
  | SFor (init, cond, step, body) ->
      let st = match init with Some s -> stmt ctx st s | None -> st in
      let body' =
        Cast.SBlock
          (body :: (match step with Some e -> [ Cast.SExpr e ] | None -> []))
      in
      loop ctx st ~pre_test:cond ~post_test:None body'
  | SReturn (Some e) -> effects ctx st e
  | SReturn None | SNull -> st
  | SBreak ->
      ctx.breaks <- st :: ctx.breaks;
      st
  | SContinue ->
      ctx.continues <- st :: ctx.continues;
      st
  | SSwitch (g, body) ->
      let st = effects ctx st g in
      (* all cases start from the switch head; the result joins the body's
         fall-out with the pending breaks and the head (default absent) *)
      let saved = ctx.breaks in
      ctx.breaks <- [];
      let out = stmt ctx st body in
      let exits = (out :: ctx.breaks) @ [ st ] in
      ctx.breaks <- saved;
      if ctx.flow then Option.get (join_all ctx exits) else st
  | SCase (_, s) | SDefault s | SLabel (_, s) -> stmt ctx st s
  | SGoto _ -> st (* only reached in fallback mode; see [uses_goto] *)

(* A structured loop: head variables receive the entry state and the back
   edge (body exit and continues); the loop exit joins the head (zero
   iterations) with pending breaks. *)
and loop ctx st ~pre_test ~post_test body : state =
  if not ctx.flow then begin
    let st = match pre_test with Some g -> effects ctx st g | None -> st in
    let st = stmt ctx st body in
    match post_test with Some g -> effects ctx st g | None -> st
  end
  else begin
    (* fresh head variable per local *)
    let head =
      List.map
        (fun (x, v) ->
          let h = fresh ctx (x ^ "_loop") in
          Solver.add_leq_vv ~reason:"loop entry" ctx.store v h;
          (x, h))
        st
    in
    let saved_b = ctx.breaks and saved_c = ctx.continues in
    ctx.breaks <- [];
    ctx.continues <- [];
    let st0 =
      match pre_test with Some g -> effects ctx head g | None -> head
    in
    let body_exit = stmt ctx st0 body in
    let body_exit =
      match post_test with
      | Some g -> effects ctx body_exit g
      | None -> body_exit
    in
    (* back edges: body exit and every continue flow into the head *)
    let back st' =
      List.iter
        (fun (x, h) ->
          match lookup st' x with
          | Some v when Solver.var_id v <> Solver.var_id h ->
              Solver.add_leq_vv ~reason:"loop back edge" ctx.store v h
          | _ -> ())
        head
    in
    back body_exit;
    List.iter back ctx.continues;
    (* exit: the head state (the test can fail on any iteration) joined
       with the breaks *)
    let exits = head :: ctx.breaks in
    ctx.breaks <- saved_b;
    ctx.continues <- saved_c;
    Option.get (join_all ctx exits)
  end

(* ------------------------------------------------------------------ *)
(* Functions and programs                                              *)
(* ------------------------------------------------------------------ *)

let rec stmt_uses_goto = function
  | Cast.SGoto _ | Cast.SLabel _ -> true
  | SBlock ss -> List.exists stmt_uses_goto ss
  | SIf (_, a, b) ->
      stmt_uses_goto a || Option.fold ~none:false ~some:stmt_uses_goto b
  | SWhile (_, s) | SDoWhile (s, _) | SSwitch (_, s) | SCase (_, s)
  | SDefault s ->
      stmt_uses_goto s
  | SFor (i, _, _, s) ->
      Option.fold ~none:false ~some:stmt_uses_goto i || stmt_uses_goto s
  | SExpr _ | SDecl _ | SReturn _ | SBreak | SContinue | SNull -> false

let addr_taken_locals (f : Cast.fundef) : (string, unit) Hashtbl.t =
  let tbl = Hashtbl.create 8 in
  let rec expr = function
    | Cast.EAddr (EVar x) -> Hashtbl.replace tbl x ()
    | EAddr e | EUnop (_, e) | ECast (_, e) | ESizeofE e | EDeref e
    | EIncDec (_, _, e)
    | EMember (e, _)
    | EArrow (e, _) ->
        expr e
    | EBinop (_, a, b)
    | EAssign (a, b)
    | EAssignOp (_, a, b)
    | EComma (a, b)
    | EIndex (a, b) ->
        expr a;
        expr b
    | ECond (a, b, c) ->
        expr a;
        expr b;
        expr c
    | ECall (f, args) ->
        expr f;
        List.iter expr args
    | EInitList es -> List.iter expr es
    | EInt _ | EFloat _ | EChar _ | EString _ | EVar _ | ESizeofT _ -> ()
  in
  List.iter
    (fun s -> Cast.fold_stmt_exprs (fun () e -> expr e) () s)
    f.f_body;
  tbl

let analyze_function ~tainted_elt ~not_tainted ~defined store prog mode
    (f : Cast.fundef) : func_result =
  let uses_goto = List.exists stmt_uses_goto f.f_body in
  let flow = mode = Sensitive && not uses_goto in
  let ctx =
    {
      store;
      prog;
      defined;
      addr_taken = addr_taken_locals f;
      flow;
      tainted_elt;
      not_tainted;
      breaks = [];
      continues = [];
    }
  in
  (* parameters are tracked locals seeded from their declarations *)
  let st0 =
    List.filter_map
      (fun (n, pt) ->
        let ty = Cprog.expand prog pt in
        if is_scalar ty then begin
          let v = fresh ctx n in
          if Cast.has_qual "tainted" (Cast.quals_of ty) then
            Solver.add_leq_cv ~reason:"parameter declared $tainted" store
              ctx.tainted_elt v;
          if Cast.has_qual "untainted" (Cast.quals_of ty) then
            Solver.add_leq_vc ~reason:"parameter declared $untainted" store v
              ctx.not_tainted;
          Some (n, v)
        end
        else None)
      f.f_params
  in
  ignore (List.fold_left (stmt ctx) st0 f.f_body);
  { fr_name = f.f_name; fr_fell_back = mode = Sensitive && uses_goto }

(** Analyze a whole program's defined functions. *)
let analyze ?(mode = Sensitive) (prog : Cprog.t) : result =
  let store = Solver.create space in
  (* the source/sink lattice elements are program-invariant: build them
     once, not per function *)
  let tainted_elt = Elt.of_names_up space [ "tainted" ]
  and not_tainted = Elt.not_name space "tainted" in
  let fns = Cprog.functions prog in
  let defined = Hashtbl.create 64 in
  List.iter (fun (f : Cast.fundef) -> Hashtbl.replace defined f.f_name f) fns;
  let functions =
    List.map (analyze_function ~tainted_elt ~not_tainted ~defined store prog mode) fns
  in
  let errors =
    match Solver.solve store with
    | Ok () -> []
    | Error es -> List.map Solver.error_message es
  in
  { errors; functions }

(** Analyze a project's translation units, linked as every analysis
    links them ({!Session.program}). A project with a lexical or parse
    error is not analyzed: the result is its diagnostics, in unit and
    source order. *)
let analyze_units ?mode units =
  let s = Session.create units in
  match Session.diagnostics s with
  | [] -> Ok (analyze ?mode (Session.program s))
  | diags -> Error diags

(** Analyze one C source, as a one-unit project. *)
let analyze_source ?mode src = analyze_units ?mode [ ("<input>", src) ]
