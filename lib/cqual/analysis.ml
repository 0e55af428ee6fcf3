(** Const inference for C (Section 4): flow-insensitive constraint
    generation over mini-C programs.

    Every C construct the paper discusses is handled:
    - variables are refs; r-positions auto-dereference (Section 4.1);
    - assignment requires the target ref below [¬const] (rule (Assign'));
    - struct fields share one set of qualifier variables per declaration,
      while the top-level qualifiers of distinct struct variables stay
      independent (Section 4.2);
    - typedefs are macro-expanded, sharing nothing (Section 4.2);
    - undefined (library) functions are conservative: pointer arguments
      whose parameter is not declared const are forced non-const; their
      results are fresh per call (Section 4.2);
    - explicit casts lose the association between value and type; implicit
      conversions retain what they can (Section 4.2);
    - variadic calls and arity mismatches ignore extra arguments
      (Section 4.2);
    - polymorphic inference generalizes per strongly connected component of
      the FDG, traversed callees-first; global variables stay monomorphic
      (Section 4.3). *)

module Solver = Typequal.Solver
module Budget = Typequal.Budget
module Elt = Typequal.Lattice.Elt
module Space = Typequal.Lattice.Space
module Q = Typequal.Qualifier
open Cfront
open Qtypes

type mode =
  | Mono
  | Poly
  | Polyrec
      (** polymorphic recursion (Section 4.3's "we would prefer to use
          polymorphic recursion": decidable and efficient because the
          qualifier lattice is finite and qualifiers do not change the
          type structure); implemented as Mycroft-style iteration of the
          per-SCC generalization to a fixed point of the interface
          summaries *)

(** The qualifier space used by const inference. *)
let const_space = Space.create [ Q.const ]

(** Per-qualifier rule set for the C analysis — the C-side analogue of the
    example language's hooks. The engine (flows, ℓ translation, struct
    sharing, FDG polymorphism) is qualifier-agnostic; these three callbacks
    give a space its semantics. *)
type qrules = {
  qr_space : Space.t;
  qr_name : string;  (** the qualifier whose verdicts {!Report} counts *)
  qr_write : Solver.t -> Solver.var -> unit;
      (** called with the qualifier of every assigned ref (the paper's
          (Assign') choice point) *)
  qr_escape : Solver.t -> declared:Cast.quals option -> Solver.var -> unit;
      (** called with the qualifier of each pointer level of a value
          escaping to unknown code (library/variadic/undeclared calls),
          together with the declared qualifiers of the corresponding
          parameter level if a prototype provides them *)
  qr_seed : Solver.t -> Qtypes.cell -> Cast.quals -> unit;
      (** interpretation of source-level qualifiers on a declaration *)
}

(** Section 4's const rules, generalized over the ambient space (which
    must contain ["const"]): assignment targets below ¬const; escaping
    pointer levels not declared const are forced non-const; declared
    qualifiers in the space seed lower bounds. Running the same rules in a
    wider space (extra coordinates, possibly multi-level) must not change
    the const verdicts — the bench's lattice section checks exactly that. *)
let const_rules_in sp : qrules =
  let not_const = Elt.not_name sp "const" in
  {
    qr_space = sp;
    qr_name = "const";
    qr_write =
      (fun store q ->
        Solver.add_leq_vc ~reason:"assignment target must be non-const (Assign')"
          store q not_const);
    qr_escape =
      (fun store ~declared q ->
        let exempt =
          match declared with Some qs -> Cast.is_const qs | None -> false
        in
        if not exempt then
          Solver.add_leq_vc
            ~reason:"escapes to unknown code not declared const" store q
            not_const);
    qr_seed =
      (fun store c quals ->
        seed_declared store c quals ~reason:"declared qualifier");
  }

let const_rules : qrules = const_rules_in const_space

let taint_space = Space.create [ Q.tainted ]

(** CQual-style taint rules over the Section 2.5 [$]-qualifier syntax:
    [$tainted] on a declaration level seeds taint (sources), [$untainted]
    pins the level below ¬tainted (trusted sinks). Writes are unrestricted;
    escaping to unknown code neither taints nor untaints (library
    behaviour is described by its prototype annotations). *)
let taint_rules : qrules =
  let sp = taint_space in
  let not_tainted = Elt.not_name sp "tainted" in
  let tainted = Elt.of_names_up sp [ "tainted" ] in
  {
    qr_space = sp;
    qr_name = "tainted";
    qr_write = (fun _ _ -> ());
    qr_escape =
      (fun store ~declared q ->
        match declared with
        | Some qs when Cast.has_qual "untainted" qs ->
            Solver.add_leq_vc ~reason:"trusted sink ($untainted)" store q
              not_tainted
        | _ -> ());
    qr_seed =
      (fun store c quals ->
        if Cast.has_qual "tainted" quals then
          Solver.add_leq_cv ~reason:"declared $tainted (source)" store tainted
            c.Qtypes.q;
        if Cast.has_qual "untainted" quals then
          Solver.add_leq_vc ~reason:"declared $untainted (sink)" store
            c.Qtypes.q not_tainted);
  }

(** Generic rules for a user-defined lattice (the [--lattice FILE] path):
    CQual's declaration semantics. A declared classic qualifier seeds a
    lower bound (presence), as in {!const_rules}. A declared {e level} of
    an ordered coordinate pins the coordinate to exactly that level — the
    declaration states the variable's constant value, so [$tainted] data
    cannot flow into a [$untainted] cell and vice versa only downward.
    Escapes to unknown code are bounded by the declared level of the
    prototype parameter when one exists (the CQual trusted-sink pattern:
    [$untainted] pins escapes at bottom); writes are unrestricted.
    [qual] names the coordinate {!Report} measures. *)
let lattice_rules sp ~qual : qrules =
  if not (Space.mem sp qual) then
    invalid_arg ("Analysis.lattice_rules: qualifier " ^ qual ^ " not in space");
  let pin_level store v i l ~reason =
    let mask = Elt.singleton_mask sp i in
    Solver.add_leq_cv ~mask ~reason store
      (Elt.with_level sp i l (Elt.bottom sp))
      v;
    Solver.add_leq_vc ~mask ~reason store v (Elt.with_level sp i l (Elt.top sp))
  in
  {
    qr_space = sp;
    qr_name = qual;
    qr_write = (fun _ _ -> ());
    qr_escape =
      (fun store ~declared q ->
        match declared with
        | Some qs ->
            List.iter
              (fun qn ->
                match Space.resolve sp qn with
                | Some (`Level (i, l)) ->
                    Solver.add_leq_vc
                      ~mask:(Elt.singleton_mask sp i)
                      ~reason:("escapes to code declared " ^ qn)
                      store q
                      (Elt.with_level sp i l (Elt.top sp))
                | Some (`Qual _) | None -> ())
              qs
        | None -> ());
    qr_seed =
      (fun store c quals ->
        (* classic qualifiers: presence as a lower bound *)
        seed_declared store c
          (List.filter
             (fun qn ->
               match Space.resolve sp qn with Some (`Qual _) -> true | _ -> false)
             quals)
          ~reason:"declared qualifier";
        (* levels: the declaration is the coordinate's constant value *)
        List.iter
          (fun qn ->
            match Space.resolve sp qn with
            | Some (`Level (i, l)) ->
                pin_level store c.Qtypes.q i l ~reason:("declared " ^ qn)
            | Some (`Qual _) | None -> ())
          quals);
  }

(** The [--lattice FILE] rules: {!lattice_rules} over the file's space
    ({!Typequal.Lattice.Space.of_config_file}), measuring [qual]
    (default: the first qualifier the file declares). [Error] is the
    message to print. Raises [Sys_error] when the file cannot be
    read. *)
let lattice_rules_of_file ?qual path : (qrules, string) result =
  match Space.of_config_file path with
  | Error m -> Error m
  | Ok (sp, quals) -> (
      let qual =
        match qual with Some q -> q | None -> Q.name (List.hd quals)
      in
      try Ok (lattice_rules sp ~qual) with Invalid_argument m -> Error m)

type fentry =
  | FMono of fsig  (** constraints link directly to these cells *)
  | FPoly of Solver.scheme * fsig  (** instantiated per occurrence *)

(** Per-function analysis outcome. A degraded function contributed no (or
    only partial) constraints; its callers see it as a library function,
    which is conservative, and {!Report} excludes its positions. *)
type outcome = Analyzed | Degraded of string

(** May instances of a scheme be shared between call sites of the same
    callee? Decided once per (scheme, callee), from the shape of the
    registered interface and the scheme's own atoms — both structural, so
    a warm rerun reaches the verdict a cold run does. *)
type memo_verdict =
  | MFlat
      (** the whole signature is flat (flat return, flat pointed-to
          contents on every parameter): linking {e any} call against it
          emits no atoms, and the scheme's atoms can never violate on
          their own — the registered interface serves every call site
          with no instantiation at all *)
  | MSession
      (** flat return only: one instance may serve all call sites with
          identical argument shapes and variables within one recording
          session (the PR 4 memo) *)
  | MNonflatRet  (** rejected: using the result emits structural atoms *)
  | MMayViolate
      (** rejected: a dropped instance copy could drop a bound violation *)

(* Kept only because gatebench builds a [Session.run] from [env.par]; it
   has no values, so [par] is always [None]. A later benchmark revision
   removes it. *)
type par_stats = |

type seg_kind =
  | Sglobals  (** the monomorphic environment: globals and struct fields *)
  | Siface  (** one mono interface *)
  | Stask  (** one task: an SCC (poly modes) or one mono body *)
  | Sinits  (** the global initializers *)

(** A segment: everything one unit of analysis work left in the
    store beyond the per-function tables — its stretch of the atom log,
    the variables it created, the ground violations and warnings it
    raised, the interfaces it reports and the auto-declared globals it
    looked up. Its members are the FDG nodes of its task ({!layout}). A
    warm rerun keeps the segments the edit did not reach and replays
    their side effects instead of re-inferring them. *)
type seg = {
  sg_kind : seg_kind;
  mutable sg_log0 : int;
  sg_nlog : int;
  sg_own_vars : int;  (** variables it created, auto globals excluded *)
  sg_ground : Solver.error list;
  sg_warnings : string list;  (** newest first *)
  sg_touched : string list;  (** auto-declared globals it looked up *)
  sg_ifaces : (string * fsig) list;  (** the interfaces it reports *)
}

(** The segment table of the last run, in replay (= task) order, with the
    graph its tasks came from. *)
type layout = {
  ly_segs : seg list;
  ly_watermark : int;
  ly_live_vars : int;  (** variables of live segments and live auto globals *)
  ly_fdg : Fdg.t;
  ly_task_of : seg option array;  (** FDG node -> its task's segment *)
  ly_iface_of : seg option array;  (** FDG node -> its mono interface's *)
  ly_moved : int list;
      (** the nodes whose report rows or outcome a warm rerun may have
          moved: the graph's [touched] (added, redefined or moved to
          another unit) and those whose task or mono interface it built
          afresh, each once; empty after a full run, whose graph is built
          cold *)
}

type env = {
  store : Solver.t;
  prog : Cprog.t;
  mode : mode;
  fields : (string, (string * cell) list) Hashtbl.t;
  funs : (string, fentry) Hashtbl.t;
  globals : (string, cell) Hashtbl.t;
  rules : qrules;
  mutable warnings : string list;
  late_mono : (int, unit) Hashtbl.t;
      (** variables that join the monomorphic environment after the global
          watermark (auto-declared identifiers); never generalized *)
  field_sharing : bool;
      (** Section 4.2 field sharing; [false] only for the ablation study:
          every struct access then gets fresh field cells *)
  outcomes : (string, outcome) Hashtbl.t;  (** per defined function *)
  budget : Budget.t option;
      (** resource guard; exhaustion degrades remaining functions *)
  par : par_stats option;  (** always [None]; see {!par_stats} *)
  compact : bool;
      (** scheme compaction at generalization and instantiation
          memoization (default on); [false] restores the uncompacted
          behaviour — reports are identical either way, only the
          constraint-system size differs *)
  shapes : Shape.table;  (** hash-consed r-type skeletons, per store *)
  imemo : (int * string * (int * int list) list, fsig) Hashtbl.t;
      (** instantiation memo: (scheme id, callee, per-argument
          (shape id, qualifier-variable ids)) -> the shared instance.
          Valid only within one recording session — every session
          boundary resets it, so a memo hit always names an instance
          whose atoms were captured into the current recording. *)
  memo_ok : (int * string, memo_verdict) Hashtbl.t;
      (** cached sharing eligibility per (scheme id, callee); see
          {!memo_verdict} *)
  mutable cur_touched : string list;  (** the open segment's auto lookups *)
  mutable autos_created : int;
  auto_pool : (string, cell) Hashtbl.t;
      (** a warm rerun's auto-declared globals, withdrawn from [globals]
          until a task in order looks them up again *)
  mutable layout : layout option;  (** segments of the last run *)
}

let warn env msg = env.warnings <- msg :: env.warnings

(* ------------------------------------------------------------------ *)
(* Fault isolation                                                     *)
(* ------------------------------------------------------------------ *)

let degrade env name reason =
  Hashtbl.replace env.outcomes name (Degraded reason)

let mark_analyzed env name =
  if not (Hashtbl.mem env.outcomes name) then
    Hashtbl.replace env.outcomes name Analyzed

let budget_reason env =
  match env.budget with Some b -> Budget.exhausted b | None -> None

let reason_of_exn = function
  | Cprog.Frontend_error m -> m
  | Failure m -> "analysis failure: " ^ m
  | Stack_overflow -> "analysis failure: stack overflow"
  | e -> "analysis failure: " ^ Printexc.to_string e

(* Run [k] under fault isolation for [members] — one function, or one
   SCC, whose members are generalized together so a failure in any of
   them invalidates the whole component: exceptions and budget exhaustion
   degrade every member instead of aborting the run. A degraded SCC's
   members are forgotten, so their callers see library functions; a mono
   function keeps the interface its callers already link to.
   Out-of-memory and interrupts are never swallowed. *)
let isolated env (members : Cast.fundef list) (k : unit -> 'a) : 'a option =
  let fail reason =
    List.iter
      (fun (f : Cast.fundef) ->
        degrade env f.f_name reason;
        if env.mode <> Mono then Hashtbl.remove env.funs f.f_name)
      members;
    None
  in
  match budget_reason env with
  | Some r -> fail ("budget exhausted: " ^ r)
  | None -> (
      match k () with
      | x ->
          List.iter
            (fun (f : Cast.fundef) -> mark_analyzed env f.f_name)
            members;
          Some x
      | exception ((Out_of_memory | Sys.Break) as e) -> raise e
      | exception e -> fail (reason_of_exn e))

(* declaration-qualifier seeding, per the active rule set *)
let seed env = env.rules.qr_seed env.store

(* ------------------------------------------------------------------ *)
(* Shared struct field tables (Section 4.2)                            *)
(* ------------------------------------------------------------------ *)

let rec field_cells env tag : (string * cell) list =
  match Hashtbl.find_opt env.fields tag with
  | Some fs when env.field_sharing -> fs
  | Some _ ->
      (* ablation: fresh cells per access site, no sharing *)
      List.map
        (fun (name, ft) ->
          (name, cell_of_ctype ~name ~seed:(seed env) env.store ft))
        (Cprog.fields env.prog tag)
  | None ->
      (* install a placeholder first so recursive structs terminate *)
      Hashtbl.replace env.fields tag [];
      let fs =
        List.map
          (fun (name, ft) ->
            ( name,
              cell_of_ctype
                ~name:(tag ^ "." ^ name)
                ~seed:(seed env) env.store ft ))
          (Cprog.fields env.prog tag)
      in
      Hashtbl.replace env.fields tag fs;
      fs

and find_field env tag fname =
  List.assoc_opt fname (field_cells env tag)

(* ------------------------------------------------------------------ *)
(* Scopes                                                              *)
(* ------------------------------------------------------------------ *)

type scope = {
  mutable locals : (string * cell) list;
  ret : rt;  (** current function's return r-type *)
}

let lookup_var env scope x : cell option =
  match List.assoc_opt x scope.locals with
  | Some c -> Some c
  | None -> (
      match Hashtbl.find_opt env.globals x with
      | Some c ->
          if Hashtbl.mem env.late_mono (Solver.var_id c.q) then
            env.cur_touched <- x :: env.cur_touched;
          Some c
      | None -> None)

(* Undeclared identifiers (K&R implicit, or benchmarks referencing symbols
   from headers we do not have): auto-declare as an int global so repeated
   uses alias. *)
let auto_global env x =
  env.cur_touched <- x :: env.cur_touched;
  match Hashtbl.find_opt env.globals x with
  | Some c -> c
  | None when Hashtbl.mem env.auto_pool x ->
      (* a warm rerun's withdrawn auto global: the same variable serves *)
      let c = Hashtbl.find env.auto_pool x in
      Hashtbl.remove env.auto_pool x;
      Hashtbl.replace env.globals x c;
      c
  | None ->
      let c = fresh_cell ~name:("auto_" ^ x) env.store RBase in
      env.autos_created <- env.autos_created + 1;
      Hashtbl.replace env.globals x c;
      Hashtbl.replace env.late_mono (Solver.var_id c.q) ();
      c

(* ------------------------------------------------------------------ *)
(* Function interfaces                                                 *)
(* ------------------------------------------------------------------ *)

let iface_of_fundef env (f : Cast.fundef) : fsig =
  {
    fs_params =
      List.map
        (fun (n, pt) ->
          cell_of_param ~seed:(seed env) env.store n
            (Cprog.expand env.prog pt))
        f.f_params;
    fs_ret =
      rt_of_ctype ~seed:(seed env) env.store
        (Cprog.expand env.prog (Cprog.decay f.f_ret));
    fs_varargs = f.f_varargs;
  }

(* A fresh signature for an undefined (library) function, from its
   prototype. Fresh per call site: library results never alias. *)
let lib_sig env name : fsig option =
  match Cprog.find_proto env.prog name with
  | Some (TFun _ as ft) -> (
      match rt_of_ctype ~seed:(seed env) env.store (Cprog.expand env.prog ft) with
      | RFun s -> Some s
      | _ -> None)
  | _ -> None

(** Apply the escape rule to every pointer level of [r]: the conservative
    treatment of values reaching unknown code (Section 4.2). When [decl]
    is the declared parameter type, each level's declared qualifiers are
    passed to the rule (e.g. const-declared levels are exempt from
    non-const forcing). *)
let rec force_escape env ?(decl : Cast.ctype option) (r : rt) =
  match r with
  | RBase | RVoid | RStruct _ -> ()
  | RFun _ -> ()
  | RPtr c ->
      let target_decl =
        match decl with
        | Some (TPtr (t, _)) | Some (TArray (t, _, _)) -> Some t
        | _ -> None
      in
      let declared = Option.map Cast.quals_of target_decl in
      env.rules.qr_escape env.store ~declared c.q;
      force_escape env ?decl:target_decl c.contents

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let assign_to env (c : cell) =
  (* the (Assign') choice point: rules restrict the assigned ref *)
  env.rules.qr_write env.store c.q

(* instantiate a defined function for one occurrence *)
let fun_occurrence env name : fsig option =
  match Hashtbl.find_opt env.funs name with
  | Some (FMono s) -> Some s
  | Some (FPoly (sch, s)) ->
      let rn = Solver.instantiate env.store sch in
      Some (copy_fsig rn s)
  | None -> None

(* Classify one (scheme, callee) pair for instance sharing; see
   {!memo_verdict}. Requirements, from weakest to strongest:
   (a) a flat return type, so using the result emits no structural
   constraints; (b) atoms that can never produce a bound violation on
   their own, so dropping a would-be second copy cannot drop an error;
   (c) flat pointed-to contents on every parameter, so the [sub
   r p.contents] in {!call} emits nothing for any argument. (a)+(b) give
   session sharing over identical-argument call sites; (a)+(b)+(c) give
   MFlat — no call site can ever reach an instance variable, so the
   registered interface itself serves every occurrence. The
   pessimistically-pinned set for (b) is exactly the instance variables a
   call site flows into: each parameter's pointed-to contents and the
   result (empty under (c)). A parameter's own top-level qualifier
   receives no call-site inflow, so it keeps its scheme-internal bounds —
   pinning it too would reject every function that increments a pointer
   parameter. Cached per (scheme, callee). *)
let memo_verdict env sch (s : fsig) name =
  let key = (Solver.scheme_id sch, name) in
  match Hashtbl.find_opt env.memo_ok key with
  | Some v -> v
  | None ->
      let v =
        if not (Shape.flat (Shape.of_rt env.shapes s.fs_ret)) then MNonflatRet
        else begin
          let flat_params =
            List.for_all
              (fun (p : cell) ->
                Shape.flat (Shape.of_rt env.shapes p.contents))
              s.fs_params
          in
          let inflow =
            if flat_params then []
            else
              rt_qvars s.fs_ret
              @ List.concat_map
                  (fun (p : cell) -> rt_qvars p.contents)
                  s.fs_params
          in
          if
            Solver.atoms_never_violate
              (Solver.space env.store)
              ~locals:(Solver.scheme_locals sch)
              ~exposed:inflow
              (Solver.scheme_atoms sch)
          then if flat_params then MFlat else MSession
          else MMayViolate
        end
      in
      Hashtbl.replace env.memo_ok key v;
      v

(* Instantiate a defined function for one CALL occurrence. Two calls of an
   eligible polymorphic callee whose arguments have identical skeletons
   and qualifier variables emit literally identical argument-flow atoms
   against either instance, and the flat result is consumed without
   constraints — so the second call re-uses the first call's instance
   instead of re-emitting the scheme. Observationally invisible:
   solutions of named program variables and the violation set are
   unchanged (the skipped copy's atoms never violate, and its fresh
   variables are unobservable). *)
let fun_call_occurrence env name (arg_rts : rt list) : fsig option =
  match Hashtbl.find_opt env.funs name with
  | Some (FMono s) -> Some s
  | Some (FPoly (sch, s)) ->
      let instantiate () =
        let rn = Solver.instantiate env.store sch in
        copy_fsig rn s
      in
      if env.compact then begin
        Solver.note_memo_candidate env.store;
        match memo_verdict env sch s name with
        | MFlat ->
            (* no call can reach an instance variable and the scheme's
               atoms never violate: the registered interface IS the
               summary, shared across sessions, SCCs, and rounds *)
            Solver.note_memo_hit env.store;
            Some s
        | MSession -> (
            let arg_key =
              List.map
                (fun r ->
                  (Shape.id (Shape.of_rt env.shapes r), (rt_qvars r :> int list)))
                arg_rts
            in
            let key = (Solver.scheme_id sch, name, arg_key) in
            match Hashtbl.find_opt env.imemo key with
            | Some inst ->
                Solver.note_memo_hit env.store;
                Some inst
            | None ->
                Solver.note_memo_miss env.store;
                let inst = instantiate () in
                Hashtbl.replace env.imemo key inst;
                Some inst)
        | MNonflatRet ->
            Solver.note_memo_reject_nonflat_ret env.store;
            Some (instantiate ())
        | MMayViolate ->
            Solver.note_memo_reject_may_violate env.store;
            Some (instantiate ())
      end
      else Some (instantiate ())
  | None -> None

let rec lvalue env scope (e : Cast.expr) : cell =
  match e with
  | EVar x -> (
      match lookup_var env scope x with
      | Some c -> c
      | None -> (
          match fun_occurrence env x with
          | Some s -> fresh_cell env.store (RFun s)
          | None -> (
              match lib_sig env x with
              | Some s -> fresh_cell env.store (RFun s)
              | None -> auto_global env x)))
  | EDeref e -> (
      match rvalue env scope e with
      | RPtr c -> c
      | RFun s -> fresh_cell env.store (RFun s) (* *f on a function *)
      | _ -> fresh_cell env.store RBase (* cast/void*: information lost *))
  | EIndex (e, i) -> (
      ignore (rvalue env scope i);
      match rvalue env scope e with
      | RPtr c -> c
      | _ -> fresh_cell env.store RBase)
  | EMember (e, fname) ->
      let parent = lvalue env scope e in
      member_cell env parent fname
  | EArrow (e, fname) -> (
      match rvalue env scope e with
      | RPtr parent -> member_cell env parent fname
      | _ -> fresh_cell env.store RBase)
  | ECast (t, e) ->
      ignore (rvalue env scope e);
      cell_of_ctype ~seed:(seed env) env.store (Cprog.expand env.prog t)
  | EComma (a, b) ->
      ignore (rvalue env scope a);
      lvalue env scope b
  | _ ->
      (* not an l-value in our subset; lose information *)
      ignore (rvalue env scope e);
      fresh_cell env.store RBase

(* Field access through a parent cell: the field's qualifier variables are
   shared per struct declaration; the l-value seen here is a guard cell
   whose qualifier joins the parent's and the field's, so an assignment
   (an upper bound ¬const) forces BOTH non-const while reads share the
   field's contents (Section 4.2). *)
and member_cell env (parent : cell) fname : cell =
  match parent.contents with
  | RStruct tag -> (
      match find_field env tag fname with
      | Some fc ->
          let g = fresh_cell ~name:("access_" ^ fname) env.store fc.contents in
          Solver.add_leq_vv ~reason:"field qualifier" env.store fc.q g.q;
          Solver.add_leq_vv ~reason:"enclosing struct qualifier" env.store
            parent.q g.q;
          g
      | None -> fresh_cell env.store RBase)
  | _ -> fresh_cell env.store RBase

and rvalue env scope (e : Cast.expr) : rt =
  match e with
  | EInt _ | EFloat _ | EChar _ | ESizeofT _ -> RBase
  | ESizeofE e ->
      ignore (rvalue env scope e);
      RBase
  | EString _ ->
      (* a C89 string literal has type char[]; its cell is fresh *)
      RPtr (fresh_cell ~name:"strlit" env.store RBase)
  | EVar x -> (
      (* function designators are values, not refs *)
      match lookup_var env scope x with
      | Some c -> c.contents
      | None -> (
          match fun_occurrence env x with
          | Some s -> RFun s
          | None -> (
              match lib_sig env x with
              | Some s -> RFun s
              | None -> (auto_global env x).contents)))
  | EUnop (_, e) ->
      ignore (rvalue env scope e);
      RBase
  | EBinop (op, a, b) -> (
      let ra = rvalue env scope a in
      let rb = rvalue env scope b in
      match (op, ra, rb) with
      (* pointer arithmetic preserves the pointer *)
      | (Add | Sub), (RPtr _ as p), _ -> p
      | (Add | Sub), _, (RPtr _ as p) -> p
      | _ -> RBase)
  | EAssign (lhs, rhs) ->
      let c = lvalue env scope lhs in
      assign_to env c;
      let rr = rvalue env scope rhs in
      sub ~reason:"assignment flow" env.store rr c.contents;
      c.contents
  | EAssignOp (_, lhs, rhs) ->
      let c = lvalue env scope lhs in
      assign_to env c;
      ignore (rvalue env scope rhs);
      c.contents
  | EIncDec (_, _, lhs) ->
      let c = lvalue env scope lhs in
      assign_to env c;
      c.contents
  | ECond (g, a, b) -> (
      ignore (rvalue env scope g);
      let ra = rvalue env scope a in
      let rb = rvalue env scope b in
      match (ra, rb) with
      | RPtr c1, RPtr c2 ->
          let r = fresh_cell ~name:"cond" env.store c1.contents in
          Solver.add_leq_vv ~reason:"?: left" env.store c1.q r.q;
          Solver.add_leq_vv ~reason:"?: right" env.store c2.q r.q;
          eq_contents ~reason:"?: contents" env.store c1.contents c2.contents;
          RPtr r
      | (RPtr _ as p), _ | _, (RPtr _ as p) -> p (* e.g. p ? p : 0 *)
      | ra, _ -> ra)
  | EComma (a, b) ->
      ignore (rvalue env scope a);
      rvalue env scope b
  | EAddr e -> RPtr (lvalue env scope e)
  | EDeref _ | EIndex _ | EMember _ | EArrow _ ->
      (lvalue env scope e).contents
  | ECast (t, e) ->
      (* explicit cast: evaluate for effects, then sever the association *)
      ignore (rvalue env scope e);
      rt_of_ctype ~seed:(seed env) env.store (Cprog.expand env.prog t)
  | EInitList es ->
      List.iter (fun e -> ignore (rvalue env scope e)) es;
      RBase
  | ECall (callee, args) -> call env scope callee args

and call env scope callee args : rt =
  let arg_rts = List.map (fun a -> rvalue env scope a) args in
  let link_sig (s : fsig) =
    let rec link ps rs =
      match (ps, rs) with
      | _, [] -> ()
      | [], _ -> () (* extra arguments are ignored (Section 4.2) *)
      | (p : cell) :: ps, r :: rs ->
          sub ~reason:"argument flow" env.store r p.contents;
          link ps rs
    in
    link s.fs_params arg_rts;
    (* variadic extras and arity mismatches are ignored (Section 4.2:
       "we simply ignore extra arguments") *)
    s.fs_ret
  in
  match callee with
  | EVar fname -> (
      match fun_call_occurrence env fname arg_rts with
      | Some s -> link_sig s
      | None -> (
          match lib_sig env fname with
          | Some s ->
              (* library call: parameters not declared const are treated as
                 non-const (Section 4.2) *)
              let decls =
                match Cprog.find_proto env.prog fname with
                | Some (TFun (_, ps, _)) ->
                    List.map (fun (_, t) -> Cprog.decay (Cprog.expand env.prog t)) ps
                | _ -> []
              in
              let rec force rs ds i =
                match rs with
                | [] -> ()
                | r :: rs ->
                    (match List.nth_opt ds i with
                    | Some d -> force_escape env ~decl:d r
                    | None ->
                        (* extra (variadic) arguments are ignored,
                           Section 4.2 *)
                        ());
                    force rs ds (i + 1)
              in
              force arg_rts decls 0;
              s.fs_ret
          | None ->
              (* no prototype at all: every pointer argument is conservative *)
              warn env ("call to undeclared function " ^ fname);
              List.iter (fun r -> force_escape env r) arg_rts;
              RBase))
  | _ -> (
      (* call through an expression: function pointer *)
      match rvalue env scope callee with
      | RFun s -> link_sig s
      | RPtr { contents = RFun s; _ } -> link_sig s
      | _ ->
          List.iter (fun r -> force_escape env r) arg_rts;
          RBase)

(* ------------------------------------------------------------------ *)
(* Initializers and statements                                         *)
(* ------------------------------------------------------------------ *)

let rec init_into env scope (c : cell) (e : Cast.expr) =
  match (e, c.contents) with
  | EInitList items, RStruct tag ->
      let fields = field_cells env tag in
      List.iteri
        (fun i item ->
          match List.nth_opt fields i with
          | Some (_, fc) -> init_into env scope fc item
          | None -> ignore (rvalue env scope item))
        items
  | EInitList items, RPtr elem ->
      (* array initializer: every item flows into the element cell *)
      List.iter (fun item -> init_into env scope elem item) items
  | EInitList items, _ ->
      List.iter (fun item -> ignore (rvalue env scope item)) items
  | e, _ ->
      let r = rvalue env scope e in
      sub ~reason:"initializer flow" env.store r c.contents

let declare_local env scope (d : Cast.decl) =
  let ty = Cprog.expand env.prog d.d_type in
  let c = cell_of_ctype ~name:d.d_name ~seed:(seed env) env.store ty in
  scope.locals <- (d.d_name, c) :: scope.locals;
  match d.d_init with Some e -> init_into env scope c e | None -> ()

let rec stmt env scope (s : Cast.stmt) =
  match s with
  | SExpr e -> ignore (rvalue env scope e)
  | SDecl ds -> List.iter (declare_local env scope) ds
  | SBlock ss ->
      (* block scoping: restore locals on exit *)
      let saved = scope.locals in
      List.iter (stmt env scope) ss;
      scope.locals <- saved
  | SIf (g, s1, s2) ->
      ignore (rvalue env scope g);
      stmt env scope s1;
      Option.iter (stmt env scope) s2
  | SWhile (g, b) ->
      ignore (rvalue env scope g);
      stmt env scope b
  | SDoWhile (b, g) ->
      stmt env scope b;
      ignore (rvalue env scope g)
  | SFor (init, cond, step, body) ->
      let saved = scope.locals in
      Option.iter (stmt env scope) init;
      Option.iter (fun e -> ignore (rvalue env scope e)) cond;
      Option.iter (fun e -> ignore (rvalue env scope e)) step;
      stmt env scope body;
      scope.locals <- saved
  | SReturn (Some e) ->
      let r = rvalue env scope e in
      sub ~reason:"return flow" env.store r scope.ret
  | SReturn None | SBreak | SContinue | SGoto _ | SNull -> ()
  | SSwitch (g, b) ->
      ignore (rvalue env scope g);
      stmt env scope b
  | SCase (g, b) ->
      ignore (rvalue env scope g);
      stmt env scope b
  | SDefault b | SLabel (_, b) -> stmt env scope b

let analyze_body env (f : Cast.fundef) (iface : fsig) =
  let scope =
    {
      locals = List.map2 (fun (n, _) c -> (n, c)) f.f_params iface.fs_params;
      ret = iface.fs_ret;
    }
  in
  List.iter (stmt env scope) f.f_body

(* ------------------------------------------------------------------ *)
(* Whole-program analysis                                              *)
(* ------------------------------------------------------------------ *)

let make_env ?(rules = const_rules) ?(field_sharing = true) ?(compact = true)
    ?budget mode (prog : Cprog.t) : env =
  let store = Solver.create rules.qr_space in
  Solver.set_budget store budget;
  {
    store;
    prog;
    mode;
    fields = Hashtbl.create 16;
    funs = Hashtbl.create 64;
    globals = Hashtbl.create 64;
    rules;
    warnings = [];
    late_mono = Hashtbl.create 16;
    field_sharing;
    outcomes = Hashtbl.create 16;
    budget;
    par = None;
    compact;
    shapes = Shape.create_table ();
    imemo = Hashtbl.create 64;
    memo_ok = Hashtbl.create 16;
    cur_touched = [];
    autos_created = 0;
    auto_pool = Hashtbl.create 8;
    layout = None;
  }

(* Credit a wall-clock window to one of the per-phase stats columns,
   minus whatever the solver already credited to the nested phases
   (instantiate/compact run inside the congen window), so the columns
   stay disjoint and sum to roughly the analysis wall time. *)
let timed_phase env ph f =
  let st = env.store in
  let i0 = Solver.phase_seconds st Solver.Instantiate
  and c0 = Solver.phase_seconds st Solver.Compact in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  let nested =
    Solver.phase_seconds st Solver.Instantiate
    -. i0
    +. (Solver.phase_seconds st Solver.Compact -. c0)
  in
  Solver.note_phase st ph (Float.max 0. (dt -. nested));
  r

(* Global variables and struct tables are part of the monomorphic
   environment: build them eagerly so scheme generalization can exclude
   their variables by creation time. *)
let build_global_env env =
  List.iter
    (fun (d : Cast.decl) ->
      try
        let ty = Cprog.expand env.prog d.d_type in
        Hashtbl.replace env.globals d.d_name
          (cell_of_ctype ~name:d.d_name ~seed:(seed env) env.store ty)
      with Cprog.Frontend_error m ->
        (* e.g. the typedef's definition was lost to a parse error: the
           global keeps a fresh unconstrained cell so uses still alias *)
        warn env
          (Printf.sprintf "global %s: %s; treated as unconstrained" d.d_name m);
        Hashtbl.replace env.globals d.d_name
          (fresh_cell ~name:d.d_name env.store RBase))
    (Cprog.global_vars env.prog);
  Hashtbl.iter
    (fun tag _ ->
      try ignore (field_cells env tag)
      with Cprog.Frontend_error m ->
        warn env
          (Printf.sprintf "struct %s: %s; fields treated as unconstrained" tag
             m))
    env.prog.Cprog.comps

let analyze_global_inits env =
  (* initializer calls instantiate outside any recording: a fresh memo
     session (instances memoized during the last SCC are not shareable
     here — their atoms belong to that SCC's scheme, not the store) *)
  Hashtbl.reset env.imemo;
  let scope = { locals = []; ret = RBase } in
  timed_phase env Solver.Congen (fun () ->
      List.iter
        (fun (d : Cast.decl) ->
          match d.d_init with
          | Some e -> (
              match Hashtbl.find_opt env.globals d.d_name with
              | Some c -> (
                  try init_into env scope c e
                  with Cprog.Frontend_error m ->
                    warn env
                      (Printf.sprintf "initializer of %s: %s; ignored"
                         d.d_name m))
              | None -> ())
          | None -> ())
        (Cprog.global_vars env.prog))

(* Mono's interface pass, in the store before any body, so calls
   in any order link directly; a function whose interface cannot be built
   is degraded and left out of env.funs, so its callers fall back to the
   conservative library treatment. *)
let mono_interface env (f : Cast.fundef) : (string * fsig) list =
  timed_phase env Solver.Congen (fun () ->
      match isolated env [ f ] (fun () -> iface_of_fundef env f) with
      | Some s ->
          Hashtbl.replace env.funs f.f_name (FMono s);
          [ (f.f_name, s) ]
      | None -> [])

(* Mono's task (the "Mono" column of Table 2): each body against its
   interface from the pass above. *)
let mono_bodies env (members : Cast.fundef list) =
  List.iter
    (fun (f : Cast.fundef) ->
      match Hashtbl.find_opt env.funs f.f_name with
      | Some (FMono s) ->
          timed_phase env Solver.Congen (fun () -> analyze_body env f s)
      | _ -> ())
    members

(* Generalize an SCC's captured constraints: every variable mentioned
   that is not part of the monomorphic global environment becomes a scheme
   local (Section 4.3). [is_global] decides membership in the monomorphic
   environment: by creation watermark and the late-mono table
   ({!is_mono_var}). *)
let generalize_scc ~is_global atoms
    (scc_ifaces : (Cast.fundef * fsig) list) : Solver.scheme =
  let seen = Hashtbl.create 64 in
  let locals = ref [] in
  let consider v =
    let id = Solver.var_id v in
    if (not (is_global v)) && not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      locals := v :: !locals
    end
  in
  List.iter
    (function
      | Solver.Avc (v, _, _, _) | Solver.Acv (_, v, _, _) -> consider v
      | Solver.Avv (a, b, _, _) ->
          consider a;
          consider b)
    atoms;
  List.iter (fun (_, s) -> List.iter consider (rt_qvars (RFun s))) scc_ifaces;
  Solver.make_scheme ~locals:!locals ~atoms

(* A deterministic bounds summary of an interface, used as the
   convergence criterion for polymorphic recursion: the (lo, hi) vector is
   structural, so two rounds can be compared even though their variables
   differ. [bounds] maps a variable id to its (lo, hi) pair, typically
   {!Solver.solve_atoms} over the scheme's own atoms — no global solve. *)
let summarize_iface bounds (s : fsig) : (Elt.t * Elt.t) list =
  let acc = ref [] in
  let seen = Hashtbl.create 16 in
  let rec go_rt = function
    | RBase | RVoid | RStruct _ -> ()
    | RPtr c -> go_cell c
    | RFun f ->
        List.iter go_cell f.fs_params;
        go_rt f.fs_ret
  and go_cell c =
    if not (Hashtbl.mem seen (Solver.var_id c.q)) then begin
      Hashtbl.add seen (Solver.var_id c.q) ();
      acc := bounds (Solver.var_id c.q) :: !acc;
      go_rt c.contents
    end
  in
  go_rt (RFun s);
  List.rev !acc

(* A multi-member SCC generalizes into one scheme carrying every
   member's constraints and every member's interface — but a call to
   one member must not pay for the whole component. The scale corpora's
   cross-file recursion rings tie SCC size to project size, so
   instantiating the shared scheme at each ring call site made total
   instantiation cost quadratic in project size (measured: ~20k ring
   calls x ~120 locals each = 80% of all variables created on the
   megacorpus). At registration, re-compact the shared scheme down to
   the member's own interface-reachable core: exact by compaction's
   contract (identical interface solutions and bound violations),
   deterministic (compaction never iterates a hash table), and excluded from
   the scheme-size counters ([~count:false]) so those keep describing
   the primary generalizations. Singleton SCCs keep their scheme as is:
   it was already compacted against exactly this interface. *)
let member_scheme env sch (s : fsig) : Solver.scheme =
  if env.compact then
    Solver.compact ~count:false env.store ~interface:(rt_qvars (RFun s)) sch
  else sch

let register_member_schemes env sch (scc_ifaces : (Cast.fundef * fsig) list) =
  let multi = match scc_ifaces with _ :: _ :: _ -> true | _ -> false in
  List.iter
    (fun ((f : Cast.fundef), s) ->
      let sch_m = if multi then member_scheme env sch s else sch in
      Hashtbl.replace env.funs f.f_name (FPoly (sch_m, s)))
    scc_ifaces

(* Record one SCC: interfaces first so mutual recursion links directly,
   then bodies, capturing every atom they emit. With [~mono] the members
   are callable monomorphically while their own bodies are analyzed
   (plain polymorphism); without it, in-SCC calls instantiate the schemes
   already registered (the previous round of polymorphic recursion). One
   memo session per recording: hits must name instances captured into
   THIS scheme. *)
let record_scc env ~mono members :
    (Cast.fundef * fsig) list * Solver.atom list =
  Hashtbl.reset env.imemo;
  timed_phase env Solver.Congen (fun () ->
      Solver.recording env.store (fun () ->
          let is =
            List.map
              (fun (f : Cast.fundef) ->
                let s = iface_of_fundef env f in
                if mono then Hashtbl.replace env.funs f.f_name (FMono s);
                (f, s))
              members
          in
          List.iter (fun (f, s) -> analyze_body env f s) is;
          is))

(* Generalize a recorded SCC into one scheme, compact it down to its
   interface-reachable core unless compaction is off, and register it for
   the members. *)
let finish_scc env ~is_global (scc_ifaces, atoms) =
  let sch =
    timed_phase env Solver.Generalize (fun () ->
        generalize_scc ~is_global atoms scc_ifaces)
  in
  let interface =
    List.concat_map (fun (_, s) -> rt_qvars (RFun s)) scc_ifaces
  in
  let sch =
    if env.compact then Solver.compact env.store ~interface sch else sch
  in
  register_member_schemes env sch scc_ifaces;
  (scc_ifaces, sch)

(** Process one SCC (Section 4.3, the "Poly" column): its constraints are
    captured and generalized into one scheme shared by its members.
    Raises on analysis failure — fault isolation is the scheduler's job. *)
let poly_scc env ~is_global members =
  finish_scc env ~is_global (record_scc env ~mono:true members)

(** Polymorphic recursion: like {!poly_scc}, but recursive calls within
    an SCC are themselves polymorphic. The SCC is re-analyzed with the
    previous round's schemes used for in-SCC calls — starting from the
    most general (unconstrained) summaries — until the interface verdicts
    reach a fixed point; each round's constraints stay in [env]'s store.
    Termination: the summaries form a finite domain and the iteration is
    capped (the cap is never reached in practice; the fixed point
    typically arrives by the second round). *)
let polyrec_scc env ~is_global members =
  let max_rounds = 6 in
  let is_recursive =
    match members with
    | [ (f : Cast.fundef) ] ->
        (* the FDG filters self-edges; detect direct recursion from the
           body's own mentions *)
        Array.mem f.f_name (Fdg.mentions f)
    | _ -> true
  in
  if not is_recursive then poly_scc env ~is_global members
  else begin
    (* round 0: most general summaries — unconstrained skeletons *)
    List.iter
      (fun (f : Cast.fundef) ->
        let sk = iface_of_fundef env f in
        let sch0 = Solver.make_scheme ~locals:(rt_qvars (RFun sk)) ~atoms:[] in
        Hashtbl.replace env.funs f.f_name (FPoly (sch0, sk)))
      members;
    let rec iterate prev_summaries round =
      let scc_ifaces, sch =
        finish_scc env ~is_global (record_scc env ~mono:false members)
      in
      let bounds =
        Solver.solve_atoms (Solver.space env.store) (Solver.scheme_atoms sch)
      in
      let summaries =
        List.map (fun (_, s) -> summarize_iface bounds s) scc_ifaces
      in
      if summaries = prev_summaries || round >= max_rounds then
        (scc_ifaces, sch)
      else iterate summaries (round + 1)
    in
    iterate [] 1
  end

(* ------------------------------------------------------------------ *)
(* Segments                                                            *)
(* ------------------------------------------------------------------ *)

(* Run [f] as one segment: everything it adds to the store and the
   tables is attributed to the returned record. [f] returns the
   interfaces the segment reports. *)
let segment env kind (f : unit -> (string * fsig) list) : seg =
  let st = env.store in
  let m = Solver.mark st in
  let w0 = env.warnings in
  let a0 = env.autos_created in
  env.cur_touched <- [];
  let ifaces = f () in
  let rec since = function
    | l when l == w0 -> []
    | [] -> []
    | w :: rest -> w :: since rest
  in
  let seg =
    {
      sg_kind = kind;
      sg_log0 = Solver.mark_log m;
      sg_nlog = Solver.num_atoms st - Solver.mark_log m;
      sg_own_vars =
        Solver.num_vars st - Solver.mark_var m - (env.autos_created - a0);
      sg_ground = Solver.ground_since st m;
      sg_warnings = since env.warnings;
      sg_touched = List.sort_uniq String.compare env.cur_touched;
      sg_ifaces = ifaces;
    }
  in
  env.cur_touched <- [];
  seg

(* A mode's task processor: one task's members, analyzed in [env];
   returns the interfaces to report. *)
type processor =
  env -> is_global:(Solver.var -> bool) -> Cast.fundef list -> (Cast.fundef * fsig) list

let processor mode : processor =
 fun env ~is_global members ->
  match mode with
  | Mono ->
      mono_bodies env members;
      []
  | Poly -> fst (poly_scc env ~is_global members)
  | Polyrec -> fst (polyrec_scc env ~is_global members)

(* The monomorphic environment of the store: everything created
   before [watermark] (globals, struct fields) plus the late-arriving auto
   globals. *)
let is_mono_var env ~watermark v =
  Solver.var_id v < watermark || Hashtbl.mem env.late_mono (Solver.var_id v)

(* One task, as one segment. *)
let run_task env ~is_global ~(process : processor) members : seg =
  segment env Stask (fun () ->
      match isolated env members (fun () -> process env ~is_global members) with
      | Some ifaces ->
          List.map (fun ((f : Cast.fundef), s) -> (f.f_name, s)) ifaces
      | None -> [])

(* The task list of a mode over its FDG, as node arrays. Mono has one
   task per linked definition (of a name defined more than once, the one
   calls link to: the last) whose interface was built, in link order;
   poly and polyrec one per FDG SCC, callees first. *)
let task_list env (fdg : Fdg.t) : int array list =
  match env.mode with
  | Mono ->
      List.filter_map
        (fun v -> if Hashtbl.mem env.funs fdg.Fdg.names.(v) then Some [| v |] else None)
        (Array.to_list (Fdg.linked fdg))
  | Poly | Polyrec -> Fdg.scc_list fdg

let members (fdg : Fdg.t) nodes = Array.to_list (Array.map (fun v -> fdg.Fdg.defs.(v)) nodes)

let layout_of ~watermark ~live_vars ~moved env (fdg : Fdg.t) tasks segs =
  let n = Array.length fdg.Fdg.names in
  let task_of = Array.make n None and iface_of = Array.make n None in
  (match env.mode with
  | Mono ->
      List.iter2
        (fun v sg -> iface_of.(v) <- Some sg)
        (Array.to_list (Fdg.linked fdg))
        (List.filter (fun sg -> sg.sg_kind = Siface) segs);
      List.iter2
        (fun nodes sg -> task_of.(nodes.(0)) <- Some sg)
        tasks
        (List.filter (fun sg -> sg.sg_kind = Stask) segs)
  | Poly | Polyrec ->
      (* the task segments are the SCCs, in order *)
      let k = ref 0 in
      List.iter
        (fun sg ->
          if sg.sg_kind = Stask then begin
            Array.iter (fun v -> task_of.(v) <- Some sg) fdg.Fdg.scc_nodes.(!k);
            incr k
          end)
        segs);
  {
    ly_segs = segs;
    ly_watermark = watermark;
    ly_live_vars = live_vars;
    ly_fdg = fdg;
    ly_task_of = task_of;
    ly_iface_of = iface_of;
    ly_moved = moved;
  }

(** The dependence graph the last run scheduled over. *)
let fdg env = Option.map (fun ly -> ly.ly_fdg) env.layout

(** Apply [f] to every FDG node of the last run in report order: the
    linked definitions' order in mono, whose interface segments follow
    it, and the SCCs' in the poly modes, whose task segments do. A
    segment reports either nothing or one interface per node, in order,
    so the reported interfaces are those of the nodes that report one,
    in this order. *)
let iter_report_order env f =
  match env.layout with
  | None -> ()
  | Some { ly_fdg = fdg; _ } -> (
      match env.mode with
      | Mono -> Array.iter f (Fdg.linked fdg)
      | Poly | Polyrec ->
          for k = 0 to fdg.Fdg.nsccs - 1 do
            Array.iter f fdg.Fdg.scc_nodes.(k)
          done)

(** The interface FDG node [v] reports in the last run, with its name:
    [None] when its task (its mono interface) reported nothing. *)
let reported_iface env v =
  match env.layout with
  | None -> None
  | Some ly -> (
      match env.mode with
      | Mono -> ( match ly.ly_iface_of.(v) with Some { sg_ifaces = [ x ]; _ } -> Some x | _ -> None)
      | Poly | Polyrec -> (
          match ly.ly_task_of.(v) with
          | Some { sg_ifaces = _ :: _ as ifaces; _ } ->
              (* one interface per SCC member, in order *)
              let fdg = ly.ly_fdg in
              let nodes = fdg.Fdg.scc_nodes.(fdg.Fdg.scc_of.(v)) in
              let rec find i = function
                | [] -> None
                | x :: rest -> if nodes.(i) = v then Some x else find (i + 1) rest
              in
              find 0 ifaces
          | _ -> None))

let live_vars env =
  match env.layout with
  | Some ly -> ly.ly_live_vars
  | None -> Solver.num_vars env.store

(* ------------------------------------------------------------------ *)
(* The task loop: cold runs and warm reruns                            *)
(* ------------------------------------------------------------------ *)

(* Do [a] and [b] show the global pass the same program? It reads their
   typedefs, struct/union layouts and prototypes, and the global
   variables' names and types in declaration order; initializers are
   not part of it, as the initializer segment is re-run every time. A
   table is the same when it is physically shared, as a patched link
   shares it ({!Cfront.Cprog.relink}), or holds the same bindings; the
   struct table also in the same iteration order, which the global pass
   follows when it creates the fields' variables. The variables are
   compared unit by unit when the unit count is the same, and an
   unchanged unit's declaration list is physically its predecessor's. *)
let same_globals (a : Cprog.t) (b : Cprog.t) =
  let same_bindings x y =
    x == y
    || Hashtbl.length x = Hashtbl.length y
       && Hashtbl.fold
            (fun k v ok ->
              ok
              && match Hashtbl.find_opt y k with Some w -> compare v w = 0 | None -> false)
            x true
  in
  let in_order h = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] in
  let vars globals =
    List.filter_map
      (function Cast.GVar (d : Cast.decl) -> Some (d.d_name, d.d_type) | _ -> None)
      globals
  in
  let same_vars x y = x == y || compare (vars x) (vars y) = 0 in
  same_bindings a.Cprog.typedefs b.Cprog.typedefs
  && same_bindings a.Cprog.protos b.Cprog.protos
  && (a.Cprog.comps == b.Cprog.comps
     || compare (in_order a.Cprog.comps) (in_order b.Cprog.comps) = 0)
  &&
  if List.compare_lengths a.Cprog.order b.Cprog.order = 0 then
    List.for_all2 same_vars a.Cprog.order b.Cprog.order
  else same_vars (List.concat a.Cprog.order) (List.concat b.Cprog.order)

(* A var-id-free digest of a registered summary: the scheme's locals are
   numbered by position, free variables (the monomorphic environment,
   whose variables a warm store keeps) by id. Two summaries with the same
   digest are instantiated into structurally identical constraints, so a
   caller that read one needs no re-inference when its callee now
   registers the other: the early cutoff. *)
let entry_digest store (e : fentry option) : string =
  match e with
  | None | Some (FMono _) -> "-"
  | Some (FPoly (sch, s)) ->
      let b = Buffer.create 256 in
      let local = Hashtbl.create 16 in
      List.iteri
        (fun i v ->
          Hashtbl.replace local (Solver.var_id v) i;
          Buffer.add_string b (Solver.var_name store v);
          Buffer.add_char b '\001')
        (Solver.scheme_locals sch);
      let int n =
        Buffer.add_string b (string_of_int n);
        Buffer.add_char b ','
      in
      let var v =
        match Hashtbl.find_opt local (Solver.var_id v) with
        | Some i -> Buffer.add_char b 'L'; int i
        | None -> Buffer.add_char b 'G'; int (Solver.var_id v)
      in
      let reason = function
        | Some r -> Buffer.add_string b r; Buffer.add_char b '\001'
        | None -> Buffer.add_char b '\002'
      in
      List.iter
        (function
          | Solver.Avc (v, c, m, r) -> Buffer.add_char b 'a'; var v; int c; int m; reason r
          | Solver.Acv (c, v, m, r) -> Buffer.add_char b 'b'; int c; var v; int m; reason r
          | Solver.Avv (x, y, m, r) -> Buffer.add_char b 'c'; var x; var y; int m; reason r)
        (Solver.scheme_atoms sch);
      (* the interface, with sharing: a cell seen before prints its var *)
      let seen = Hashtbl.create 16 in
      let rec go_rt = function
        | RBase -> Buffer.add_char b 'B'
        | RVoid -> Buffer.add_char b 'V'
        | RStruct tag -> Buffer.add_char b 'S'; Buffer.add_string b tag; Buffer.add_char b '\001'
        | RPtr c -> Buffer.add_char b 'P'; go_cell c
        | RFun f -> go_fsig f
      and go_cell c =
        var c.q;
        if not (Hashtbl.mem seen (Solver.var_id c.q)) then begin
          Hashtbl.add seen (Solver.var_id c.q) ();
          go_rt c.contents
        end
      and go_fsig f =
        Buffer.add_char b 'F';
        int (List.length f.fs_params);
        List.iter go_cell f.fs_params;
        go_rt f.fs_ret;
        Buffer.add_char b (if f.fs_varargs then '+' else '-')
      in
      go_fsig s;
      Digest.string (Buffer.contents b)

(** What a run did: the tasks it kept and re-ran, how many functions the
    re-run tasks hold, and what the store's deletion of the dead tasks'
    atoms ({!Solver.retract}) did: the atoms deleted and the variables
    whose solution was re-derived. A cold run re-runs every task and
    deletes nothing. *)
type rerun_info = {
  ri_tasks : int;
  ri_rerun : int;
  ri_rerun_members : int;
  ri_atoms_deleted : int;
  ri_vars_reset : int;
}

(** The one task loop: analyze [prog] in [base]'s store, starting from
    [prev], the layout of the last run in that store, and return the
    updated env (sharing [base]'s store and tables — [base] must not be
    used again). With [prev = None],
    [base] is a fresh env and this is a cold run: it builds the FDG
    cold, then the global segment, takes the monomorphic watermark
    after it and runs every task. With a [prev], it re-infers only the tasks
    the edit reaches and reports exactly what a cold run over a fresh
    store would.

    A task re-runs when its membership is new, when a member's definition
    changed other than in its source locations, when its callee set
    changed, or when a callee that re-ran registered a summary with a
    different {!entry_digest} (the early cutoff). In mono, a body
    re-runs when it changed or when its own or a callee's interface was
    rebuilt; an interface is rebuilt when its signature changed. The
    global initializers always re-run. Every other task keeps its
    segment: its summaries, outcome events, warnings and auto-global
    lookups are replayed in task order, so each re-run task sees exactly
    the tables a fresh run would show it. Re-run tasks append their
    segments to the arena; then {!Solver.retract} deletes the dead
    segments' atoms and re-derives what they supported, leaving the
    store a fresh run in task order would build.

    [Error] only with a [prev], when dead variables outnumber live ones
    once the re-run tasks have added their atoms to [base]'s store: the
    full run then bounds the arena, and [base] is spent. *)
let advance (base : env) (prev : layout option) (prog : Cprog.t) :
    (env * rerun_info, string) result =
  let env = { base with prog; warnings = []; layout = None } in
  let st = env.store in
  Solver.reset_stats st;
  Solver.checkpoint st;
  (* a graph built from the last one keeps its node ids, so a node live
     in both names the same function in both, and a live node below
     [prev_ids] was live in the old graph; a cold graph has no such
     node *)
  let fdg = Fdg.build ?prev:(Option.map (fun ly -> ly.ly_fdg) prev) prog in
  let was v = v < fdg.Fdg.prev_ids and warm = Option.is_some prev in
  let n = Array.length fdg.Fdg.names in
  (* [dirty] marks the functions whose task must re-run: a definition
     that changed beyond its locations, a callee set that gained or
     lost a name, or a callee whose summary (interface, in mono) is
     not the one last read *)
  let dirty = Bytes.make n '\000' in
  let mark v = Bytes.set dirty v '\001' in
  List.iter mark fdg.Fdg.changed;
  List.iter mark fdg.Fdg.callees_changed;
  (* the nodes whose report rows or outcome may move, each once: the
     ones the edit touched and those whose task or mono interface is
     built afresh; a cold run moves nothing, as it has no rows to
     move *)
  let moved = ref [] and seen = Bytes.make n '\000' in
  let move v =
    if warm && Bytes.get seen v = '\000' then begin
      Bytes.set seen v '\001';
      moved := v :: !moved
    end
  in
  let changed v = if warm then List.iter mark (Fdg.callers fdg v) in
  let keep sg =
    if sg.sg_warnings <> [] then env.warnings <- sg.sg_warnings @ env.warnings;
    List.iter
      (fun x ->
        match Hashtbl.find_opt env.auto_pool x with
        | Some c ->
            Hashtbl.remove env.auto_pool x;
            Hashtbl.replace env.globals x c
        | None -> ())
      sg.sg_touched;
    sg
  in
  let globals, watermark =
    match prev with
    | None ->
        let sg =
          segment env Sglobals (fun () ->
              build_global_env env;
              [])
        in
        (* variables created so far (globals, struct fields) are
           monomorphic *)
        (sg, Solver.num_vars st)
    | Some ly ->
        List.iter move fdg.Fdg.touched;
        (* the tables a fresh run would show the first task: summaries
           and outcomes of functions that no longer exist go; every
           other entry is kept or reset when its task re-runs (a task
           only reads the summaries of its callees, which precede it).
           Warnings and auto globals are refilled in task order. *)
        List.iter
          (fun u ->
            let g = fdg.Fdg.names.(u) in
            Hashtbl.remove env.funs g;
            Hashtbl.remove env.outcomes g)
          fdg.Fdg.removed;
        Hashtbl.reset env.imemo;
        Hashtbl.reset env.memo_ok;
        Hashtbl.reset env.shapes.Shape.by_cell;
        let autos =
          Hashtbl.fold
            (fun name (c : cell) acc ->
              if Hashtbl.mem env.late_mono (Solver.var_id c.q) then (name, c) :: acc
              else acc)
            env.globals []
        in
        List.iter
          (fun (name, c) ->
            Hashtbl.remove env.globals name;
            Hashtbl.replace env.auto_pool name c)
          autos;
        (keep (List.find (fun sg -> sg.sg_kind = Sglobals) ly.ly_segs), ly.ly_watermark)
  in
  let iface_segs =
    match env.mode with
    | Poly | Polyrec -> []
    | Mono ->
        List.map
          (fun v ->
            let f = fdg.Fdg.defs.(v) in
            let last = match prev with Some ly when was v -> ly.ly_iface_of.(v) | _ -> None in
            match last with
            | Some sg when Cast.equal_signature (Fdg.prev_def fdg v) f -> keep sg
            | _ ->
                (* a built interface: its own body and its callers link
                   to fresh variables *)
                mark v;
                changed v;
                move v;
                if warm then begin
                  Hashtbl.remove env.funs f.f_name;
                  Hashtbl.remove env.outcomes f.f_name
                end;
                segment env Siface (fun () -> mono_interface env f))
          (Array.to_list (Fdg.linked fdg))
  in
  let process = processor env.mode in
  let is_global = is_mono_var env ~watermark in
  let rerun_n = ref 0 and members_n = ref 0 in
  (* the early cutoff compares a re-run task's summaries with the ones
     its callers read; mono callers read interfaces, and a cold run has
     no callers that read anything *)
  let cutoff = warm && env.mode <> Mono in
  (* task [k], over FDG nodes [nodes]: kept when the old task had the
     same members in the same order and none is dirty; re-run
     otherwise *)
  let task k (nodes : int array) =
    let clean v = Bytes.get dirty v = '\000' in
    let u0 = nodes.(0) in
    let kept =
      match prev with
      | Some ly when was u0 && Array.for_all clean nodes -> (
          match ly.ly_task_of.(u0) with
          | Some sg when env.mode = Mono || Fdg.scc_kept fdg k -> Some sg
          | _ -> None)
      | _ -> None
    in
    match kept with
    | Some sg -> keep sg
    | None ->
        incr rerun_n;
        members_n := !members_n + Array.length nodes;
        Array.iter move nodes;
        (* the members' outcomes are the task's: a mono interface
           that was built only marks [Analyzed], which the body's
           own verdict subsumes; a fresh env holds no other *)
        if warm then Array.iter (fun v -> Hashtbl.remove env.outcomes fdg.Fdg.names.(v)) nodes;
        let members = members fdg nodes in
        (* the summaries the members' callers last read *)
        let before =
          if not cutoff then []
          else List.map (fun (f : Cast.fundef) -> Hashtbl.find_opt env.funs f.f_name) members
        in
        let sg = run_task env ~is_global ~process members in
        if cutoff then
          List.iter2
            (fun v old ->
              if
                entry_digest env.store (Hashtbl.find_opt env.funs fdg.Fdg.names.(v))
                <> entry_digest env.store old
              then changed v)
            (Array.to_list nodes) before;
        sg
  in
  let tasks = task_list env fdg in
  let task_segs = List.mapi task tasks in
  let inits =
    segment env Sinits (fun () ->
        analyze_global_inits env;
        [])
  in
  let segs = (globals :: iface_segs) @ task_segs @ [ inits ] in
  (* an auto global lives while a live segment looks it up; the pool
     holds the dead ones *)
  let live_vars =
    List.fold_left (fun n sg -> n + sg.sg_own_vars) 0 segs
    + Hashtbl.fold
        (fun _ (c : cell) n ->
          if Hashtbl.mem env.late_mono (Solver.var_id c.q) then n + 1 else n)
        env.globals 0
  in
  if warm && Solver.num_vars st - live_vars > live_vars then
    (* the cone was large: rather than a store more dead than alive,
       the caller runs afresh *)
    Error "dead variables outnumber live ones"
  else begin
    let deleted, reset =
      match prev with
      | None -> (0, 0)
      | Some _ ->
          let rt =
            Solver.retract st
              ~slices:(List.map (fun sg -> (sg.sg_log0, sg.sg_nlog)) segs)
              ~ground:(List.fold_left (fun acc sg -> sg.sg_ground @ acc) [] segs)
          in
          List.iter2 (fun sg at -> sg.sg_log0 <- at) segs rt.Solver.rt_starts;
          (rt.Solver.rt_deleted, rt.Solver.rt_reset)
    in
    env.layout <- Some (layout_of ~watermark ~live_vars ~moved:!moved env fdg tasks segs);
    Ok
      ( env,
        {
          ri_tasks = List.length task_segs;
          ri_rerun = !rerun_n;
          ri_rerun_members = !members_n;
          ri_atoms_deleted = deleted;
          ri_vars_reset = reset;
        } )
  end

(** A cold run of [mode] over [prog] in a fresh store: {!advance} from
    nothing. Mono has one task per linked function, after a single
    interface pass; poly and polyrec have one task per FDG SCC (Section
    4.3), callees first. Every unit of work is recorded as a segment
    ({!layout}), which is what {!rerun} starts from. Returns the env
    with the interfaces its tasks reported, in report order. [jobs] is
    ignored: gatebench still passes it, and a later benchmark revision
    drops it. *)
let run ?rules ?field_sharing ?compact ?budget ?jobs:_ mode (prog : Cprog.t) :
    env * (string * fsig) list =
  let env = make_env ?rules ?field_sharing ?compact ?budget mode prog in
  (* [advance] declines only when it starts from a predecessor *)
  let env, _ = Result.get_ok (advance env None prog) in
  (env, List.concat_map (fun sg -> sg.sg_ifaces) (Option.get env.layout).ly_segs)

(** Re-analyze [prog] in [base]'s store ({!advance} from [base]'s last
    layout). [Error reason] when the rerun cannot be incremental: [base]
    has no segments or ran under a budget, the global environment
    changed ({!same_globals}), dead variables or dead FDG ids outnumber
    live ones, or the re-run tasks left a store more dead than live. On
    the last, [base] is spent: the caller runs afresh, and {!Session}
    never reuses a base. *)
let rerun (base : env) (prog : Cprog.t) : (env * rerun_info, string) result =
  match base.layout with
  | None -> Error "no segments to start from"
  | Some _ when base.budget <> None -> Error "budgeted analysis"
  | Some _ when not (same_globals base.prog prog) ->
      Error "globals, types or prototypes changed"
  | Some ly when Solver.num_vars base.store - ly.ly_live_vars > ly.ly_live_vars
    ->
      Error "dead variables outnumber live ones"
  | Some ly when Fdg.dead_ids ly.ly_fdg > ly.ly_fdg.Fdg.live ->
      (* a full run builds the graph cold, which renumbers its nodes *)
      Error "dead FDG ids outnumber live ones"
  | Some ly -> advance base (Some ly) prog

(** Solver statistics accumulated by the analysis (see {!Solver.stats}). *)
let stats (env : env) = Solver.stats env.store
