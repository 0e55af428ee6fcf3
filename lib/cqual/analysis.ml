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
module Pool = Typequal.Pool
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

type fentry =
  | FMono of fsig  (** constraints link directly to these cells *)
  | FPoly of Solver.scheme * fsig  (** instantiated per occurrence *)

(** Per-function analysis outcome. A degraded function contributed no (or
    only partial) constraints; its callers see it as a library function,
    which is conservative, and {!Report} excludes its positions. *)
type outcome = Analyzed | Degraded of string

(** How a variable of a worker's private store binds into the shared
    store at merge time (parallel analysis). *)
type gbind =
  | Gvar of Solver.var  (** mirror of this pre-existing shared variable *)
  | Gauto of string
      (** auto-declared global, identified by name — it may not exist in
          the shared store yet, and several workers may introduce it
          independently; the first merged batch materializes it *)

(** A function's published summary, in the {e producing} worker's private
    terms: consumers resolve foreign variables through [p_bind] (foreign
    var id -> shared binding) into mirrors of their own. *)
type pentry = {
  p_scheme : Solver.scheme;
  p_fsig : fsig;
  p_bind : (int, gbind) Hashtbl.t;
}

(** Published summaries: written by a worker when its SCC completes —
    before its dependents are released, so the wavefront's happens-before
    edge covers them — and read by dependent workers. *)
type pub = {
  pub_m : Mutex.t;
  pub_tbl : (string, pentry) Hashtbl.t;
}

(** May instances of a scheme be shared between call sites of the same
    callee? Decided once per (scheme, callee), from the shape of the
    registered interface and the scheme's own atoms — both structural, so
    serial runs and worker replicas (over mirrored schemes) reach the same
    verdict. *)
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

(** Wall-clock phase breakdown of a parallel run (for [--stats]). *)
type par_stats = {
  ps_jobs : int;
  ps_tasks : int;  (** scheduled units: SCCs (poly) or functions (mono) *)
  ps_gen_s : float;  (** parallel constraint-generation phase *)
  ps_merge_s : float;  (** serial batched merge into the shared store *)
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
  pc : par_ctx option;
      (** present iff this is a worker's private view: [store] and every
          table above are private to one domain, and shared state is
          reached read-only through the context *)
  mutable par : par_stats option;  (** set on the shared env by parallel runs *)
  mutable fdg : Fdg.t option;
      (** the dependence graph the polymorphic modes scheduled over, kept
          so the run's FDG statistics need no second build; [None] for
          mono runs and worker views *)
  compact : bool;
      (** scheme compaction at generalization and instantiation
          memoization (default on); [false] restores the uncompacted
          behaviour — reports are identical either way, only the
          constraint-system size differs *)
  shapes : Shape.table;  (** hash-consed r-type skeletons, per store *)
  imemo : (int * string * (int * int list) list, fsig) Hashtbl.t;
      (** instantiation memo: (scheme id, callee, per-argument
          (shape id, qualifier-variable uids)) -> the shared instance.
          Valid only within one recording session — every session
          boundary resets it, so a memo hit always names an instance
          whose atoms were captured into the current recording. *)
  memo_ok : (int * string, memo_verdict) Hashtbl.t;
      (** cached sharing eligibility per (scheme id, callee); see
          {!memo_verdict} *)
}

(** A worker's window onto the shared analysis: the read-only global env
    (its tables are frozen during the parallel phase), the mirror tables
    mapping shared cells into the worker's private store, and the binding
    table the merge uses to map private variables back. *)
and par_ctx = {
  pc_genv : env;
  pc_bind : (int, gbind) Hashtbl.t;  (** private var id -> shared binding *)
  pc_gmirror : (int, Solver.var) Hashtbl.t;  (** shared var id -> mirror *)
  pc_cmirror : (int, cell) Hashtbl.t;  (** shared cell (by q id) -> mirror *)
  pc_autos : (string * cell) list ref;
      (** auto-declared globals this worker introduced, newest first *)
  pc_pub : pub;
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
(* Mirroring shared cells into a worker's private store                *)
(* ------------------------------------------------------------------ *)

(* A mirror is a fresh private variable standing for a shared one: the
   worker constrains the mirror, and the merge binds it back to the shared
   original instead of re-creating it, so the shared store's variable
   sequence stays identical to a serial run's. Mirrors are memoized per
   worker (aliasing in the shared store must stay aliasing privately). No
   declared-qualifier seeding happens here — those constraints were added
   to the shared store when the global environment was built. *)
let mirror_var env pc (g : Solver.var) : Solver.var =
  let id = Solver.var_id g in
  match Hashtbl.find_opt pc.pc_gmirror id with
  | Some v -> v
  | None ->
      let v = Solver.fresh ~name:(Solver.var_name g) env.store in
      Hashtbl.replace pc.pc_gmirror id v;
      Hashtbl.replace pc.pc_bind (Solver.var_id v) (Gvar g);
      v

let rec mirror_rt env pc = function
  | (RBase | RVoid | RStruct _) as r -> r
  | RPtr c -> RPtr (mirror_cell env pc c)
  | RFun f -> RFun (mirror_fsig env pc f)

and mirror_cell env pc (c : cell) : cell =
  let id = Solver.var_id c.q in
  match Hashtbl.find_opt pc.pc_cmirror id with
  | Some c' -> c'
  | None ->
      let c' = { q = mirror_var env pc c.q; contents = RBase } in
      Hashtbl.replace pc.pc_cmirror id c';
      c'.contents <- mirror_rt env pc c.contents;
      c'

and mirror_fsig env pc (f : fsig) : fsig =
  {
    fs_params = List.map (mirror_cell env pc) f.fs_params;
    fs_ret = mirror_rt env pc f.fs_ret;
    fs_varargs = f.fs_varargs;
  }

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
  | None -> (
      match env.pc with
      | Some pc when Hashtbl.mem pc.pc_genv.fields tag ->
          if env.field_sharing then begin
            (* worker view of the shared per-tag table: mirror the shared
               cells (memoized, so sharing is preserved) *)
            let fs =
              List.map
                (fun (name, c) -> (name, mirror_cell env pc c))
                (Hashtbl.find pc.pc_genv.fields tag)
            in
            Hashtbl.replace env.fields tag fs;
            fs
          end
          else
            (* ablation under parallelism: the shared env knows the tag, so
               behave like the [Some _] branch — fresh cells per access *)
            List.map
              (fun (name, ft) ->
                (name, cell_of_ctype ~name ~seed:(seed env) env.store ft))
              (Cprog.fields env.prog tag)
      | _ -> build_fields env tag)

and build_fields env tag =
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
      | Some c -> Some c
      | None -> (
          (* worker view: mirror the shared global on first touch *)
          match env.pc with
          | Some pc -> (
              match Hashtbl.find_opt pc.pc_genv.globals x with
              | Some gc ->
                  let c = mirror_cell env pc gc in
                  Hashtbl.replace env.globals x c;
                  Some c
              | None -> None)
          | None -> None))

(* Undeclared identifiers (K&R implicit, or benchmarks referencing symbols
   from headers we do not have): auto-declare as an int global so repeated
   uses alias. *)
let auto_global env x =
  match Hashtbl.find_opt env.globals x with
  | Some c -> c
  | None ->
      let c = fresh_cell ~name:("auto_" ^ x) env.store RBase in
      Hashtbl.replace env.globals x c;
      Hashtbl.replace env.late_mono (Solver.var_id c.q) ();
      (match env.pc with
      | Some pc ->
          (* bind by name: the shared counterpart may not exist yet, and
             concurrent workers may introduce the same one — the first
             merged batch materializes it, the rest bind to it *)
          Hashtbl.replace pc.pc_bind (Solver.var_id c.q) (Gauto x);
          pc.pc_autos := (x, c) :: !(pc.pc_autos)
      | None -> ());
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
let rec force_escape env ?(decl : Cast.ctype option) (r : rt) ~reason =
  ignore reason;
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
      force_escape env ?decl:target_decl c.contents ~reason

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let assign_to env (c : cell) ~reason =
  (* the (Assign') choice point: rules restrict the assigned ref *)
  ignore reason;
  env.rules.qr_write env.store c.q

(* Resolve a foreign variable (one of another worker's private store) to a
   variable of this worker's store, via its published shared binding. A
   variable [bind] does not cover is one of the producing scheme's locals:
   those are freshened at instantiation and need no resolution. *)
let import_var env pc (p_bind : (int, gbind) Hashtbl.t) v =
  match Hashtbl.find_opt p_bind (Solver.var_id v) with
  | Some (Gvar g) -> mirror_var env pc g
  | Some (Gauto name) -> (auto_global env name).q
  | None -> v

(* Translate a published summary into this worker's terms: scheme locals
   are kept (they only name freshening slots), while free variables —
   which name the producing worker's mirrors of shared state — are
   re-based onto this worker's own mirrors. The result behaves exactly
   like a locally generalized [FPoly] entry. *)
let import_fentry env pc (pe : pentry) : fentry =
  let resolve v = import_var env pc pe.p_bind v in
  let atoms =
    List.map
      (function
        | Solver.Avc (v, c, m, r) -> Solver.Avc (resolve v, c, m, r)
        | Solver.Acv (c, v, m, r) -> Solver.Acv (c, resolve v, m, r)
        | Solver.Avv (a, b, m, r) -> Solver.Avv (resolve a, resolve b, m, r))
      (Solver.scheme_atoms pe.p_scheme)
  in
  let sch =
    Solver.make_scheme ~locals:(Solver.scheme_locals pe.p_scheme) ~atoms
  in
  FPoly (sch, pe.p_fsig)

(* resolve a function name to its cached entry, importing shared-store
   interfaces (mono) or published summaries (poly modes) into the
   worker's own terms on first sight *)
let rec fentry_of env name : fentry option =
  match Hashtbl.find_opt env.funs name with
  | Some e -> Some e
  | None -> (
      match env.pc with
      | None -> None
      | Some pc -> (
          match Hashtbl.find_opt pc.pc_genv.funs name with
          | Some (FMono s) ->
              (* mono mode: interfaces live in the shared store (built in
                 the serial first pass); mirror once and cache *)
              let s' = mirror_fsig env pc s in
              Hashtbl.replace env.funs name (FMono s');
              Some (FMono s')
          | Some (FPoly _) | None -> (
              (* poly modes: summaries are published by completed SCC
                 workers; a missing entry means the callee's SCC degraded
                 (or is genuinely undefined) — fall through to the
                 conservative library treatment, like the serial run *)
              Mutex.lock pc.pc_pub.pub_m;
              let pe = Hashtbl.find_opt pc.pc_pub.pub_tbl name in
              Mutex.unlock pc.pc_pub.pub_m;
              match pe with
              | Some pe ->
                  Hashtbl.replace env.funs name (import_fentry env pc pe);
                  fentry_of env name
              | None -> None)))

(* instantiate a defined function for one occurrence *)
let fun_occurrence env name : fsig option =
  match fentry_of env name with
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
  match fentry_of env name with
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
                  ( Shape.id (Shape.of_rt env.shapes r),
                    List.map Solver.var_uid (rt_qvars r) ))
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
      assign_to env c ~reason:"assignment target (Assign')";
      let rr = rvalue env scope rhs in
      sub ~reason:"assignment flow" env.store rr c.contents;
      c.contents
  | EAssignOp (_, lhs, rhs) ->
      let c = lvalue env scope lhs in
      assign_to env c ~reason:"compound assignment target (Assign')";
      ignore (rvalue env scope rhs);
      c.contents
  | EIncDec (_, _, lhs) ->
      let c = lvalue env scope lhs in
      assign_to env c ~reason:"++/-- target (Assign')";
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
                    | Some d ->
                        force_escape env ~decl:d r
                          ~reason:("argument to library function " ^ fname)
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
              List.iter
                (fun r ->
                  force_escape env r
                    ~reason:("argument to undeclared function " ^ fname))
                arg_rts;
              RBase))
  | _ -> (
      (* call through an expression: function pointer *)
      match rvalue env scope callee with
      | RFun s -> link_sig s
      | RPtr { contents = RFun s; _ } -> link_sig s
      | _ ->
          List.iter
            (fun r ->
              force_escape env r ~reason:"argument through unknown pointer")
            arg_rts;
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
    pc = None;
    par = None;
    fdg = None;
    compact;
    shapes = Shape.create_table ();
    imemo = Hashtbl.create 64;
    memo_ok = Hashtbl.create 16;
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

(* The definitions mono analyzes: of a name defined more than once, only
   the one the program's function table resolves it to (the last) — the
   one calls link to, the polymorphic modes analyze and the report
   measures. Each body is then checked against its own interface. *)
let linked_functions prog =
  List.filter
    (fun (f : Cast.fundef) ->
      match Cprog.find_fun prog f.f_name with Some g -> g == f | None -> false)
    (Cprog.functions prog)

(* Mono's interface pass, in the shared store before any body, so calls
   in any order link directly; a function whose interface cannot be built
   is degraded and left out of env.funs, so its callers fall back to the
   conservative library treatment. *)
let mono_interfaces env funs : (Cast.fundef * fsig) list =
  timed_phase env Solver.Congen (fun () ->
      List.filter_map
        (fun (f : Cast.fundef) ->
          match isolated env [ f ] (fun () -> iface_of_fundef env f) with
          | Some s ->
              Hashtbl.replace env.funs f.f_name (FMono s);
              Some (f, s)
          | None -> None)
        funs)

(* Mono's task (the "Mono" column of Table 2): each body against its
   interface from the pass above — mirrored on first sight in a worker's
   view. *)
let mono_bodies env (members : Cast.fundef list) =
  List.iter
    (fun (f : Cast.fundef) ->
      match fentry_of env f.f_name with
      | Some (FMono s) ->
          timed_phase env Solver.Congen (fun () -> analyze_body env f s)
      | _ -> ())
    members

(* Generalize an SCC's captured constraints: every variable mentioned
   that is not part of the monomorphic global environment becomes a scheme
   local (Section 4.3). [is_global] decides membership in the monomorphic
   environment: by creation watermark + late-mono table for a serial run,
   by the mirror/auto binding table for a worker's private store. *)
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
   deterministic (compaction never iterates a hash table, so serial and
   worker derivations agree structurally), and excluded from
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

(* Generalize a recorded SCC into one scheme, optionally simplify and
   compact it down to its interface-reachable core, and register it for
   the members. *)
let finish_scc env ~is_global ~simplify (scc_ifaces, atoms) =
  let sch =
    timed_phase env Solver.Generalize (fun () ->
        generalize_scc ~is_global atoms scc_ifaces)
  in
  let interface =
    List.concat_map (fun (_, s) -> rt_qvars (RFun s)) scc_ifaces
  in
  let sch =
    if simplify then Solver.simplify_scheme env.store ~interface sch else sch
  in
  let sch =
    if env.compact then Solver.compact env.store ~interface sch else sch
  in
  register_member_schemes env sch scc_ifaces;
  (scc_ifaces, sch)

(** Process one SCC (Section 4.3, the "Poly" column): its constraints are
    captured and generalized into one scheme shared by its members.
    Raises on analysis failure — fault isolation is the scheduler's job. *)
let poly_scc env ~is_global ~simplify members =
  finish_scc env ~is_global ~simplify (record_scc env ~mono:true members)

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
  (* simplify and compact both reduce the scheme to its interface-reachable
     core and are exact on interface solutions; compact additionally
     dedupes and collapses cycles, so when it is on running both would be
     wasted work (measured: they reach the same size) *)
  let simplify = not env.compact in
  let is_recursive =
    match members with
    | [ (f : Cast.fundef) ] ->
        (* the FDG filters self-edges; detect direct recursion from the
           body's own mentions *)
        List.mem f.f_name (Fdg.mentions f)
    | _ -> true
  in
  if not is_recursive then poly_scc env ~is_global ~simplify members
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
        finish_scc env ~is_global ~simplify (record_scc env ~mono:false members)
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
(* Parallel analysis: worker views and the ordered merge (DESIGN.md)   *)
(* ------------------------------------------------------------------ *)

(* A private analysis view for one worker task: fresh store (charging the
   shared budget), private tables, and a mirror context onto [genv]. *)
let worker_env (genv : env) (pub : pub) : env =
  let store = Solver.create genv.rules.qr_space in
  Solver.set_budget store genv.budget;
  {
    store;
    prog = genv.prog;
    mode = genv.mode;
    fields = Hashtbl.create 16;
    funs = Hashtbl.create 16;
    globals = Hashtbl.create 16;
    rules = genv.rules;
    warnings = [];
    late_mono = Hashtbl.create 8;
    field_sharing = genv.field_sharing;
    outcomes = Hashtbl.create 8;
    budget = genv.budget;
    pc =
      Some
        {
          pc_genv = genv;
          pc_bind = Hashtbl.create 64;
          pc_gmirror = Hashtbl.create 64;
          pc_cmirror = Hashtbl.create 64;
          pc_autos = ref [];
          pc_pub = pub;
        };
    par = None;
    fdg = None;
    compact = genv.compact;
    shapes = Shape.create_table ();
    imemo = Hashtbl.create 32;
    memo_ok = Hashtbl.create 16;
  }

let worker_pc env =
  match env.pc with Some pc -> pc | None -> invalid_arg "not a worker env"

(* Everything a finished task hands to the merge, in the worker's own
   terms. *)
type task_result = {
  tr_batch : Solver.batch;
  tr_bind : (int, gbind) Hashtbl.t;
  tr_autos : (string * cell) list;  (* creation order *)
  tr_warnings : string list;  (* newest first, as accumulated *)
  tr_outcomes : (string * outcome) list;
  tr_ifaces : (Cast.fundef * fsig) list;  (* [] when degraded / mono *)
  tr_scheme : Solver.scheme option;  (* None in mono mode / when degraded *)
  tr_aux : Solver.stats;  (* worker-store counters (compaction, memo) *)
}

let task_result wenv ~ifaces ~scheme : task_result =
  let pc = worker_pc wenv in
  {
    tr_batch = Solver.export wenv.store;
    tr_bind = pc.pc_bind;
    tr_autos = List.rev !(pc.pc_autos);
    tr_warnings = wenv.warnings;
    tr_outcomes = Hashtbl.fold (fun k v acc -> (k, v) :: acc) wenv.outcomes [];
    tr_ifaces = ifaces;
    tr_scheme = scheme;
    tr_aux = Solver.stats wenv.store;
  }

(* Merge one worker's result into the shared env, in deterministic task
   order: absorb the batch (mirrors bind to their shared originals; every
   other variable is re-created in creation order, reproducing the
   variable and atom sequence of a serial run), materialize auto globals,
   and translate interfaces and scheme into shared-store terms. Returns
   the interface entries to report. *)
let merge_result genv (r : task_result) : (string * fsig) list =
  Solver.merge_aux_stats genv.store r.tr_aux;
  let bind v =
    match Hashtbl.find_opt r.tr_bind (Solver.var_id v) with
    | Some (Gvar g) -> Some g
    | Some (Gauto name) ->
        (* materialized by an earlier batch, or created fresh right here *)
        Option.map (fun (c : cell) -> c.q) (Hashtbl.find_opt genv.globals name)
    | None -> None
  in
  let skippable =
    (match r.tr_scheme with None -> true | Some _ -> false)
    && r.tr_ifaces = [] && r.tr_autos = []
    && Solver.batch_skippable ~bind r.tr_batch
  in
  if skippable then begin
    (* the absorb would create no variable and add no atom: skip it, keep
       only the side reports (common for leaf functions whose body
       touches nothing beyond its mirrored interface) *)
    Solver.note_skipped_batch genv.store;
    List.iter (fun (n, o) -> Hashtbl.replace genv.outcomes n o) r.tr_outcomes;
    genv.warnings <- r.tr_warnings @ genv.warnings;
    []
  end
  else begin
  let rn = Solver.absorb genv.store ~bind r.tr_batch in
  let rnv v = match rn v with Some v' -> v' | None -> v in
  List.iter
    (fun (name, (c : cell)) ->
      if not (Hashtbl.mem genv.globals name) then begin
        let gc = { q = rnv c.q; contents = RBase } in
        Hashtbl.replace genv.globals name gc;
        Hashtbl.replace genv.late_mono (Solver.var_id gc.q) ()
      end)
    r.tr_autos;
  List.iter (fun (n, o) -> Hashtbl.replace genv.outcomes n o) r.tr_outcomes;
  genv.warnings <- r.tr_warnings @ genv.warnings;
  match r.tr_scheme with
  | None ->
      List.map
        (fun ((f : Cast.fundef), s) -> (f.f_name, copy_fsig rnv s))
        r.tr_ifaces
  | Some sch ->
      let rn_atom = function
        | Solver.Avc (v, c, m, re) -> Solver.Avc (rnv v, c, m, re)
        | Solver.Acv (c, v, m, re) -> Solver.Acv (c, rnv v, m, re)
        | Solver.Avv (a, b, m, re) -> Solver.Avv (rnv a, rnv b, m, re)
      in
      let sch_g =
        Solver.make_scheme
          ~locals:(List.map rnv (Solver.scheme_locals sch))
          ~atoms:(List.map rn_atom (Solver.scheme_atoms sch))
      in
      let multi = match r.tr_ifaces with _ :: _ :: _ -> true | _ -> false in
      List.map
        (fun ((f : Cast.fundef), s) ->
          let s_g = copy_fsig rnv s in
          (* same member projection the worker registered locally, over
             the shared-store translation of the scheme *)
          let sch_f = if multi then member_scheme genv sch_g s_g else sch_g in
          Hashtbl.replace genv.funs f.f_name (FPoly (sch_f, s_g));
          (f.f_name, s_g))
        r.tr_ifaces
  end

(* ------------------------------------------------------------------ *)
(* The two schedulers                                                  *)
(* ------------------------------------------------------------------ *)

(* A mode's task processor: one task's members, analyzed in [env] (the
   shared env at jobs 1, a worker's private view otherwise); returns the
   interfaces to report and the scheme the members were registered
   with. *)
type processor =
  env ->
  is_global:(Solver.var -> bool) ->
  Cast.fundef list ->
  (Cast.fundef * fsig) list * Solver.scheme option

(* Jobs 1: the tasks in order, directly in the shared store. The
   monomorphic environment is everything created before [watermark]
   (globals, struct fields) plus the late-arriving auto globals. *)
let run_in_order env ~watermark ~(process : processor) tasks =
  let is_global v =
    Solver.var_id v < watermark || Hashtbl.mem env.late_mono (Solver.var_id v)
  in
  List.concat_map
    (fun members ->
      match isolated env members (fun () -> process env ~is_global members) with
      | Some (ifaces, _) ->
          List.map (fun ((f : Cast.fundef), s) -> (f.f_name, s)) ifaces
      | None -> [])
    tasks

(* Jobs > 1: the wavefront. A task is ready once every task it depends on
   has completed and published its summaries; ready tasks run
   concurrently on the pool, each inferring into a private store, where
   the monomorphic environment is what the binding table maps back to
   shared state. Batches are merged serially in task order — the order
   {!run_in_order} takes — so the shared store, and hence every reported
   figure, is identical to a serial run's. *)
let run_wavefront genv ~jobs ~(process : processor) tasks
    (in_degree0, dependents) =
  let t0 = Unix.gettimeofday () in
  let n = Array.length tasks in
  let indeg = Array.copy in_degree0 in
  let pub = { pub_m = Mutex.create (); pub_tbl = Hashtbl.create 64 } in
  let results : task_result option array = Array.make n None in
  let m = Mutex.create () in
  Pool.with_pool ~jobs (fun pool ->
      let rec task i () =
        let members = tasks.(i) in
        let wenv = worker_env genv pub in
        let pc = worker_pc wenv in
        let is_global v = Hashtbl.mem pc.pc_bind (Solver.var_id v) in
        (* a degraded task keeps its partial batch: a degraded serial task
           also leaves its partial constraints in the store *)
        let ifaces, scheme =
          Option.value ~default:([], None)
            (isolated wenv members (fun () -> process wenv ~is_global members))
        in
        (* publish before releasing dependents: they instantiate us, and
           only ever see the per-member schemes the worker registered *)
        let entries =
          List.filter_map
            (fun ((f : Cast.fundef), _) ->
              match Hashtbl.find_opt wenv.funs f.f_name with
              | Some (FPoly (sch, s)) ->
                  Some
                    ( f.f_name,
                      { p_scheme = sch; p_fsig = s; p_bind = pc.pc_bind } )
              | _ -> None)
            ifaces
        in
        Mutex.lock pub.pub_m;
        List.iter (fun (n, e) -> Hashtbl.replace pub.pub_tbl n e) entries;
        Mutex.unlock pub.pub_m;
        let r = task_result wenv ~ifaces ~scheme in
        let ready = ref [] in
        Mutex.lock m;
        results.(i) <- Some r;
        List.iter
          (fun j ->
            indeg.(j) <- indeg.(j) - 1;
            if indeg.(j) = 0 then ready := j :: !ready)
          dependents.(i);
        Mutex.unlock m;
        List.iter (fun j -> Pool.submit pool (task j)) !ready
      in
      Array.iteri
        (fun i d -> if d = 0 then Pool.submit pool (task i))
        in_degree0;
      Pool.wait pool);
  let t_gen = Unix.gettimeofday () -. t0 in
  let t1 = Unix.gettimeofday () in
  (* the merge replays variables the workers already charged against the
     shared budget; don't charge them twice *)
  Solver.set_budget genv.store None;
  let ifaces = ref [] in
  (* drop each batch as soon as it is merged: a retained batch pins the
     whole worker arena (its variables point back at their store's
     columns), which is where the multi-gigaword jobs>1 heap came from *)
  Array.iteri
    (fun i -> function
      | Some r ->
          List.iter (fun e -> ifaces := e :: !ifaces) (merge_result genv r);
          results.(i) <- None
      | None -> ())
    results;
  Solver.set_budget genv.store genv.budget;
  genv.par <-
    Some
      {
        ps_jobs = jobs;
        ps_tasks = n;
        ps_gen_s = t_gen;
        ps_merge_s = Unix.gettimeofday () -. t1;
      };
  List.rev !ifaces

(** Run an analysis as a task list. Mono has one task per linked
    function, after a single interface pass; poly and polyrec have one
    task per FDG SCC (Section 4.3), callees first. [jobs > 1] runs the
    tasks on the multicore wavefront (mono's tasks have no
    dependencies); results are deterministic and identical to
    [jobs = 1], which runs them in order in the shared store. *)
let run ?rules ?field_sharing ?(simplify = false) ?compact ?budget ?(jobs = 1)
    mode (prog : Cprog.t) : env * (string * fsig) list =
  let env = make_env ?rules ?field_sharing ?compact ?budget mode prog in
  build_global_env env;
  (* variables created so far (globals, struct fields) are monomorphic *)
  let watermark = Solver.num_vars env.store in
  let reported, tasks, deps =
    match mode with
    | Mono ->
        let ifaces = mono_interfaces env (linked_functions prog) in
        let n = List.length ifaces in
        ( List.map (fun ((f : Cast.fundef), s) -> (f.f_name, s)) ifaces,
          List.map (fun (f, _) -> [ f ]) ifaces,
          fun () -> (Array.make n 0, Array.make n []) )
    | Poly | Polyrec ->
        let fdg = Fdg.build prog in
        env.fdg <- Some fdg;
        ( [],
          List.map (List.filter_map (Cprog.find_fun prog)) fdg.Fdg.sccs,
          fun () -> Fdg.scc_deps fdg )
  in
  let process : processor =
   fun env ~is_global members ->
    match mode with
    | Mono ->
        mono_bodies env members;
        ([], None)
    | Poly ->
        let ifaces, sch = poly_scc env ~is_global ~simplify members in
        (ifaces, Some sch)
    | Polyrec ->
        let ifaces, sch = polyrec_scc env ~is_global members in
        (ifaces, Some sch)
  in
  let ifaces =
    if jobs > 1 then
      run_wavefront env ~jobs ~process (Array.of_list tasks) (deps ())
    else run_in_order env ~watermark ~process tasks
  in
  analyze_global_inits env;
  (env, reported @ ifaces)

(** Solver statistics accumulated by the analysis (see {!Solver.stats}). *)
let stats (env : env) = Solver.stats env.store
