(** Measurement of const-inference results (Section 4.4).

    "Interesting" const positions are the pointer levels of the arguments
    and results of {e defined} functions: [int foo(int x, int *y)] has one
    interesting location — the contents of [y], which is itself a ref. For
    every interesting position the analysis decides that the ref (1) must
    be const, (2) must not be const, or (3) could be either; the number of
    {e possible} consts is (1) + (3), which is what the Mono and Poly
    columns of Table 2 count. Removing a source const merely moves a
    position from (1) to (3), so the possible count does not depend on the
    source annotations. *)

module Solver = Typequal.Solver
open Cfront
open Qtypes

type where = Param of int * string | Ret

(* Positions are plain data (no solver-variable back-pointers): the whole
   {!results} record must survive [Marshal] for the persistent run cache.
   The [p_unit]/[p_line]/[p_col] anchor gives every position a stable
   source address, so a marshaled result can still be queried by
   [file:line:col] even though the solver variable is gone. *)
type position = {
  p_fun : string;
  p_where : where;
  p_level : int;  (** 1 = contents of the pointer itself *)
  p_declared : bool;  (** const written in the source at this level *)
  p_levels : (string * string) option;
      (** inferred [least, greatest] level names when the measured
          qualifier is an ordered (multi-level) coordinate; [None] for
          classic two-point qualifiers *)
  p_unit : string;  (** source unit the anchor refers to; "" if unknown *)
  p_line : int;  (** 1-based line of the declaring name; 0 if unknown *)
  p_col : int;  (** 1-based column of the declaring name; 0 if unknown *)
}

(** Canonical stable address of a position: [unit:line:col@level] when
    the anchor carries column precision, otherwise the structural
    fallback [unit:fun:pN@level] / [unit:fun:ret@level]. Both forms are
    registered in the {!measure_indexed} index, so clients may query by
    either. *)
let structural_key (p : position) =
  let w =
    match p.p_where with
    | Param (i, _) -> Printf.sprintf "p%d" i
    | Ret -> "ret"
  in
  Printf.sprintf "%s:%s:%s@%d" p.p_unit p.p_fun w p.p_level

let position_key (p : position) =
  if p.p_line > 0 && p.p_col > 0 then
    Printf.sprintf "%s:%d:%d@%d" p.p_unit p.p_line p.p_col p.p_level
  else structural_key p

type verdict = Must_const | Must_not_const | Either

type results = {
  positions : (position * verdict) list;
  declared : int;  (** the "Declared" column *)
  possible : int;  (** the "Mono"/"Poly" column: (1) + (3) *)
  must : int;  (** class (1) *)
  total : int;  (** the "Total possible" column *)
  type_errors : int;  (** unsatisfiable constraints (0 for correct C) *)
  warnings : string list;
  outcomes : (string * Analysis.outcome) list;
      (** per-function fate, in source order; degraded functions have no
          positions and their callers see unconstrained summaries *)
}

(* Walk the declared C type and the translated r-type in parallel,
   collecting one position per pointer level. The qualifier variable rides
   alongside each position internally; {!measure} classifies through it
   and drops it before publishing. *)
let positions_of_rt ?(qual = "const") ?(loc = ("", 0, 0)) ~fname ~where prog
    (decl_ty : Cast.ctype) (r : rt) : (position * Solver.var) list =
  let p_unit, p_line, p_col = loc in
  let rec go level decl_ty r acc =
    match (decl_ty, r) with
    | (Cast.TPtr (target, _) | Cast.TArray (target, _, _)), RPtr c ->
        let pos =
          {
            p_fun = fname;
            p_where = where;
            p_level = level;
            p_declared = Cast.has_qual qual (Cast.quals_of target);
            p_levels = None;
            p_unit;
            p_line;
            p_col;
          }
        in
        go (level + 1) target c.contents ((pos, c.q) :: acc)
    | _ -> List.rev acc
  in
  go 1 (Cprog.decay (Cprog.expand prog decl_ty)) r []

(* [locate fname line] resolves an AST line to its (unit, local line)
   pair: per-unit sessions map through the member's home unit, concat
   mode through the span table. The default leaves lines untouched with
   an anonymous unit, preserving historical output for batch callers. *)
let positions_of_fun ?qual ?(locate = fun _fname line -> ("", line)) prog
    (f : Cast.fundef) (iface : fsig) : (position * Solver.var) list =
  let arity = List.length f.f_params in
  if List.length iface.fs_params <> arity then
    raise
      (Cprog.Frontend_error
         (Printf.sprintf "%s: %d parameters, but its interface has %d"
            f.f_name arity (List.length iface.fs_params)));
  let anchor (line, col) =
    if line <= 0 then ("", 0, 0)
    else
      let u, l = locate f.f_name line in
      (u, l, col)
  in
  let param_locs =
    (* defensively re-align with f_params (exotic declarators may have
       produced fewer recorded name spans than parameters) *)
    let rec pad locs k =
      if k = 0 then []
      else
        match locs with
        | l :: rest -> l :: pad rest (k - 1)
        | [] -> (0, 0) :: pad [] (k - 1)
    in
    pad f.f_param_locs arity
  in
  let params =
    List.concat
      (List.map2
         (fun (i, (pname, pty), ploc) (c : cell) ->
           positions_of_rt ?qual ~loc:(anchor ploc) ~fname:f.f_name
             ~where:(Param (i, pname)) prog pty c.contents)
         (List.map2
            (fun (i, p) ploc -> (i, p, ploc))
            (List.mapi (fun i p -> (i, p)) f.f_params)
            param_locs)
         iface.fs_params)
  in
  let ret =
    positions_of_rt ?qual ~loc:(anchor f.f_name_loc) ~fname:f.f_name
      ~where:Ret prog f.f_ret iface.fs_ret
  in
  params @ ret

(** One function's measured positions with their stable keys (canonical,
    structural). They depend only on the interface, the home unit and the
    definition's signature and anchors, so a warm re-measure reuses them
    while the interface is physically the same and the rest is equal; the
    verdicts are always re-read. *)
type fun_rows = {
  mutable fr_def : Cast.fundef;
  fr_iface : fsig;
  fr_unit : string;
  fr_rows : (position * Solver.var * string * string) list;
  mutable fr_run : int;  (** the measurement that last used it *)
}

(** Measured rows by function name, for {!measure_indexed}'s [?prev]. *)
type rows = (string, fun_rows) Hashtbl.t

let run_counter = Atomic.make 0

(* what {!positions_of_fun} reads of a definition *)
let same_anchors (a : Cast.fundef) (b : Cast.fundef) =
  Cast.equal_signature a b
  && a.f_name_loc = b.f_name_loc
  && a.f_param_locs = b.f_param_locs

let keyed (p, var) =
  let sk = structural_key p in
  let ck = position_key p in
  (p, var, (if ck = sk then sk (* one string for both *) else ck), sk)

(** Classify every interesting position after solving.

    If the analysis ran under a {!Typequal.Budget} that tripped, the
    solver's least/greatest solutions may be partial, so every position is
    conservatively classified [Either] and every function is reported
    degraded (keeping any more specific per-function reason already
    recorded). With [keys] (the default) every position comes with its
    stable keys, and rows of [prev] are reused where they still apply;
    [prev] is updated in place (a fresh table without it) and returned,
    holding exactly this measurement's rows for the next call. Without,
    the keys are empty and no row is kept. *)
let measure_full ?(locate = fun _fname line -> ("", line)) ?prev
    ?(keys = true) (env : Analysis.env) (ifaces : (string * fsig) list) :
    results * (position * verdict * Solver.var * string * string) list * rows
    =
  let store = env.Analysis.store in
  ignore (Solver.solve store : (unit, Solver.error list) result);
  let type_errors = Solver.error_count store in
  let qual = env.Analysis.rules.Analysis.qr_name in
  let budget_trip =
    match env.Analysis.budget with
    | Some b -> Typequal.Budget.exhausted b
    | None -> None
  in
  let rows : rows =
    match prev with Some h -> h | None -> Hashtbl.create 1024
  in
  let run = Atomic.fetch_and_add run_counter 1 in
  let positions =
    List.concat_map
      (fun (name, iface) ->
        match Cprog.find_fun env.Analysis.prog name with
        | Some f -> (
            let unit = fst (locate name 1) in
            match Hashtbl.find_opt rows name with
            | Some fr
              when fr.fr_iface == iface && fr.fr_unit = unit
                   && (fr.fr_def == f || same_anchors fr.fr_def f) ->
                (* hold the current definition, not a re-parse's
                   predecessor (and its whole body) *)
                fr.fr_def <- f;
                fr.fr_run <- run;
                fr.fr_rows
            | _ -> (
                match
                  positions_of_fun ~qual ~locate env.Analysis.prog f iface
                with
                | ps when not keys -> List.map (fun (p, var) -> (p, var, "", "")) ps
                | ps ->
                    let fr_rows = List.map keyed ps in
                    Hashtbl.replace rows name
                      {
                        fr_def = f;
                        fr_iface = iface;
                        fr_unit = unit;
                        fr_rows;
                        fr_run = run;
                      };
                    fr_rows
                | exception Cprog.Frontend_error m ->
                    Analysis.degrade env name ("measurement failed: " ^ m);
                    []))
        | None -> [])
      ifaces
  in
  Hashtbl.filter_map_inplace
    (fun _ fr -> if fr.fr_run = run then Some fr else None)
    rows;
  (* when the measured qualifier is an ordered coordinate, also report
     the inferred level range by name (never raw masks) *)
  let sp = Solver.space store in
  let qi = Typequal.Lattice.Space.find_opt sp qual in
  let level_range var =
    match qi with
    | Some i when Typequal.Lattice.Space.order sp i <> None ->
        Some
          ( Typequal.Lattice.Elt.level_name sp i (Solver.least store var),
            Typequal.Lattice.Elt.level_name sp i (Solver.greatest store var) )
    | _ -> None
  in
  let classified =
    List.map
      (fun (p, var, ck, sk) ->
        let v =
          if budget_trip <> None then Either
          else
            match Solver.classify_name store var qual with
            | Solver.Forced_up -> Must_const
            | Solver.Forced_down -> Must_not_const
            | Solver.Free -> Either
        in
        let p =
          if budget_trip <> None then p
          else
            match level_range var with
            | None when p.p_levels = None -> p
            | levels -> { p with p_levels = levels }
        in
        (p, v, var, ck, sk))
      positions
  in
  let pairs = List.map (fun (p, v, _, _, _) -> (p, v)) classified in
  let outcomes =
    List.map
      (fun (f : Cast.fundef) ->
        let o =
          match Hashtbl.find_opt env.Analysis.outcomes f.f_name with
          | Some (Analysis.Degraded _ as o) -> o
          | recorded -> (
              match budget_trip with
              | Some r -> Analysis.Degraded ("budget exhausted: " ^ r)
              | None -> (
                  match recorded with
                  | Some o -> o
                  | None -> Analysis.Analyzed))
        in
        (f.f_name, o))
      (Cprog.functions env.Analysis.prog)
  in
  let declared = ref 0 and possible = ref 0 and must = ref 0 and total = ref 0 in
  List.iter
    (fun (p, v) ->
      incr total;
      if p.p_declared then incr declared;
      if v <> Must_not_const then incr possible;
      if v = Must_const then incr must)
    pairs;
  ( {
      positions = pairs;
      declared = !declared;
      possible = !possible;
      must = !must;
      total = !total;
      type_errors;
      warnings = env.Analysis.warnings;
      outcomes;
    },
    classified,
    rows )

let measure ?locate env ifaces =
  let r, _, _ = measure_full ?locate ~keys:false env ifaces in
  r

(** Like {!measure}, but also return an index from stable position keys
    to the live position, verdict and solver variable, every position's
    canonical key in report order, and the measured rows (pass them back
    as [prev] to the next measurement of the same, re-analyzed store).
    Each position is registered under its structural key and (when the
    anchor has column precision) its canonical [unit:line:col@level] key;
    when two positions share a key, the first in report order owns it.
    Only meaningful against a live store — the index holds
    solver-variable back-pointers and must not be marshaled. *)
let measure_indexed ?locate ?prev env ifaces :
    results
    * (string, position * verdict * Solver.var) Hashtbl.t
    * string array
    * rows =
  let r, classified, rows = measure_full ?locate ?prev env ifaces in
  let index = Hashtbl.create (2 * List.length classified) in
  let keys = Array.make (List.length classified) "" in
  List.iteri
    (fun n (p, v, var, ck, sk) ->
      let add k =
        if not (Hashtbl.mem index k) then Hashtbl.add index k (p, v, var)
      in
      add sk;
      if ck != sk then add ck;
      keys.(n) <- ck)
    classified;
  (r, index, keys, rows)

let pp_where ppf = function
  | Param (i, name) -> Fmt.pf ppf "param %d (%s)" i name
  | Ret -> Fmt.string ppf "return"

let pp_verdict ppf = function
  | Must_const -> Fmt.string ppf "must-const"
  | Must_not_const -> Fmt.string ppf "non-const"
  | Either -> Fmt.string ppf "could-be-const"

let pp_position ppf ((p, v) : position * verdict) =
  Fmt.pf ppf "%s: %a level %d%s: %a%a" p.p_fun pp_where p.p_where p.p_level
    (if p.p_declared then " [declared const]" else "")
    pp_verdict v
    Fmt.(
      option (fun ppf (lo, hi) ->
          if lo = hi then pf ppf " [%s]" lo else pf ppf " [%s..%s]" lo hi))
    p.p_levels

let pp_results ppf (r : results) =
  Fmt.pf ppf "declared=%d inferred-possible=%d must=%d total=%d errors=%d"
    r.declared r.possible r.must r.total r.type_errors
