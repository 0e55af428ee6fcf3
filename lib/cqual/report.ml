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
   pair: a session names the function's home unit ({!Fdg.home}), and its
   lines are already unit-local. The default leaves lines untouched with
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

(** One measured position: its stable keys (canonical, structural) and
    its solver variable, which hold for as long as the function's rows
    are reused, and its verdict, re-read on every measurement. *)
type row = {
  mutable r_result : position * verdict;
      (** as {!results} lists it; [p_levels] is re-read with the verdict,
          and the pair is replaced only when either moved *)
  r_var : Solver.var;
  r_key : string;  (** canonical key *)
  r_skey : string;  (** structural key; physically [r_key] when equal *)
  mutable r_ord : int;  (** place in report order *)
}

(** One function's rows. They depend only on the interface, the home unit
    and the definition's signature and anchors, so a warm re-measure
    reuses them while the interface is physically the same (its task was
    kept) and the rest is equal. *)
type fun_rows = {
  mutable fr_def : Cast.fundef;
  fr_iface : fsig;
  fr_unit : string;
  fr_rows : row array;
}

(** A measurement, kept to seed the next one of the same, re-analyzed
    store ([?prev]): the rows and the outcome of every function by FDG
    node of the graph it measured (the next graph, built from that one,
    keeps its node ids), the unit names its positions were anchored in,
    every row in report order, and the key index. Each
    row is registered under its structural key and (when the anchor has
    column precision) its canonical [unit:line:col@level] key; when rows
    share a key, [shared] lists them and the first in report order owns
    the key. The index holds solver-variable back-pointers, so it is only
    meaningful against the live store and must not be marshaled. *)
type rows = {
  mutable by_node : fun_rows option array;
  mutable outcome_of : (string * Analysis.outcome) array;
      (** FDG node -> its name and outcome, as {!results} lists them *)
  mutable graph : int;  (** the measured graph's [Fdg.stamp] *)
  mutable unit_names : string array;  (** the [units] measured with *)
  mutable in_order : row array;
  mutable index : (string, row) Hashtbl.t;
  shared : (string, row list) Hashtbl.t;
  mutable remeasured : int;  (** functions measured afresh by the last call *)
  mutable index_patched : bool;
      (** the last call updated the index by the changed rows only *)
}


(* what {!positions_of_fun} reads of a definition *)
let same_anchors (a : Cast.fundef) (b : Cast.fundef) =
  Cast.equal_signature a b
  && a.f_name_loc = b.f_name_loc
  && a.f_param_locs = b.f_param_locs

let make_row ~keys (p, var) =
  let r_key, r_skey =
    if not keys then ("", "")
    else
      let sk = structural_key p in
      let ck = position_key p in
      ((if ck = sk then sk (* one string for both *) else ck), sk)
  in
  { r_result = (p, Either); r_var = var; r_key; r_skey; r_ord = 0 }

let iter_keys f r =
  f r.r_skey;
  if r.r_key != r.r_skey then f r.r_key

(* register [r] under [k]: the owner, or one more row sharing it *)
let add_key st r k =
  match Hashtbl.find_opt st.index k with
  | None -> Hashtbl.add st.index k r
  | Some o ->
      let rows = Option.value (Hashtbl.find_opt st.shared k) ~default:[ o ] in
      Hashtbl.replace st.shared k (r :: rows)

(* a shared key belongs to the first of its rows in report order *)
let settle_shared st =
  Hashtbl.iter
    (fun k rows ->
      let first =
        List.fold_left (fun a r -> if r.r_ord < a.r_ord then r else a) (List.hd rows) rows
      in
      Hashtbl.replace st.index k first)
    st.shared

let rebuild_index st =
  (* sized for every row's two keys: no resizing on the way *)
  st.index <- Hashtbl.create (2 * Array.length st.in_order);
  Hashtbl.reset st.shared;
  Array.iter (fun r -> iter_keys (add_key st r) r) st.in_order;
  settle_shared st

(* Update the index by the rows that left and the rows that arrived, then
   re-settle the shared keys (report order may have moved). Every row that
   left was registered by the measurement that made it. *)
let patch_index st ~removed ~added =
  let remove r k =
    match Hashtbl.find_opt st.shared k with
    | Some rows -> (
        match List.filter (fun o -> o != r) rows with
        | [ o ] ->
            Hashtbl.remove st.shared k;
            Hashtbl.replace st.index k o
        | rows -> Hashtbl.replace st.shared k rows)
    | None -> Hashtbl.remove st.index k
  in
  List.iter (Array.iter (fun r -> iter_keys (remove r) r)) removed;
  List.iter (Array.iter (fun r -> iter_keys (add_key st r) r)) added;
  settle_shared st

(** Classify every interesting position after solving.

    If the analysis ran under a {!Typequal.Budget} that tripped, the
    solver's least/greatest solutions may be partial, so every position is
    conservatively classified [Either] and every function is reported
    degraded (keeping any more specific per-function reason already
    recorded). With [keys] (the default) every position comes with its
    stable keys and the index over them. Without, the keys are empty and
    there is no index. [prev] is updated in place (a fresh state without
    it) and returned, holding exactly this measurement's rows for the
    next call. When the analysis's graph was built from the one [prev]
    measured, only the removed functions and those the rerun says may
    have moved ({!Analysis.layout}'s [ly_moved]) are looked at: their
    rows are kept when their interface is physically the one measured
    and their anchors and home unit are the same, and measured afresh
    otherwise; every other function keeps its rows and outcome. Otherwise
    every reported function is measured. [ifaces] are the interfaces the
    analysis's last run reported. [units] (the unit names in link order)
    anchors positions like [locate] does, each function in its home unit
    ({!Fdg.home}). The graph flags a function whose home index moved,
    but not an index that now names another unit: with [units] other
    than [prev]'s, every function with rows is looked at. *)
let measure_full ?(locate = fun _fname line -> ("", line)) ?(units = [||]) ?prev
    ?(keys = true) (env : Analysis.env) (ifaces : (string * fsig) list) :
    results * rows =
  let store = env.Analysis.store in
  ignore (Solver.solve store : (unit, Solver.error list) result);
  let type_errors = Solver.error_count store in
  let qual = env.Analysis.rules.Analysis.qr_name in
  let budget_trip =
    match env.Analysis.budget with
    | Some b -> Typequal.Budget.exhausted b
    | None -> None
  in
  let ly = Option.get env.Analysis.layout in
  let g = ly.Analysis.ly_fdg in
  let locate =
    if units = [||] then locate
    else fun fname line ->
      ((match Fdg.node g fname with Some v -> units.(g.Fdg.home.(v)) | None -> ""), line)
  in
  let st =
    match prev with
    | Some st -> st
    | None ->
        {
          by_node = [||];
          outcome_of = [||];
          graph = -1;
          unit_names = [||];
          in_order = [||];
          index = Hashtbl.create 1;
          shared = Hashtbl.create 16;
          remeasured = 0;
          index_patched = false;
        }
  in
  (* [prev]'s rows and outcomes apply when this graph was built from the
     one they measured: only the functions the edit touched and the
     members of re-run tasks can differ *)
  let from_prev = st.graph >= 0 && st.graph = g.Fdg.prev_stamp && budget_trip = None in
  let ids = g.Fdg.ids in
  let fit a x =
    let m = Array.length a in
    if not from_prev then Array.make ids x
    else if m >= ids then a
    else Array.append a (Array.make (max ids (2 * m) - m) x)
  in
  let by_node = fit st.by_node None in
  let outcome_of = fit st.outcome_of ("", Analysis.Analyzed) in
  (* the nodes whose rows and outcome are looked at again: the graph
     flags the names whose first definition moved in the unit list; a new
     unit list may move any of them *)
  let moved =
    if not from_prev then []
    else if units = st.unit_names then ly.Analysis.ly_moved
    else begin
      let all = ref [] in
      Array.iteri (fun v fr -> if Option.is_some fr then all := v :: !all) by_node;
      List.iter (fun v -> if by_node.(v) = None then all := v :: !all) ly.Analysis.ly_moved;
      !all
    end
  in
  st.unit_names <- units;
  let removed = ref [] and added = ref [] in
  let total = ref (if from_prev then Array.length st.in_order else 0) in
  let drop fr =
    removed := fr.fr_rows :: !removed;
    total := !total - Array.length fr.fr_rows
  in
  (* node [v]'s rows, for the interface it reports: kept when the
     interface is physically the one they were measured for and nothing
     they read moved, else measured afresh *)
  let settle v = function
    | None ->
        Option.iter drop by_node.(v);
        by_node.(v) <- None
    | Some (name, iface) -> (
        let f = g.Fdg.defs.(v) in
        match by_node.(v) with
        | Some fr
          when fr.fr_iface == iface
               && (fr.fr_def == f || same_anchors fr.fr_def f)
               && fr.fr_unit = fst (locate name 1) ->
            (* hold the current definition, not a re-parse's predecessor
               (and its whole body) *)
            fr.fr_def <- f
        | old -> (
            Option.iter drop old;
            by_node.(v) <- None;
            match positions_of_fun ~qual ~locate env.Analysis.prog f iface with
            | ps ->
                let fr_rows = Array.of_list (List.map (make_row ~keys) ps) in
                by_node.(v) <-
                  Some { fr_def = f; fr_iface = iface; fr_unit = fst (locate name 1); fr_rows };
                added := fr_rows :: !added;
                total := !total + Array.length fr_rows
            | exception Cprog.Frontend_error m ->
                Analysis.degrade env name ("measurement failed: " ^ m)))
  in
  if from_prev then begin
    (* the rows of every other node stand: its task, and so its
       interface, was kept, and its definition is physically the one
       measured *)
    List.iter (fun u -> settle u None) g.Fdg.removed;
    List.iter (fun v -> settle v (Analysis.reported_iface env v)) moved
  end
  else
    List.iter
      (fun ((name, _) as x) ->
        match Fdg.node g name with
        | Some v -> settle v (Some x)
        | None -> invalid_arg "Report.measure: not the interfaces of the analysis's last run")
      ifaces;
  (* the rows in report order *)
  let in_order = ref [||] and k = ref 0 in
  let total = !total in
  Analysis.iter_report_order env (fun v ->
      match by_node.(v) with
      | Some { fr_rows; _ } when Array.length fr_rows > 0 ->
          if !k = 0 then in_order := Array.make total fr_rows.(0);
          Array.blit fr_rows 0 !in_order !k (Array.length fr_rows);
          k := !k + Array.length fr_rows
      | _ -> ());
  let in_order = !in_order in
  st.by_node <- by_node;
  st.graph <- g.Fdg.stamp;
  st.in_order <- in_order;
  st.remeasured <- List.length !added;
  (* the verdicts are re-read for every row: one new atom can move any
     of them. When the measured qualifier is an ordered coordinate, the
     inferred level range is reported by name too (never raw masks). *)
  let sp = Solver.space store in
  let qi = lazy (Typequal.Lattice.Space.find sp qual) in
  let ordered =
    match Typequal.Lattice.Space.find_opt sp qual with
    | Some i -> Typequal.Lattice.Space.order sp i <> None
    | None -> false
  in
  let declared = ref 0 and possible = ref 0 and must = ref 0 in
  Array.iteri
    (fun i r ->
      let var = r.r_var in
      r.r_ord <- i;
      let verdict =
        if budget_trip <> None then Either
        else
          match Solver.classify store var (Lazy.force qi) with
          | Solver.Forced_up -> Must_const
          | Solver.Forced_down -> Must_not_const
          | Solver.Free -> Either
      in
      let levels =
        if budget_trip = None && ordered then
          let i = Lazy.force qi in
          Some
            ( Typequal.Lattice.Elt.level_name sp i (Solver.least store var),
              Typequal.Lattice.Elt.level_name sp i (Solver.greatest store var) )
        else None
      in
      let pos, v = r.r_result in
      if levels <> pos.p_levels || verdict <> v then
        r.r_result <-
          ((if levels <> pos.p_levels then { pos with p_levels = levels } else pos), verdict);
      if pos.p_declared then incr declared;
      if verdict <> Must_not_const then incr possible;
      if verdict = Must_const then incr must)
    in_order;
  if keys then begin
    st.index_patched <- from_prev;
    if from_prev then patch_index st ~removed:!removed ~added:!added
    else rebuild_index st
  end;
  (* each function's fate, read again where the edit could have moved
     it, and everywhere in a cold measurement *)
  let read v =
    let name = g.Fdg.names.(v) in
    let o =
      match Hashtbl.find_opt env.Analysis.outcomes name with
      | Some (Analysis.Degraded _ as o) -> o
      | recorded -> (
          match budget_trip with
          | Some r -> Analysis.Degraded ("budget exhausted: " ^ r)
          | None -> ( match recorded with Some o -> o | None -> Analysis.Analyzed))
    in
    if snd outcome_of.(v) <> o || fst outcome_of.(v) != name then outcome_of.(v) <- (name, o)
  in
  if from_prev then List.iter read moved
  else
    for v = 0 to ids - 1 do
      if g.Fdg.rank.(v) >= 0 then read v
    done;
  st.outcome_of <- outcome_of;
  ( {
      positions = Array.fold_right (fun r l -> r.r_result :: l) in_order [];
      declared = !declared;
      possible = !possible;
      must = !must;
      total = Array.length in_order;
      type_errors;
      warnings = env.Analysis.warnings;
      (* one outcome per definition, in link order *)
      outcomes =
        Array.fold_right
          (fun nodes l -> Array.fold_right (fun v l -> outcome_of.(v) :: l) nodes l)
          g.Fdg.unit_nodes [];
    },
    st )

let measure ?locate env ifaces =
  fst (measure_full ?locate ~keys:false env ifaces)

(** Like {!measure}, with the stable keys and their index (see {!rows}):
    pass the returned state back as [prev] to the next measurement of the
    same, re-analyzed store. *)
let measure_indexed ?locate ?units ?prev env ifaces : results * rows =
  measure_full ?locate ?units ?prev env ifaces

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
