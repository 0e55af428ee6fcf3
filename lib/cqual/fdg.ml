(** The function dependence graph (Definition 4) and its strongly
    connected components.

    [V] is the set of defined functions; there is an edge from [f] to [g]
    iff [f]'s body contains an occurrence of the name [g]. The SCCs are the
    sets of mutually recursive functions; traversing them in reverse
    topological order (callees first) is exactly the order in which
    let-style qualifier polymorphism can generalize (Section 4.3). Tarjan's
    algorithm emits SCCs in that order directly.

    Names are interned once: node [i] is the [i]-th distinct defined name
    in definition order, and adjacency, SCC membership and the wavefront
    structure are int arrays over those ids. *)

open Cfront

type t = {
  names : string array;  (** node id -> function name *)
  ids : (string, int) Hashtbl.t;  (** function name -> node id *)
  defs : Cast.fundef array;
      (** node id -> the definition the name resolves to (its last) *)
  mentions : string array array;
      (** node id -> every name its definition's body mentions, sorted *)
  succ : int array array;
      (** node id -> the defined functions its body mentions, self
          excluded, in name order *)
  scc_nodes : int array array;
      (** SCC index -> its members' node ids, in reverse topological
          order: every callee's SCC precedes its callers' *)
  scc_of : int array;  (** node id -> SCC index *)
  width : int;  (** see {!wavefront_width} *)
  prev_id : int array;
      (** node id -> the node of the same name in the graph this one was
          built from ([?prev] of {!build}); -1 when new or built cold *)
  same : Bytes.t;
      (** node id -> ['\001'] when its definition equals its [prev_id]
          node's up to source locations *)
  stamp : int;  (** unique per graph *)
  prev_stamp : int;  (** the [?prev] graph's stamp; -1 when built cold *)
  rescanned : int;  (** definitions whose body {!build} scanned *)
  condensation_reused : bool;
      (** the SCC list came from [?prev]: every successor array was equal *)
}

(** Names a function's body mentions (including in local initializers and
    via function pointers — any occurrence counts, per Definition 4). *)
let mentions (f : Cast.fundef) : string array =
  let acc =
    List.fold_left
      (fun acc s -> Cast.fold_stmt_exprs (fun acc e -> Cast.expr_idents acc e) acc s)
      [] f.f_body
  in
  Array.of_list (List.sort_uniq String.compare acc)

(* Tarjan's algorithm with an explicit call stack, so a call chain of any
   depth fits. Successors are visited in [succ] order and roots in id
   order, and each SCC lists its members bottom-up from the Tarjan stack,
   which is exactly the order the textbook recursive formulation emits:
   task order is report order, so it must not move. *)
let tarjan (succ : int array array) : int array list =
  let n = Array.length succ in
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Bytes.make n '\000' in
  let stack = Array.make n 0 and sp = ref 0 in
  let frame = Array.make n 0 and edge = Array.make n 0 and fp = ref 0 in
  let counter = ref 0 in
  let sccs = ref [] in
  let enter v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack.(!sp) <- v;
    incr sp;
    Bytes.set on_stack v '\001';
    frame.(!fp) <- v;
    edge.(!fp) <- 0;
    incr fp
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      enter root;
      while !fp > 0 do
        let top = !fp - 1 in
        let v = frame.(top) in
        let i = edge.(top) in
        if i < Array.length succ.(v) then begin
          edge.(top) <- i + 1;
          let w = succ.(v).(i) in
          if index.(w) < 0 then enter w
          else if Bytes.get on_stack w = '\001' then
            low.(v) <- min low.(v) index.(w)
        end
        else begin
          fp := top;
          if low.(v) = index.(v) then begin
            let start = ref (!sp - 1) in
            while stack.(!start) <> v do
              decr start
            done;
            let scc = Array.sub stack !start (!sp - !start) in
            Array.iter (fun w -> Bytes.set on_stack w '\000') scc;
            sp := !start;
            sccs := scc :: !sccs
          end;
          if top > 0 then begin
            let u = frame.(top - 1) in
            low.(u) <- min low.(u) low.(v)
          end
        end
      done
    end
  done;
  (* completion order is callees first *)
  List.rev !sccs

(* Per-SCC dependency structure over the indices of [t.sccs], from which
   the wavefront width is computed. An edge [f -> g] means [f] mentions
   [g], so [f]'s SCC depends on (must be analyzed after) [g]'s.
   [in_degree.(i)] counts the distinct SCCs that SCC [i] depends on;
   [dependents.(j)] lists the SCCs depending on [j] — the candidates
   released when [j] completes. *)
let deps_of succ scc_nodes scc_of : int array * int list array =
  let n = Array.length scc_nodes in
  let in_degree = Array.make n 0 in
  let dependents = Array.make n [] in
  (* SCC [i]'s edges are scanned in one stretch, so a stamp per target SCC
     dedups its (i, j) pairs *)
  let stamp = Array.make n (-1) in
  Array.iteri
    (fun i scc ->
      Array.iter
        (fun v ->
          Array.iter
            (fun w ->
              let j = scc_of.(w) in
              if j <> i && stamp.(j) <> i then begin
                stamp.(j) <- i;
                in_degree.(i) <- in_degree.(i) + 1;
                dependents.(j) <- i :: dependents.(j)
              end)
            succ.(v))
        scc)
    scc_nodes;
  (in_degree, dependents)

(* Maximum number of SCCs simultaneously ready under level-synchronous
   (Kahn) scheduling: an upper bound on useful analysis parallelism, and
   the figure [--stats] reports as the wavefront width. *)
let width_of succ scc_nodes scc_of =
  let in_degree, dependents = deps_of succ scc_nodes scc_of in
  let indeg = in_degree in
  let frontier = ref [] in
  Array.iteri (fun i d -> if d = 0 then frontier := i :: !frontier) indeg;
  let width = ref 0 in
  while !frontier <> [] do
    width := max !width (List.length !frontier);
    let next = ref [] in
    List.iter
      (fun i ->
        List.iter
          (fun j ->
            indeg.(j) <- indeg.(j) - 1;
            if indeg.(j) = 0 then next := j :: !next)
          dependents.(i))
      !frontier;
    frontier := !next
  done;
  !width

(* the edges of a node with these mentions, in name order *)
let edges ids self (mentions : string array) =
  let out = ref [] in
  for i = Array.length mentions - 1 downto 0 do
    match Hashtbl.find_opt ids mentions.(i) with
    | Some j when j <> self -> out := j :: !out
    | _ -> ()
  done;
  Array.of_list !out

(* [funs]'s names and definitions when they are [p]'s names in [p]'s
   order (the definitions may differ): the id table is then [p]'s *)
let same_names p (funs : Cast.fundef list) =
  let n = Array.length p.names in
  let defs = match funs with [] -> [||] | f :: _ -> Array.make n f in
  let rec go k = function
    | [] -> k = n
    | (f : Cast.fundef) :: rest ->
        if k < n && String.equal p.names.(k) f.f_name then begin
          defs.(k) <- f;
          go (k + 1) rest
        end
        else (
          match Hashtbl.find_opt p.ids f.f_name with
          | Some j when j < k ->
              defs.(j) <- f;
              go k rest
          | _ -> false)
  in
  if go 0 funs then Some defs else None

let stamps = Atomic.make 0

(** The graph of [prog]. With [prev], the graph of an earlier version of
    the program: a definition that is physically the one [prev] scanned
    (an unchanged unit's AST is shared across compiles) or equal to it up
    to source locations keeps its mentions, and its edges too when the
    names are [prev]'s; only the other definitions are scanned. When the
    names are [prev]'s and every successor array comes out equal, the SCC
    list and the wavefront width are [prev]'s too. The result is the graph a build
    without [prev] returns. *)
let build ?prev (prog : Cprog.t) : t =
  let funs = Cprog.functions prog in
  let kept_ids =
    match prev with Some p -> Option.map (fun d -> (p, d)) (same_names p funs) | None -> None
  in
  let names, ids, defs =
    match kept_ids with
    | Some (p, defs) -> (p.names, p.ids, defs)
    | None ->
        let ids : (string, int) Hashtbl.t =
          Hashtbl.create (match prev with Some p -> 2 * Array.length p.names | None -> 1024)
        in
        let rev_names = ref [] in
        List.iter
          (fun (f : Cast.fundef) ->
            if not (Hashtbl.mem ids f.f_name) then begin
              Hashtbl.add ids f.f_name (Hashtbl.length ids);
              rev_names := f.f_name :: !rev_names
            end)
          funs;
        let names = Array.of_list (List.rev !rev_names) in
        (* a name defined twice takes its last definition's edges *)
        let defs =
          match funs with [] -> [||] | f :: _ -> Array.make (Array.length names) f
        in
        List.iter (fun (f : Cast.fundef) -> defs.(Hashtbl.find ids f.f_name) <- f) funs;
        (names, ids, defs)
  in
  let n = Array.length names in
  let prev_id =
    match (prev, kept_ids) with
    | None, _ -> Array.make n (-1)
    | Some _, Some _ -> Array.init n Fun.id
    | Some p, None ->
        Array.map (fun g -> try Hashtbl.find p.ids g with Not_found -> -1) names
  in
  let same = Bytes.make n '\000' in
  let rescanned = ref 0 in
  let ments = Array.make n [||] in
  let succ =
    Array.mapi
      (fun v (f : Cast.fundef) ->
        let u = prev_id.(v) in
        match prev with
        | Some p when u >= 0 && Cast.equal_fundef_mod_locs p.defs.(u) f ->
            Bytes.set same v '\001';
            let m = p.mentions.(u) in
            ments.(v) <- m;
            if kept_ids <> None then p.succ.(u) else edges ids v m
        | _ ->
            incr rescanned;
            let m = mentions f in
            ments.(v) <- m;
            edges ids v m)
      defs
  in
  let reuse =
    match kept_ids with
    | Some (p, _) when Array.for_all2 ( = ) p.succ succ -> Some p
    | _ -> None
  in
  let scc_nodes, scc_of, width =
    match reuse with
    | Some p -> (p.scc_nodes, p.scc_of, p.width)
    | None ->
        let scc_nodes = Array.of_list (tarjan succ) in
        let scc_of = Array.make n 0 in
        Array.iteri (fun i scc -> Array.iter (fun v -> scc_of.(v) <- i) scc) scc_nodes;
        (scc_nodes, scc_of, width_of succ scc_nodes scc_of)
  in
  {
    names;
    ids;
    defs;
    mentions = ments;
    succ;
    scc_nodes;
    scc_of;
    width;
    prev_id;
    same;
    stamp = Atomic.fetch_and_add stamps 1;
    prev_stamp = (match prev with Some p -> p.stamp | None -> -1);
    rescanned = !rescanned;
    condensation_reused = reuse <> None;
  }

(** The SCCs by member name, callees first. *)
let sccs t : string list list =
  Array.to_list
    (Array.map
       (fun scc -> Array.to_list (Array.map (fun v -> t.names.(v)) scc))
       t.scc_nodes)

let scc_count t = Array.length t.scc_nodes

let largest_scc t =
  Array.fold_left (fun m s -> max m (Array.length s)) 0 t.scc_nodes

(** The reversed adjacency: node id -> the nodes whose bodies mention it. *)
let callers t : int array array =
  let n = Array.length t.succ in
  let deg = Array.make n 0 in
  Array.iter (Array.iter (fun w -> deg.(w) <- deg.(w) + 1)) t.succ;
  let pred = Array.map (fun d -> Array.make d 0) deg in
  Array.iteri
    (fun v succ ->
      Array.iter
        (fun w ->
          deg.(w) <- deg.(w) - 1;
          pred.(w).(deg.(w)) <- v)
        succ)
    t.succ;
  pred

let scc_deps t = deps_of t.succ t.scc_nodes t.scc_of

(** {!width_of} the graph, computed once per condensation. *)
let wavefront_width t = t.width
