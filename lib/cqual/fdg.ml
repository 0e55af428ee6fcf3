(** The function dependence graph (Definition 4) and its strongly
    connected components.

    [V] is the set of defined functions; there is an edge from [f] to [g]
    iff [f]'s body contains an occurrence of the name [g]. The SCCs are the
    sets of mutually recursive functions; traversing them in reverse
    topological order (callees first) is exactly the order in which
    let-style qualifier polymorphism can generalize (Section 4.3). Tarjan's
    algorithm emits SCCs in that order directly.

    Node ids are keyed by name and survive edits: a graph built from an
    earlier one ({!build}'s [prev]) keeps the id of every name still
    defined, gives a new name a fresh id and leaves a removed name's id
    dead. Every name a body mentions is interned as a symbol, and the
    graph keeps, per symbol, the nodes that mention it: the caller index
    through which an edit finds the edges it adds or removes. Adjacency
    and SCC membership are int arrays over the ids; the definition order
    is a separate rank. *)

open Cfront

(** How {!build} came by the SCC list: [prev]'s as it was, [prev]'s with
    the edit's singleton blocks spliced in and out, or Tarjan's
    algorithm over the whole graph. *)
type condensation = Kept | Spliced | Tarjan

(* Arrays over node ids, symbols or SCC indices may be longer than the
   ids, symbols or SCCs they hold: a graph built from another takes its
   arrays over and grows them by doubling. *)
type t = {
  ids : int;  (** node ids assigned so far: [0 .. ids - 1] *)
  live : int;  (** live nodes *)
  prev_ids : int;
      (** [prev]'s [ids]: a live node below it was live in [prev] too *)
  names : string array;  (** node id -> function name (a dead id keeps it) *)
  syms : (string, int) Hashtbl.t;
      (** name -> symbol, for every name defined or mentioned; shared by
          the graphs built from one another, and only ever added to *)
  sym_node : int array;  (** symbol -> its live node id, or -1 *)
  mentioners : int array array;
      (** symbol -> the live nodes whose bodies mention it, in no order:
          the caller index *)
  defs : Cast.fundef array;
      (** node id -> the definition the name resolves to (its last) *)
  ments : int array array;
      (** node id -> the symbols its definition's body mentions, in name
          order *)
  succ : int array array;
      (** node id -> the defined functions its body mentions, self
          excluded, in name order *)
  units : Cast.fundef array array;  (** the program's {!Cprog.defs} *)
  unit_nodes : int array array;  (** per unit, each definition's node id *)
  rank : int array;
      (** node id -> its place in definition order (of each name's first
          definition); -1 when dead *)
  home : int array;
      (** node id -> the unit of its first definition, by its index in
          {!Cprog.defs}: the home unit the report anchors the function's
          positions in *)
  nsccs : int;
  scc_nodes : int array array;
      (** SCC index -> its members' node ids, in reverse topological
          order: every callee's SCC precedes its callers' *)
  scc_of : int array;  (** node id -> SCC index *)
  scc_root : int array;
      (** SCC index -> its block root: the node whose search, started
          from the outer loop of Tarjan's algorithm, emitted it *)
  scc_prev : Bytes.t;
      (** after Tarjan's algorithm: SCC index -> ['\001'] when [prev] had
          the same SCC, member for member *)
  stamp : int;  (** unique per graph *)
  prev_stamp : int;  (** the [?prev] graph's stamp; -1 when built cold *)
  prev_defs : (int, Cast.fundef) Hashtbl.t;
      (** node of [prev] -> [prev]'s definition, where this graph's is
          another value *)
  removed : int list;  (** [prev]'s nodes this graph does not have *)
  touched : int list;
      (** the added nodes, and the nodes of [prev] whose definition is
          another value than [prev]'s or whose first definition moved to
          another place in the unit list *)
  changed : int list;
      (** nodes of [prev] whose definition differs from [prev]'s beyond
          source locations *)
  callees_changed : int list;
      (** nodes of [prev] whose successor set changed *)
  rescanned : int;  (** definitions scanned: the changed and the added *)
  condensation : condensation;
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
   depth fits. Roots are taken in definition order and successors in
   [succ] order, and each SCC lists its members bottom-up from the Tarjan
   stack, which is exactly the order the textbook recursive formulation
   emits: task order is report order, so it must not move. Returns the
   number of SCCs and, in completion order (callees first), each SCC's
   members and block root, in arrays with room to spare. *)
let tarjan (order : int array) (succ : int array array) : int * int array array * int array =
  let n = Array.length succ and live = Array.length order in
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Bytes.make n '\000' in
  let stack = Array.make live 0 and sp = ref 0 in
  let frame = Array.make live 0 and edge = Array.make live 0 and fp = ref 0 in
  let counter = ref 0 in
  let scc_nodes = Array.make live [||] and scc_root = Array.make live 0 and nsccs = ref 0 in
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
  Array.iter
    (fun root ->
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
              scc_nodes.(!nsccs) <- scc;
              scc_root.(!nsccs) <- root;
              incr nsccs
            end;
            if top > 0 then begin
              let u = frame.(top - 1) in
              low.(u) <- min low.(u) low.(v)
            end
          end
        done
      end)
    order;
  (!nsccs, scc_nodes, scc_root)

let stamps = Atomic.make 0

(* a dead id's definition: the removed one is not kept alive *)
let no_def : Cast.fundef =
  {
    f_name = "";
    f_ret = TVoid [];
    f_params = [];
    f_varargs = false;
    f_body = [];
    f_static = false;
    f_line = 0;
    f_name_loc = (0, 0);
    f_param_locs = [];
  }

let empty () =
  {
    ids = 0;
    live = 0;
    prev_ids = 0;
    names = [||];
    syms = Hashtbl.create 1024;
    sym_node = [||];
    mentioners = [||];
    defs = [||];
    ments = [||];
    succ = [||];
    units = [||];
    unit_nodes = [||];
    rank = [||];
    home = [||];
    nsccs = 0;
    scc_nodes = [||];
    scc_of = [||];
    scc_root = [||];
    scc_prev = Bytes.empty;
    stamp = -1;
    prev_stamp = -1;
    prev_defs = Hashtbl.create 1;
    removed = [];
    touched = [];
    changed = [];
    callees_changed = [];
    rescanned = 0;
    condensation = Tarjan;
  }

(* [a] when it has room for [n] entries, else a copy of it with room to
   spare, [x] in the new entries *)
let room a n x =
  let m = Array.length a in
  if n <= m then a
  else begin
    let b = Array.make (max n (2 * m)) x in
    Array.blit a 0 b 0 m;
    b
  end

(** The graph of [prog]. With [prev], the graph of an earlier version of
    the program (a cold build starts from an empty one): a name keeps its
    id, a definition that is physically the one [prev] scanned (an
    unchanged unit's definitions are shared across compiles) or equal to
    it up to source locations keeps its mentions, and edges are resolved
    again only for the definitions scanned and for the mentioners of
    added or removed names. The SCC list is [prev]'s when no edge, node
    or definition order changed; [prev]'s with singleton blocks spliced
    in and out when the splice provably gives what Tarjan's algorithm
    would; else Tarjan's. The result is, by name, the graph a build
    without [prev] returns.

    [prev] is handed over: its arrays become the new graph's, updated in
    place, so [prev] must not be read afterwards. What a caller still
    needs of it, the new graph keeps: which nodes it had ([prev_ids]),
    their definitions where they changed ({!prev_def}) and which SCCs are
    its own ({!scc_kept}). Ids are never renumbered here: a caller that
    wants the dead ids gone builds cold. *)
let build ?prev (prog : Cprog.t) : t =
  let p = match prev with Some p -> p | None -> empty () in
  let stamp = Atomic.fetch_and_add stamps 1 in
  let cap0 = p.ids in
  let intern name =
    match Hashtbl.find_opt p.syms name with
    | Some s -> s
    | None ->
        let s = Hashtbl.length p.syms in
        Hashtbl.add p.syms name s;
        s
  in
  (* --- ids: each unit's definitions mapped to nodes; a name live in
     [prev] keeps its node, any other gets the next id --- *)
  let units = prog.Cprog.defs in
  (* a unit whose definition array is one of [prev]'s keeps its nodes *)
  let shared =
    Array.map
      (fun arr ->
        let rec go j =
          if j = Array.length p.units then None
          else if p.units.(j) == arr then Some p.unit_nodes.(j)
          else go (j + 1)
        in
        go 0)
      units
  in
  let unshared = ref 0 in
  Array.iteri (fun i arr -> if shared.(i) = None then unshared := !unshared + Array.length arr) units;
  (* room for every definition of another unit to take a new id *)
  let names = room p.names (cap0 + !unshared) "" in
  let sym_node = room p.sym_node (Hashtbl.length p.syms + !unshared) (-1) in
  let next = ref cap0 in
  let node_of_name name =
    let s = intern name in
    if sym_node.(s) >= 0 then sym_node.(s)
    else begin
      let v = !next in
      incr next;
      names.(v) <- name;
      sym_node.(s) <- v;
      v
    end
  in
  let unit_nodes =
    Array.mapi
      (fun i (arr : Cast.fundef array) ->
        match shared.(i) with
        | Some nodes -> nodes
        | None -> Array.map (fun (f : Cast.fundef) -> node_of_name f.f_name) arr)
      units
  in
  (* the added nodes are the ids from [cap0] on *)
  let ids = !next in
  let grow a x = room a ids x in
  let defs = grow p.defs no_def and ments = grow p.ments [||] and succ = grow p.succ [||] in
  let rank = grow p.rank (-1) and home = grow p.home (-1) in
  (* node id -> scratch mark, cleared after each use *)
  let flag = Bytes.make ids '\000' in
  for v = cap0 to ids - 1 do
    rank.(v) <- -1
  done;
  (* --- definition order, home units and definitions: one pass, which also
     checks that [prev]'s nodes keep their relative order --- *)
  let prev_defs = Hashtbl.create 8 in
  let touched = ref [] in
  let in_order = ref true and last = ref (-1) and live = ref 0 in
  Array.iteri
    (fun i (arr : Cast.fundef array) ->
      let nodes = unit_nodes.(i) in
      Array.iteri
        (fun j f ->
          let v = nodes.(j) in
          if Bytes.get flag v = '\000' then begin
            Bytes.set flag v '\001';
            if v < cap0 then begin
              let r = rank.(v) in
              if r <= !last then in_order := false;
              last := r;
              if home.(v) <> i then touched := v :: !touched
            end;
            rank.(v) <- !live;
            home.(v) <- i;
            incr live
          end;
          (* the first write that replaces [prev]'s definition saves it *)
          if defs.(v) != f then begin
            if v < cap0 && not (Hashtbl.mem prev_defs v) then Hashtbl.replace prev_defs v defs.(v);
            defs.(v) <- f
          end)
        arr)
    units;
  let removed = ref [] in
  for u = 0 to cap0 - 1 do
    if rank.(u) >= 0 && Bytes.get flag u = '\000' then begin
      removed := u :: !removed;
      rank.(u) <- -1;
      defs.(u) <- no_def
    end
  done;
  let removed = !removed in
  Bytes.fill flag 0 ids '\000';
  Hashtbl.filter_map_inplace
    (fun v d -> if rank.(v) >= 0 && d != defs.(v) then Some d else None)
    prev_defs;
  (* --- the definitions to scan: added, or changed beyond locations --- *)
  let changed =
    Hashtbl.fold
      (fun v d acc ->
        touched := v :: !touched;
        if Cast.equal_fundef_mod_locs d defs.(v) then acc else v :: acc)
      prev_defs []
  in
  for v = cap0 to ids - 1 do
    touched := v :: !touched
  done;
  let touched =
    List.filter
      (fun v ->
        let fresh = Bytes.get flag v = '\000' in
        Bytes.set flag v '\001';
        fresh)
      !touched
  in
  List.iter (fun v -> Bytes.set flag v '\000') touched;
  (* --- the caller index: a removed or rescanned node leaves the entries
     of its old mentions, a rescanned or added one enters those of its
     new mentions --- *)
  let leaving = removed @ changed in
  (* the nodes that enter: the changed ones and the added ones *)
  let entering f =
    List.iter f changed;
    for v = cap0 to ids - 1 do
      f v
    done
  in
  List.iter (fun u -> Bytes.set flag u '\001') leaving;
  let old_ments = List.map (fun u -> ments.(u)) leaving in
  entering (fun v -> ments.(v) <- Array.map intern (mentions defs.(v)));
  List.iter (fun u -> ments.(u) <- [||]) removed;
  let nsyms = Hashtbl.length p.syms in
  let sym_node = room sym_node nsyms (-1) in
  let sym v = Hashtbl.find p.syms names.(v) in
  List.iter (fun u -> sym_node.(sym u) <- -1) removed;
  let mentioners = room p.mentioners nsyms [||] in
  (* per symbol: 0 when untouched, else one more than its entries to
     add, then the next place to fill *)
  let count = Array.make nsyms 0 and dirty = ref [] in
  let note s =
    if count.(s) = 0 then begin
      count.(s) <- 1;
      dirty := s :: !dirty
    end
  in
  List.iter (Array.iter note) old_ments;
  entering (fun v ->
      Array.iter
        (fun s ->
          note s;
          count.(s) <- count.(s) + 1)
        ments.(v));
  List.iter
    (fun s ->
      let old = mentioners.(s) in
      let stay = Array.fold_left (fun n u -> if Bytes.get flag u = '\000' then n + 1 else n) 0 old in
      let a = Array.make (stay + count.(s) - 1) 0 and k = ref 0 in
      Array.iter
        (fun u ->
          if Bytes.get flag u = '\000' then begin
            a.(!k) <- u;
            incr k
          end)
        old;
      mentioners.(s) <- a;
      count.(s) <- stay)
    !dirty;
  entering (fun v ->
      Array.iter
        (fun s ->
          mentioners.(s).(count.(s)) <- v;
          count.(s) <- count.(s) + 1)
        ments.(v));
  List.iter (fun u -> Bytes.set flag u '\000') leaving;
  (* --- edges: resolved again for the scanned definitions and for the
     mentioners of added or removed names --- *)
  let resolve = ref [] in
  let visit v =
    if v < cap0 && Bytes.get flag v = '\000' then begin
      Bytes.set flag v '\001';
      resolve := v :: !resolve
    end
  in
  List.iter visit changed;
  for v = cap0 to ids - 1 do
    Array.iter visit mentioners.(sym v)
  done;
  List.iter (fun u -> Array.iter visit mentioners.(sym u)) removed;
  List.iter (fun u -> succ.(u) <- [||]) removed;
  let edge_changes = ref [] and callees_changed = ref [] in
  let resolve_edges v =
    let out = ref [] in
    let m = ments.(v) in
    for i = Array.length m - 1 downto 0 do
      let w = sym_node.(m.(i)) in
      if w >= 0 && w <> v then out := w :: !out
    done;
    let s = Array.of_list !out and old = succ.(v) in
    succ.(v) <- s;
    if v < cap0 && s <> old then begin
      callees_changed := v :: !callees_changed;
      (* the edges between [prev]'s live nodes that came or went *)
      let differ a b =
        Array.iter
          (fun w ->
            if w < cap0 && rank.(w) >= 0 && not (Array.mem w b) then
              edge_changes := (v, w) :: !edge_changes)
          a
      in
      differ s old;
      differ old s
    end
  in
  List.iter resolve_edges !resolve;
  for v = cap0 to ids - 1 do
    resolve_edges v
  done;
  let callees_changed = !callees_changed in
  (* --- the condensation --- *)
  let structural = ids > cap0 || removed <> [] || callees_changed <> [] in
  (* the rank of the block root of a node's SCC in [prev], or of an
     added node's own, which the splice makes a singleton block *)
  let root_rank v = if v < cap0 then rank.(p.scc_root.(p.scc_of.(v))) else rank.(v) in
  let spliceable () =
    !in_order
    (* a removed node was a singleton block: its search visited only it *)
    && List.for_all
         (fun u ->
           let i = p.scc_of.(u) in
           Array.length p.scc_nodes.(i) = 1
           && p.scc_root.(i) = u
           && (i = 0 || p.scc_root.(i - 1) <> u))
         removed
    (* Tarjan ignores an edge into a block that finished before the
       edge's own block began *)
    && List.for_all (fun (y, w) -> root_rank w < root_rank y) !edge_changes
    (* an added node is reached by no earlier block, and everything it
       reaches finished before its rank *)
    &&
    let rec ok x =
      x = ids
      ||
      let r = rank.(x) in
      Array.for_all (fun y -> y = x || root_rank y > r) mentioners.(sym x)
      && Array.for_all (fun w -> root_rank w < r) succ.(x)
      && ok (x + 1)
    in
    ok cap0
  in
  let scc_of = grow p.scc_of 0 in
  let nsccs, scc_nodes, scc_of, scc_root, scc_prev, condensation =
    if !in_order && not structural then (p.nsccs, p.scc_nodes, scc_of, p.scc_root, p.scc_prev, Kept)
    else if spliceable () then begin
      (* in place: drop the removed singletons, then merge the added
         nodes in from the right, each a singleton block between the
         blocks whose roots rank around it *)
      let n0 = p.nsccs in
      let scc_nodes = p.scc_nodes and scc_root = p.scc_root in
      let w = ref 0 and lo = ref n0 in
      for r = 0 to n0 - 1 do
        if rank.(scc_root.(r)) >= 0 then begin
          scc_nodes.(!w) <- scc_nodes.(r);
          scc_root.(!w) <- scc_root.(r);
          incr w
        end
        else lo := min !lo r
      done;
      let n1 = !w and n2 = !w + ids - cap0 in
      let scc_nodes = room scc_nodes n2 [||] and scc_root = room scc_root n2 0 in
      let r = ref (n1 - 1) and w = ref (n2 - 1) in
      List.iter
        (fun x ->
          while !r >= 0 && rank.(scc_root.(!r)) > rank.(x) do
            scc_nodes.(!w) <- scc_nodes.(!r);
            scc_root.(!w) <- scc_root.(!r);
            decr r;
            decr w
          done;
          scc_nodes.(!w) <- [| x |];
          scc_root.(!w) <- x;
          lo := min !lo !w;
          decr w)
        (List.sort (fun a b -> compare rank.(b) rank.(a)) (List.init (ids - cap0) (( + ) cap0)));
      for k = n2 to n0 - 1 do
        scc_nodes.(k) <- [||]
      done;
      for k = !lo to n2 - 1 do
        Array.iter (fun v -> scc_of.(v) <- k) scc_nodes.(k)
      done;
      (n2, scc_nodes, scc_of, scc_root, p.scc_prev, Spliced)
    end
    else begin
      let order = Array.make !live 0 in
      for v = 0 to ids - 1 do
        if rank.(v) >= 0 then order.(rank.(v)) <- v
      done;
      let n, scc_nodes, scc_root = tarjan order succ in
      let scc_of = Array.make (Array.length names) 0 in
      for i = 0 to n - 1 do
        Array.iter (fun v -> scc_of.(v) <- i) scc_nodes.(i)
      done;
      let scc_prev =
        Bytes.init n (fun i ->
            let nodes = scc_nodes.(i) in
            let u = nodes.(0) in
            if u < cap0 && p.scc_nodes.(p.scc_of.(u)) = nodes then '\001' else '\000')
      in
      (n, scc_nodes, scc_of, scc_root, scc_prev, Tarjan)
    end
  in
  {
    ids;
    live = !live;
    prev_ids = cap0;
    names;
    syms = p.syms;
    sym_node;
    mentioners;
    defs;
    ments;
    succ;
    units;
    unit_nodes;
    rank;
    home;
    nsccs;
    scc_nodes;
    scc_of;
    scc_root;
    scc_prev;
    stamp;
    prev_stamp = p.stamp;
    prev_defs;
    removed;
    touched;
    changed;
    callees_changed;
    rescanned = List.length changed + ids - cap0;
    condensation;
  }

(** The live node named [name]. *)
let node t name =
  match Hashtbl.find_opt t.syms name with
  | Some s when s < Array.length t.sym_node ->
      let v = t.sym_node.(s) in
      if v >= 0 then Some v else None
  | _ -> None

(** Ids of removed functions, which a cold build renumbers away. *)
let dead_ids t = t.ids - t.live

(** [prev]'s definition of the live node [v], which [prev] had. *)
let prev_def t v = Option.value (Hashtbl.find_opt t.prev_defs v) ~default:t.defs.(v)

(** Whether SCC [k] is one of [prev]'s, member for member. *)
let scc_kept t k =
  match t.condensation with
  | Kept -> true
  | Spliced -> t.scc_nodes.(k).(0) < t.prev_ids
  | Tarjan -> Bytes.get t.scc_prev k = '\001'

(** The nodes whose bodies mention node [v], [v] excluded. *)
let callers t v =
  List.filter (fun u -> u <> v) (Array.to_list t.mentioners.(Hashtbl.find t.syms t.names.(v)))

(** The nodes of the definitions each name resolves to, in link order: a
    name defined more than once appears at its last definition. *)
let linked t : int array =
  let out = ref [] in
  for i = Array.length t.units - 1 downto 0 do
    let arr = t.units.(i) and nodes = t.unit_nodes.(i) in
    for j = Array.length arr - 1 downto 0 do
      if t.defs.(nodes.(j)) == arr.(j) then out := nodes.(j) :: !out
    done
  done;
  Array.of_list !out

let condensation_name = function
  | Kept -> "kept"
  | Spliced -> "spliced"
  | Tarjan -> "tarjan"

let scc_count t = t.nsccs

(** The SCCs' member arrays, callees first. *)
let scc_list t = List.init t.nsccs (fun k -> t.scc_nodes.(k))

(** The SCCs by member name, callees first. *)
let sccs t : string list list =
  List.map (fun scc -> Array.to_list (Array.map (fun v -> t.names.(v)) scc)) (scc_list t)

let largest_scc t = List.fold_left (fun m s -> max m (Array.length s)) 0 (scc_list t)

(** Always 0: the graph keeps no wavefront schedule, as the analysis is
    serial. Kept only because gatebench still reads it; a later
    benchmark revision removes it. *)
let wavefront_width (_ : t) = 0
