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
  succ : int array array;
      (** node id -> the defined functions its body mentions, self
          excluded, in name order *)
  scc_nodes : int array array;
      (** SCC index -> its members' node ids, in reverse topological
          order: every callee's SCC precedes its callers' *)
  scc_of : int array;  (** node id -> SCC index *)
}

(** Names a function's body mentions (including in local initializers and
    via function pointers — any occurrence counts, per Definition 4). *)
let mentions (f : Cast.fundef) : string list =
  let acc =
    List.fold_left
      (fun acc s -> Cast.fold_stmt_exprs (fun acc e -> Cast.expr_idents acc e) acc s)
      [] f.f_body
  in
  List.sort_uniq String.compare acc

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

(* [f]'s edges, from its mentions, in name order *)
let edges ids self (f : Cast.fundef) =
  Array.of_list
    (List.filter_map
       (fun g ->
         match Hashtbl.find_opt ids g with
         | Some j when j <> self -> Some j
         | _ -> None)
       (mentions f))

(** The graph of [prog]. *)
let build (prog : Cprog.t) : t =
  let funs = Cprog.functions prog in
  let ids : (string, int) Hashtbl.t = Hashtbl.create 1024 in
  let rev_names = ref [] in
  List.iter
    (fun (f : Cast.fundef) ->
      if not (Hashtbl.mem ids f.f_name) then begin
        Hashtbl.add ids f.f_name (Hashtbl.length ids);
        rev_names := f.f_name :: !rev_names
      end)
    funs;
  let names = Array.of_list (List.rev !rev_names) in
  let n = Array.length names in
  (* a name defined twice takes its last definition's edges *)
  let defs = match funs with [] -> [||] | f :: _ -> Array.make n f in
  List.iter (fun (f : Cast.fundef) -> defs.(Hashtbl.find ids f.f_name) <- f) funs;
  let succ = Array.mapi (fun v f -> edges ids v f) defs in
  let scc_nodes = Array.of_list (tarjan succ) in
  let scc_of = Array.make n 0 in
  Array.iteri (fun i scc -> Array.iter (fun v -> scc_of.(v) <- i) scc) scc_nodes;
  {
    names;
    ids;
    defs;
    succ;
    scc_nodes;
    scc_of;
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

(* Per-SCC dependency structure over the indices of [t.sccs], for the
   wavefront scheduler. An edge [f -> g] means [f] mentions [g], so [f]'s
   SCC depends on (must be analyzed after) [g]'s. [in_degree.(i)] counts
   the distinct SCCs that SCC [i] depends on; [dependents.(j)] lists the
   SCCs depending on [j] — the candidates released when [j] completes. *)
let scc_deps t : int array * int list array =
  let n = Array.length t.scc_nodes in
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
              let j = t.scc_of.(w) in
              if j <> i && stamp.(j) <> i then begin
                stamp.(j) <- i;
                in_degree.(i) <- in_degree.(i) + 1;
                dependents.(j) <- i :: dependents.(j)
              end)
            t.succ.(v))
        scc)
    t.scc_nodes;
  (in_degree, dependents)

(* Maximum number of SCCs simultaneously ready under level-synchronous
   (Kahn) scheduling: an upper bound on useful analysis parallelism, and
   the figure [--stats] reports as the wavefront width. *)
let wavefront_width t =
  let in_degree, dependents = scc_deps t in
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
