(** Type qualifiers (Definitions 1 and 2 of the paper).

    A qualifier names one coordinate of the qualifier lattice. The classic
    form is a {e two-point} qualifier with a polarity: [q] is {e positive}
    when [tau <= q tau] for every standard type [tau] (e.g. [const]:
    adding it moves {e up} the subtype order), and {e negative} when
    [q tau <= tau] (e.g. [nonzero]: removing it moves up).

    The general form — the paper's "user-defined partial order of
    qualifiers" — attaches an arbitrary finite lattice of named {e levels}
    to the coordinate ({!Order}), e.g.
    [untainted <= maybe_tainted <= tainted]. Two-point qualifiers are the
    special case of a 2-level chain whose levels are "absent"/"present"
    (polarity decides which is bottom). *)

type polarity =
  | Positive  (** [tau <= q tau]; absence is the bottom of the 2-point lattice *)
  | Negative  (** [q tau <= tau]; presence is the bottom of the 2-point lattice *)

(* ------------------------------------------------------------------ *)
(* Finite lattices of named levels                                     *)
(* ------------------------------------------------------------------ *)

(** A validated finite {e distributive} lattice of named levels, with its
    Birkhoff (join-irreducible upset) bit encoding precomputed.

    Distributivity is required because the encoding represents an element
    as the set of join-irreducibles below it and implements join as
    bitwise OR — exact precisely for distributive lattices (Birkhoff's
    representation theorem). Every lattice a qualifier system plausibly
    wants (chains, powersets, products of chains) is distributive; the
    two smallest non-distributive lattices (M3, N5) are rejected with a
    diagnostic naming the offending triple. *)
module Order = struct
  type t = {
    o_levels : string array;  (** level names; index = level id *)
    o_leq : bool array;  (** [n*n] closed relation, row-major: [a*n + b] *)
    o_bottom : int;
    o_top : int;
    o_join : int array;  (** [n*n] lub table *)
    o_meet : int array;  (** [n*n] glb table *)
    o_irr : int array;  (** join-irreducible level ids, ascending *)
    o_encode : int array;  (** level id -> bitmask over positions of o_irr *)
  }

  let size o = Array.length o.o_levels
  let bits o = Array.length o.o_irr
  let level_names o = Array.copy o.o_levels
  let level_name o l = o.o_levels.(l)
  let bottom o = o.o_bottom
  let top o = o.o_top
  let leq o a b = o.o_leq.((a * size o) + b)
  let join o a b = o.o_join.((a * size o) + b)
  let meet o a b = o.o_meet.((a * size o) + b)
  let irreducibles o = Array.copy o.o_irr
  let encode o l = o.o_encode.(l)

  let find_level o name =
    let n = size o in
    let rec go i =
      if i >= n then None
      else if String.equal o.o_levels.(i) name then Some i
      else go (i + 1)
    in
    go 0

  (* Decode a bitmask (over the irreducible positions) back to a level: the
     least level whose encoding contains every set bit. For masks produced
     by the lattice operations this is exact; arbitrary masks round up. *)
  let decode o m =
    let l = ref o.o_bottom in
    Array.iteri
      (fun k j -> if m land (1 lsl k) <> 0 then l := join o !l j)
      o.o_irr;
    !l

  let ( let* ) = Result.bind

  (** Build and validate a lattice from level names and a list of
      [a <= b] pairs. Validation: distinct nonempty names, known names in
      the order, antisymmetry after reflexive-transitive closure
      (i.e. acyclicity), existence and uniqueness of pairwise lub/glb
      (lattice-ness), and distributivity. *)
  let of_levels ~levels ~order : (t, string) result =
    let lv = Array.of_list levels in
    let n = Array.length lv in
    let* () = if n = 0 then Error "a qualifier needs at least one level" else Ok () in
    let* () =
      Array.fold_left
        (fun acc name ->
          let* () = acc in
          if name = "" then Error "empty level name"
          else if Array.fold_left (fun k x -> if x = name then k + 1 else k) 0 lv > 1
          then Error (Printf.sprintf "duplicate level %S" name)
          else Ok ())
        (Ok ()) lv
    in
    let idx name =
      let rec go i =
        if i >= n then Error (Printf.sprintf "unknown level %S in order declaration" name)
        else if lv.(i) = name then Ok i
        else go (i + 1)
      in
      go 0
    in
    let leq = Array.make (n * n) false in
    for i = 0 to n - 1 do
      leq.((i * n) + i) <- true
    done;
    let* () =
      List.fold_left
        (fun acc (a, b) ->
          let* () = acc in
          let* ia = idx a in
          let* ib = idx b in
          leq.((ia * n) + ib) <- true;
          Ok ())
        (Ok ()) order
    in
    (* reflexive-transitive closure (Warshall) *)
    for k = 0 to n - 1 do
      for i = 0 to n - 1 do
        if leq.((i * n) + k) then
          for j = 0 to n - 1 do
            if leq.((k * n) + j) then leq.((i * n) + j) <- true
          done
      done
    done;
    (* antisymmetry = acyclicity of the declared order *)
    let cycle = ref None in
    for a = 0 to n - 1 do
      for b = a + 1 to n - 1 do
        if leq.((a * n) + b) && leq.((b * n) + a) then
          if !cycle = None then cycle := Some (a, b)
      done
    done;
    let* () =
      match !cycle with
      | Some (a, b) ->
          Error
            (Printf.sprintf "levels %S and %S are in a cycle (%s <= %s <= %s)"
               lv.(a) lv.(b) lv.(a) lv.(b) lv.(a))
      | None -> Ok ()
    in
    (* pairwise lub/glb: existence and uniqueness (lattice-ness) *)
    let join = Array.make (n * n) 0 and meet = Array.make (n * n) 0 in
    let bound ~dir a b =
      (* candidates above (dir = `Up) or below both a and b *)
      let le x y = if dir = `Up then leq.((x * n) + y) else leq.((y * n) + x) in
      let cands = List.filter (fun u -> le a u && le b u) (List.init n Fun.id) in
      match cands with
      | [] ->
          Error
            (Printf.sprintf "levels %S and %S have no common %s bound" lv.(a)
               lv.(b)
               (if dir = `Up then "upper" else "lower"))
      | _ -> (
          match List.find_opt (fun u -> List.for_all (le u) cands) cands with
          | Some u -> Ok u
          | None ->
              Error
                (Printf.sprintf
                   "not a lattice: levels %S and %S have no %s (candidates: %s)"
                   lv.(a) lv.(b)
                   (if dir = `Up then "least upper bound"
                    else "greatest lower bound")
                   (String.concat ", "
                      (List.map (fun u -> lv.(u)) cands))))
    in
    let* () =
      let acc = ref (Ok ()) in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          match !acc with
          | Error _ -> ()
          | Ok () -> (
              match bound ~dir:`Up a b with
              | Error e -> acc := Error e
              | Ok u -> (
                  join.((a * n) + b) <- u;
                  match bound ~dir:`Down a b with
                  | Error e -> acc := Error e
                  | Ok l -> meet.((a * n) + b) <- l))
        done
      done;
      !acc
    in
    let bottom = ref 0 and top = ref 0 in
    for i = 1 to n - 1 do
      bottom := meet.((!bottom * n) + i);
      top := join.((!top * n) + i)
    done;
    (* distributivity: a /\ (b \/ c) = (a /\ b) \/ (a /\ c) *)
    let distrib = ref None in
    for a = 0 to n - 1 do
      for b = 0 to n - 1 do
        for c = 0 to n - 1 do
          let lhs = meet.((a * n) + join.((b * n) + c)) in
          let rhs = join.((meet.((a * n) + b) * n) + meet.((a * n) + c)) in
          if lhs <> rhs && !distrib = None then distrib := Some (a, b, c)
        done
      done
    done;
    let* () =
      match !distrib with
      | Some (a, b, c) ->
          Error
            (Printf.sprintf
               "not distributive: %s /\\ (%s \\/ %s) differs from (%s /\\ %s) \
                \\/ (%s /\\ %s); the bit encoding requires a distributive \
                lattice"
               lv.(a) lv.(b) lv.(c) lv.(a) lv.(b) lv.(a) lv.(c))
      | None -> Ok ()
    in
    (* join-irreducibles: l is irreducible iff l > join of everything
       strictly below it (the empty join being bottom) *)
    let irr =
      List.filter
        (fun l ->
          let below = ref !bottom in
          for m = 0 to n - 1 do
            if m <> l && leq.((m * n) + l) then below := join.((!below * n) + m)
          done;
          !below <> l)
        (List.init n Fun.id)
      |> Array.of_list
    in
    let encode =
      Array.init n (fun l ->
          let m = ref 0 in
          Array.iteri
            (fun k j -> if leq.((j * n) + l) then m := !m lor (1 lsl k))
            irr;
          !m)
    in
    Ok
      {
        o_levels = lv;
        o_leq = leq;
        o_bottom = !bottom;
        o_top = !top;
        o_join = join;
        o_meet = meet;
        o_irr = irr;
        o_encode = encode;
      }

  (** A total order [l0 <= l1 <= ...] — the most common custom lattice. *)
  let chain levels =
    let rec pairs = function
      | a :: (b :: _ as rest) -> (a, b) :: pairs rest
      | _ -> []
    in
    of_levels ~levels ~order:(pairs levels)

  let chain_exn levels =
    match chain levels with
    | Ok o -> o
    | Error e -> invalid_arg ("Qualifier.Order.chain: " ^ e)

  (* Hasse covers, for dumps: a < b with nothing strictly between. *)
  let covers o =
    let n = size o in
    let lt a b = a <> b && leq o a b in
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            if
              lt a b
              && not
                   (List.exists
                      (fun c -> lt a c && lt c b)
                      (List.init n Fun.id))
            then Some (a, b)
            else None)
          (List.init n Fun.id))
      (List.init n Fun.id)

  let pp ppf o =
    match covers o with
    | [] -> Fmt.pf ppf "%s" o.o_levels.(o.o_bottom)
    | cs ->
        Fmt.(list ~sep:(any ", ") (fun ppf (a, b) ->
            Fmt.pf ppf "%s < %s" o.o_levels.(a) o.o_levels.(b)))
          ppf cs
end

type t = {
  name : string;      (** Source-level name, e.g. ["const"]. Unique in a space. *)
  polarity : polarity;
  order : Order.t option;
      (** [None]: the classic two-point lattice given by [polarity].
          [Some o]: a user-defined lattice of named levels. *)
}

let make ?(polarity = Positive) name =
  if name = "" then invalid_arg "Qualifier.make: empty name";
  { name; polarity; order = None }

let positive name = make ~polarity:Positive name
let negative name = make ~polarity:Negative name

let ordered name order =
  if name = "" then invalid_arg "Qualifier.ordered: empty name";
  { name; polarity = Positive; order = Some order }

let name q = q.name
let polarity q = q.polarity
let order q = q.order
let is_positive q = q.polarity = Positive
let is_negative q = q.polarity = Negative

let equal a b = String.equal a.name b.name && a.polarity = b.polarity
let compare a b =
  match String.compare a.name b.name with
  | 0 -> compare a.polarity b.polarity
  | c -> c

let pp ppf q = Fmt.string ppf q.name

let pp_full ppf q =
  match q.order with
  | Some o -> Fmt.pf ppf "%s[%d]" q.name (Order.size o)
  | None ->
      Fmt.pf ppf "%s%s"
        (match q.polarity with Positive -> "+" | Negative -> "-")
        q.name

(* ------------------------------------------------------------------ *)
(* CQual-style lattice configuration files                             *)
(* ------------------------------------------------------------------ *)

(** Parser for lattice config files (the format CQual shipped, modernized;
    see the README for the grammar):

    {v
    # three-level taint
    qualifier taint {
      levels untainted maybe_tainted tainted
      order untainted < maybe_tainted < tainted
    }
    qualifier const            # classic positive two-point
    qualifier nonzero negative
    v} *)
module Config = struct
  let ( let* ) = Result.bind

  type line = { lno : int; words : string list }

  let lines_of src =
    String.split_on_char '\n' src
    |> List.mapi (fun i l ->
           let l =
             match String.index_opt l '#' with
             | Some j -> String.sub l 0 j
             | None -> l
           in
           {
             lno = i + 1;
             words =
               String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) l)
               |> List.filter (fun w -> w <> "");
           })
    |> List.filter (fun l -> l.words <> [])

  let err lno fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" lno m)) fmt

  (* [order a < b < c] declares a <= b and b <= c. *)
  let parse_order_chain lno words =
    let rec go acc = function
      | a :: "<" :: (b :: _ as rest) -> go ((a, b) :: acc) rest
      | [ _ ] -> Ok (List.rev acc)
      | _ -> err lno "malformed order (want: order a < b [< c ...])"
    in
    match words with
    | [] -> err lno "empty order declaration"
    | ws -> go [] ws

  let parse_block name lno body =
    let* levels, order =
      List.fold_left
        (fun acc l ->
          let* lvs, orders = acc in
          match l.words with
          | "levels" :: ls when ls <> [] -> Ok (lvs @ ls, orders)
          | "levels" :: _ -> err l.lno "levels wants at least one name"
          | "order" :: ws ->
              let* pairs = parse_order_chain l.lno ws in
              Ok (lvs, orders @ pairs)
          | w :: _ -> err l.lno "unknown directive %S (want levels or order)" w
          | [] -> acc)
        (Ok ([], [])) body
    in
    (* levels may also be introduced implicitly by order lines *)
    let levels =
      List.fold_left
        (fun acc (a, b) ->
          let add x acc = if List.mem x acc then acc else acc @ [ x ] in
          add b (add a acc))
        levels order
    in
    match Order.of_levels ~levels ~order with
    | Ok o -> Ok (ordered name o)
    | Error e -> err lno "qualifier %S: %s" name e

  let parse src : (t list, string) result =
    let lines = lines_of src in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | { lno = _; words = [ "qualifier"; name ] } :: rest ->
          go (positive name :: acc) rest
      | { lno = _; words = [ "qualifier"; name; "positive" ] } :: rest ->
          go (positive name :: acc) rest
      | { lno = _; words = [ "qualifier"; name; "negative" ] } :: rest ->
          go (negative name :: acc) rest
      | { lno; words = [ "qualifier"; name; "{" ] } :: rest ->
          let rec split body = function
            | [] -> err lno "qualifier %S: missing closing }" name
            | { words = [ "}" ]; _ } :: rest -> Ok (List.rev body, rest)
            | l :: rest -> split (l :: body) rest
          in
          let* body, rest = split [] rest in
          let* q = parse_block name lno body in
          go (q :: acc) rest
      | { lno; words = "qualifier" :: _ } :: _ ->
          err lno
            "malformed qualifier (want: qualifier NAME [positive|negative] \
             or qualifier NAME { ... })"
      | { lno; words = w :: _ } :: _ -> err lno "unknown directive %S" w
      | { words = []; _ } :: rest -> go acc rest
    in
    let* quals = go [] lines in
    if quals = [] then Error "no qualifiers declared" else Ok quals
end

(* The qualifiers used throughout the paper and this reproduction. *)

(** ANSI C [const]: an l-value that may be initialized but not updated
    (Section 2.4, Section 4). Positive: [tau <= const tau]. *)
let const = positive "const"

(** Binding-time [dynamic] (partial evaluation, Section 1): a value possibly
    unknown until run time. Positive; [static] is its absence. *)
let dynamic = positive "dynamic"

(** [nonzero] (Figure 2): an integer known not to be zero. Negative:
    [nonzero tau <= tau]. *)
let nonzero = negative "nonzero"

(** lclint-style [nonnull] (Section 1): a pointer that is not null.
    Negative: the non-null pointers are a subset of all pointers. *)
let nonnull = negative "nonnull"

(** [sorted] (Section 2.3): a list known to be sorted. Negative. *)
let sorted = negative "sorted"

(** Security [tainted] (cf. the information-flow systems of Section 5):
    data influenced by an untrusted source. Positive: untainted data can be
    used where tainted data is expected. *)
let tainted = positive "tainted"
