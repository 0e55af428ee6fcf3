(** The qualifier lattice (Definition 2 of the paper), generalized to
    arbitrary finite (distributive) lattices per coordinate.

    The lattice [L] is the product [Lq1 * ... * Lqn] over a fixed,
    user-chosen set of qualifiers — a {e space}. Each coordinate is either
    the classic two-point lattice of a polarized qualifier or a
    user-defined lattice of named levels ({!Qualifier.Order}).

    Elements are machine ints under the {e upset (Birkhoff) encoding}:
    each coordinate owns a contiguous range of bits, one per
    join-irreducible level of its lattice, and an element stores, per
    coordinate, the set of join-irreducibles below its level. This makes
    the product order bitwise subset, meet bitwise AND and join bitwise
    OR — single machine operations regardless of the lattices involved —
    with bottom = 0 and top = all range bits set.

    Two-point qualifiers are the 1-bit special case. For a {e positive}
    qualifier the single irreducible is "present", so bit set =
    syntactically present, exactly the historical representation. For a
    {e negative} qualifier the irreducible is "absent" (presence is the
    coordinate's bottom), so the bit sense is inverted; the presence
    accessors ({!Elt.has}/[set]/[clear]) are polarity-aware so callers
    still speak in terms of syntactic presence. *)

exception Unknown_qualifier of string

type space_error = { code : string; message : string }
(** structured construction diagnostic; [code] is stable (L0xx) *)

exception Space_error of space_error

let space_error code fmt =
  Fmt.kstr (fun message -> raise (Space_error { code; message })) fmt

(** A qualifier space: the (ordered) universe of qualifiers an analysis
    uses. Spaces are small (total encoding width at most
    {!Space.max_bits}) and fixed for the lifetime of an analysis. *)
module Space = struct
  type coord = {
    c_qual : Qualifier.t;
    c_order : Qualifier.Order.t option;  (* None = classic two-point *)
    c_shift : int;  (* first bit of this coordinate's range *)
    c_width : int;  (* number of join-irreducibles (1 for classic) *)
    c_mask : int;  (* the whole contiguous bit range *)
  }

  type t = {
    coords : coord array;
    index : (string, int) Hashtbl.t;  (* qualifier name -> coordinate *)
    level_index : (string, int * int) Hashtbl.t;
        (* level name -> (coordinate, level id), for annotation resolution *)
    full : int;  (* every coordinate's range: the encoding of top *)
  }

  (* An OCaml int has 63 bits; 62 leaves the masks non-negative, so the
     historical [1 lsl size] idiom can never silently overflow. *)
  let max_bits = 62

  (* Historical alias (spaces used to be limited by qualifier count, which
     for all-two-point spaces equals the bit width). *)
  let max_size = max_bits

  let create quals =
    let quals = Array.of_list quals in
    let index = Hashtbl.create 16 in
    let level_index = Hashtbl.create 16 in
    (* validate names and the total width before computing any mask *)
    let total =
      Array.fold_left
        (fun acc q ->
          let name = Qualifier.name q in
          if Hashtbl.mem index name || Hashtbl.mem level_index name then
            space_error "L001" "Lattice.Space.create: duplicate name %S" name;
          Hashtbl.add index name (Hashtbl.length index);
          (match Qualifier.order q with
          | None -> ()
          | Some o ->
              Array.iteri
                (fun l ln ->
                  if Hashtbl.mem index ln || Hashtbl.mem level_index ln then
                    space_error "L001"
                      "Lattice.Space.create: level %S of qualifier %S \
                       duplicates another qualifier or level name"
                      ln name;
                  Hashtbl.add level_index ln (Hashtbl.find index name, l))
                (Qualifier.Order.level_names o));
          acc + (match Qualifier.order q with
                | None -> 1
                | Some o -> Qualifier.Order.bits o))
        0 quals
    in
    if total > max_bits then
      space_error "L002"
        "Lattice.Space.create: total bit width %d exceeds %d (the machine-int \
         fast path); use fewer qualifiers or lattices with fewer \
         join-irreducible levels"
        total max_bits;
    let shift = ref 0 in
    let coords =
      Array.map
        (fun q ->
          let o = Qualifier.order q in
          let width =
            match o with None -> 1 | Some o -> Qualifier.Order.bits o
          in
          let c =
            {
              c_qual = q;
              c_order = o;
              c_shift = !shift;
              c_width = width;
              c_mask = ((1 lsl width) - 1) lsl !shift;
            }
          in
          shift := !shift + width;
          c)
        quals
    in
    { coords; index; level_index; full = (if total = 0 then 0 else ((1 lsl total) - 1)) }

  let size sp = Array.length sp.coords
  let qual sp i = sp.coords.(i).c_qual
  let quals sp = Array.to_list (Array.map (fun c -> c.c_qual) sp.coords)

  let find_opt sp name = Hashtbl.find_opt sp.index name

  let find sp name =
    match find_opt sp name with
    | Some i -> i
    | None -> raise (Unknown_qualifier name)

  let mem sp name = Hashtbl.mem sp.index name

  let order sp i = sp.coords.(i).c_order
  let width sp i = sp.coords.(i).c_width
  let shift sp i = sp.coords.(i).c_shift
  let total_bits sp = Array.fold_left (fun a c -> a + c.c_width) 0 sp.coords

  let resolve sp name =
    match Hashtbl.find_opt sp.index name with
    | Some i -> Some (`Qual i)
    | None ->
        Option.map
          (fun (i, l) -> `Level (i, l))
          (Hashtbl.find_opt sp.level_index name)

  (* Debug dump of the active space: qualifiers, levels, order, bit
     layout (the --dump-lattice output). *)
  let pp_dump ppf sp =
    Fmt.pf ppf "qualifier space: %d coordinate%s, %d bit%s (max %d)@."
      (size sp)
      (if size sp = 1 then "" else "s")
      (total_bits sp)
      (if total_bits sp = 1 then "" else "s")
      max_bits;
    Array.iteri
      (fun i c ->
        let bits =
          if c.c_width = 1 then Fmt.str "bit %d" c.c_shift
          else Fmt.str "bits %d..%d" c.c_shift (c.c_shift + c.c_width - 1)
        in
        match c.c_order with
        | None ->
            Fmt.pf ppf "  [%d] %s: two-point %s (%s), %s@." i
              (Qualifier.name c.c_qual)
              (if Qualifier.is_positive c.c_qual then "positive" else "negative")
              (if Qualifier.is_positive c.c_qual then
                 Fmt.str "absent < %s" (Qualifier.name c.c_qual)
               else Fmt.str "%s < absent" (Qualifier.name c.c_qual))
              bits
        | Some o ->
            Fmt.pf ppf "  [%d] %s: %d levels, %s (%d join-irreducible)@." i
              (Qualifier.name c.c_qual)
              (Qualifier.Order.size o)
              bits (Qualifier.Order.bits o);
            Fmt.pf ppf "      order: %a@." Qualifier.Order.pp o;
            Fmt.pf ppf "      encoding:";
            Array.iteri
              (fun l ln ->
                let e = Qualifier.Order.encode o l in
                let s =
                  String.init c.c_width (fun k ->
                      if e land (1 lsl (c.c_width - 1 - k)) <> 0 then '1'
                      else '0')
                in
                ignore ln;
                Fmt.pf ppf " %s=%s" (Qualifier.Order.level_name o l) s)
              (Qualifier.Order.level_names o);
            Fmt.pf ppf "@.")
      sp.coords

  let of_config_file path =
    let src = In_channel.with_open_bin path In_channel.input_all in
    match Qualifier.Config.parse src with
    | Error m -> Error (path ^ ": " ^ m)
    | Ok quals -> (
        match create quals with
        | sp -> Ok (sp, quals)
        | exception Space_error e ->
            Error (Fmt.str "%s: %s: %s" path e.code e.message))
end

(** Elements of the product lattice [L], relative to a {!Space.t}. *)
module Elt = struct
  type t = int
  (** Upset encoding: per coordinate, the set of join-irreducible levels
      below the coordinate's level. For a classic positive qualifier the
      single bit means "syntactically present"; for a classic negative one
      it means "syntactically absent" (presence is the coordinate's
      bottom). Use {!has}/{!set}/{!clear} to speak in terms of syntactic
      presence without caring about the encoding. *)

  let full_mask sp = sp.Space.full

  (* Bottom of L: every coordinate at its lattice bottom — no
     join-irreducibles below it, i.e. no bits. *)
  let bottom _sp = 0

  (* Top of L: every join-irreducible of every coordinate. *)
  let top sp = sp.Space.full

  let equal (a : t) (b : t) = a = b
  let compare (a : t) (b : t) = compare a b

  (* a <= b iff a's irreducibles are a subset of b's: x = join of the
     irreducibles below it, so subset inclusion is exactly the product
     order. *)
  let leq _sp a b = a land lnot b = 0

  (* Restricted comparison: only the coordinates selected by [mask] are
     compared. Used by masked (per-coordinate) constraints. [mask] must be
     a union of whole coordinate ranges ({!singleton_mask}/
     {!mask_of_names}); a partial range would split a coordinate's lattice,
     which is meaningless. *)
  let leq_masked _sp ~mask a b = a land mask land lnot b = 0

  let join _sp a b = a lor b
  let meet _sp a b = a land b

  (* [embed_bottom sp mask x]: x on the [mask] coordinates, bottom
     elsewhere — the neutral extension for joins. *)
  let embed_bottom _sp ~mask x = x land mask

  (* [embed_top sp mask x]: x on the [mask] coordinates, top elsewhere —
     the neutral extension for meets. *)
  let embed_top sp ~mask x = (x land mask) lor (top sp land lnot mask)

  let coord sp i = sp.Space.coords.(i)

  (* Syntactic presence of qualifier [i], polarity-aware for classic
     coordinates: a negative qualifier is present exactly when its
     coordinate is at the sub-lattice bottom (bit clear). An ordered
     coordinate counts as "present" when above its bottom. *)
  let has sp i (x : t) =
    let c = coord sp i in
    match c.Space.c_order with
    | None ->
        if Qualifier.is_positive c.Space.c_qual then x land c.Space.c_mask <> 0
        else x land c.Space.c_mask = 0
    | Some _ -> x land c.Space.c_mask <> 0

  let has_name sp name x = has sp (Space.find sp name) x

  (* Make qualifier [i] syntactically present (classic) / raise an ordered
     coordinate to its top. *)
  let set sp i (x : t) =
    let c = coord sp i in
    match c.Space.c_order with
    | None ->
        if Qualifier.is_positive c.Space.c_qual then x lor c.Space.c_mask
        else x land lnot c.Space.c_mask
    | Some _ -> x lor c.Space.c_mask

  (* Make qualifier [i] syntactically absent (classic) / drop an ordered
     coordinate to its bottom. *)
  let clear sp i (x : t) =
    let c = coord sp i in
    match c.Space.c_order with
    | None ->
        if Qualifier.is_positive c.Space.c_qual then x land lnot c.Space.c_mask
        else x lor c.Space.c_mask
    | Some _ -> x land lnot c.Space.c_mask

  (* not_ sp i: the paper's [¬qi] — top of L with coordinate i replaced by
     the *bottom* of its sub-lattice. Asserting [Q <= not_ q] pins
     coordinate q to its bottom and leaves the rest unconstrained: for
     positive q this means "must not have q" (e.g. ¬const = assignable);
     for negative q it means "must have q" (e.g. ¬?nonzero = nonzero).
     Uniform in the upset encoding: clear the coordinate's whole range. *)
  let not_ sp i = top sp land lnot (coord sp i).Space.c_mask
  let not_name sp name = not_ sp (Space.find sp name)

  (* ---------------- named levels of ordered coordinates ------------- *)

  (* The level of coordinate [i] in [x]: decode the coordinate's bit range
     (rounding up to the least level covering stray bits — masks produced
     by the lattice operations decode exactly). Classic coordinates report
     level 0/1 = bottom/top of the two-point lattice. *)
  let level sp i (x : t) =
    let c = coord sp i in
    let local = (x land c.Space.c_mask) lsr c.Space.c_shift in
    match c.Space.c_order with
    | Some o -> Qualifier.Order.decode o local
    | None -> local

  let level_name sp i (x : t) =
    let c = coord sp i in
    match c.Space.c_order with
    | Some o -> Qualifier.Order.level_name o (level sp i x)
    | None ->
        let name = Qualifier.name c.Space.c_qual in
        let up = level sp i x = 1 in
        (* coordinate top is presence for positive, absence for negative *)
        if up = Qualifier.is_positive c.Space.c_qual then name else "~" ^ name

  (* [with_level sp i l x]: x with coordinate [i] set to exactly level [l]
     of its order (classic coordinates: 0 = sub-lattice bottom, 1 = top). *)
  let with_level sp i l (x : t) =
    let c = coord sp i in
    let local =
      match c.Space.c_order with
      | Some o -> Qualifier.Order.encode o l
      | None -> if l = 0 then 0 else 1
    in
    (x land lnot c.Space.c_mask) lor (local lsl c.Space.c_shift)

  (* Annotation constants are built bottom-up: start at bottom and raise
     the listed coordinates. Names may be qualifier names (classic
     presence; a listed negative qualifier is *kept* present — it already
     is at bottom — so writing e.g. [nonzero 37] as the paper does is
     accepted) or level names of ordered coordinates (raise the coordinate
     to at least that level). *)
  let raise_name sp acc name =
    match Space.resolve sp name with
    | Some (`Qual i) -> set sp i acc
    | Some (`Level (i, l)) -> join sp acc (with_level sp i l (bottom sp))
    | None -> raise (Unknown_qualifier name)

  let of_names_up sp names = List.fold_left (raise_name sp) (bottom sp) names

  (* Assertion bounds are built top-down: start at top and pin the listed
     coordinates — a qualifier name to its sub-lattice bottom (meet with
     ¬q), a level name to at most that level. *)
  let of_names_bound sp names =
    List.fold_left
      (fun acc name ->
        match Space.resolve sp name with
        | Some (`Qual i) -> meet sp acc (not_ sp i)
        | Some (`Level (i, l)) -> meet sp acc (with_level sp i l (top sp))
        | None -> raise (Unknown_qualifier name))
      (top sp) names

  (* The whole bit range of coordinate [i]. (Historically a single bit —
     the name survives; a coordinate is still the smallest maskable
     unit, the solver's masks must never split a range.) *)
  let singleton_mask sp i = (coord sp i).Space.c_mask

  let mask_of_names sp names =
    List.fold_left
      (fun m n ->
        match Space.resolve sp n with
        | Some (`Qual i) | Some (`Level (i, _)) -> m lor singleton_mask sp i
        | None -> raise (Unknown_qualifier n))
      0 names

  (* Pretty-print as the set of "interesting" annotations: classically
     present qualifiers (what the programmer would write), plus the level
     name of every ordered coordinate that sits above its bottom. *)
  let pp sp ppf (x : t) =
    let names =
      List.concat
        (List.mapi
           (fun i c ->
             match c.Space.c_order with
             | None ->
                 if has sp i x then [ Qualifier.name c.Space.c_qual ] else []
             | Some o ->
                 let l = level sp i x in
                 if l = Qualifier.Order.bottom o then []
                 else [ Qualifier.Order.level_name o l ])
           (Array.to_list sp.Space.coords))
    in
    match names with
    | [] -> Fmt.string ppf "∅"
    | names -> Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ",") string) names

  (* Exhaustive form: every coordinate, with ¬ marking absence of a
     positive / presence-complement of a negative, and [qual=level] for
     ordered coordinates. *)
  let pp_full sp ppf (x : t) =
    let coord_s i c =
      match c.Space.c_order with
      | None ->
          let name = Qualifier.name c.Space.c_qual in
          if has sp i x then name else "¬" ^ name
      | Some o ->
          Fmt.str "%s=%s"
            (Qualifier.name c.Space.c_qual)
            (Qualifier.Order.level_name o (level sp i x))
    in
    Fmt.pf ppf "(%a)"
      Fmt.(list ~sep:(any ",") string)
      (List.mapi coord_s (Array.to_list sp.Space.coords))

  (* All elements of the lattice — the product of every coordinate's
     valid level encodings — for exhaustive property tests on small
     spaces. *)
  let all sp =
    Array.fold_left
      (fun acc (c : Space.coord) ->
        let locals =
          match c.Space.c_order with
          | None -> [ 0; 1 ]
          | Some o ->
              List.init (Qualifier.Order.size o) (fun l ->
                  Qualifier.Order.encode o l)
              |> List.sort_uniq compare
        in
        List.concat_map
          (fun x -> List.map (fun l -> x lor (l lsl c.Space.c_shift)) locals)
          acc)
      [ 0 ] sp.Space.coords
end
