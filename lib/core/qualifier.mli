(** Type qualifiers (Definitions 1 and 2 of the paper).

    A qualifier names one coordinate of the qualifier lattice. The classic
    form is a two-point qualifier with a polarity: [q] is {e positive}
    when [tau <= q tau] for every standard type [tau] (e.g. [const]:
    adding it moves up the subtype order), and {e negative} when
    [q tau <= tau] (e.g. [nonzero]: removing it moves up).

    The general form — the paper's "user-defined partial order of
    qualifiers" — attaches an arbitrary finite (distributive) lattice of
    named {e levels} to the coordinate ({!Order}), e.g.
    [untainted <= maybe_tainted <= tainted]. *)

type polarity =
  | Positive  (** [tau <= q tau]; absence is the bottom of the 2-point lattice *)
  | Negative  (** [q tau <= tau]; presence is the bottom of the 2-point lattice *)

(** A validated finite {e distributive} lattice of named levels, with its
    Birkhoff (join-irreducible upset) bit encoding precomputed. Join is
    bitwise OR of encodings, meet is AND, and the order is subset — exact
    precisely because the lattice is distributive; non-distributive
    lattices (M3, N5) are rejected at construction. *)
module Order : sig
  type t

  val of_levels :
    levels:string list -> order:(string * string) list -> (t, string) result
  (** [of_levels ~levels ~order] builds a lattice from level names and
      [a <= b] pairs. The relation is closed reflexively and transitively;
      validation rejects duplicate/empty/unknown names, cycles
      (antisymmetry), missing or non-unique pairwise lub/glb (lattice-ness)
      and non-distributivity, each with a diagnostic naming the offending
      levels. *)

  val chain : string list -> (t, string) result
  (** a total order, bottom first *)

  val chain_exn : string list -> t
  (** {!chain}, raising [Invalid_argument] — for statically known chains *)

  val size : t -> int
  (** number of levels *)

  val bits : t -> int
  (** number of join-irreducible levels = bits of the encoding *)

  val level_names : t -> string array
  val level_name : t -> int -> string
  val find_level : t -> string -> int option
  val bottom : t -> int
  val top : t -> int
  val leq : t -> int -> int -> bool
  val join : t -> int -> int -> int
  val meet : t -> int -> int -> int

  val irreducibles : t -> int array
  (** the join-irreducible level ids, in ascending id order; bit [k] of an
      encoding corresponds to [.(k)] *)

  val encode : t -> int -> int
  (** the upset encoding of a level: bit [k] set iff irreducible [k] is
      below it *)

  val decode : t -> int -> int
  (** least level whose encoding contains every set bit (exact on masks
      produced by the lattice operations) *)

  val covers : t -> (int * int) list
  (** the Hasse diagram: [a < b] with nothing strictly between *)

  val pp : t Fmt.t
  (** the covers, e.g. "untainted < maybe_tainted, maybe_tainted < tainted" *)
end

type t = {
  name : string;  (** source-level name, unique within a space *)
  polarity : polarity;
  order : Order.t option;
      (** [None]: the classic two-point lattice given by [polarity];
          [Some o]: a user-defined lattice of named levels *)
}

val make : ?polarity:polarity -> string -> t
(** [make name] is a classic two-point qualifier (positive by default).
    Raises [Invalid_argument] on an empty name. *)

val positive : string -> t
val negative : string -> t

val ordered : string -> Order.t -> t
(** a qualifier carrying a user-defined lattice of levels *)

val name : t -> string
val polarity : t -> polarity
val order : t -> Order.t option
val is_positive : t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int

val pp : t Fmt.t
(** prints the bare name *)

val pp_full : t Fmt.t
(** prints the name with a +/- polarity marker (classic) or a level count
    (ordered) *)

(** Parser for CQual-style lattice configuration files (see the README for
    the grammar):

    {v
    # three-level taint
    qualifier taint {
      levels untainted maybe_tainted tainted
      order untainted < maybe_tainted < tainted
    }
    qualifier const            # classic positive two-point
    qualifier nonzero negative
    v} *)
module Config : sig
  val parse : string -> (t list, string) result
  (** parse a config file's contents; errors carry the line number *)
end

(** {1 The qualifiers used in the paper and this reproduction} *)

val const : t
(** ANSI C [const] (Sections 2.4, 4). Positive. *)

val dynamic : t
(** binding-time [dynamic] (Section 1); [static] is its absence. Positive. *)

val nonzero : t
(** an integer known not to be zero (Figure 2). Negative. *)

val nonnull : t
(** lclint-style non-null pointer (Section 1). Negative. *)

val sorted : t
(** a list known to be sorted (Section 2.3). Negative. *)

val tainted : t
(** security taint (cf. the information-flow systems of Section 5).
    Positive. *)
