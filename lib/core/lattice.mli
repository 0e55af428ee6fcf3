(** The qualifier lattice (Definition 2 of the paper), generalized: the
    product of one finite lattice per qualifier in a fixed {e space} —
    the classic two-point lattice of a polarized qualifier, or a
    user-defined lattice of named levels ({!Qualifier.Order}).

    Elements are machine ints under the {e upset (Birkhoff) encoding}:
    each coordinate owns a contiguous bit range, one bit per
    join-irreducible level, storing the set of irreducibles below the
    coordinate's level. Order is bitwise subset, meet is AND, join is OR.
    Two-point qualifiers are the 1-bit special case; for a positive
    qualifier bit set = syntactically present (the historical
    representation), for a negative one the sense is inverted and the
    presence accessors compensate. *)

exception Unknown_qualifier of string

type space_error = { code : string; message : string }
(** structured space-construction diagnostic. Stable codes:
    [L001] duplicate qualifier/level name, [L002] total bit width over
    {!Space.max_bits}. *)

exception Space_error of space_error

val pp_space_error : space_error Fmt.t

(** A qualifier space: the ordered universe of qualifiers an analysis
    uses, fixed for the lifetime of the analysis. *)
module Space : sig
  type t

  val max_bits : int
  (** maximum total encoding width (62: machine-int representation) *)

  val max_size : int
  (** historical alias of {!max_bits} *)

  val create : Qualifier.t list -> t
  (** Raises {!Space_error} on duplicate qualifier/level names ([L001]) or
      total bit width over {!max_bits} ([L002]). *)

  val size : t -> int
  (** number of coordinates (qualifiers) *)

  val qual : t -> int -> Qualifier.t
  val quals : t -> Qualifier.t list
  val find_opt : t -> string -> int option

  val find : t -> string -> int
  (** Raises {!Unknown_qualifier}. *)

  val mem : t -> string -> bool

  val order : t -> int -> Qualifier.Order.t option
  (** the coordinate's level lattice ([None] = classic two-point) *)

  val width : t -> int -> int
  (** bits of the coordinate's range (its join-irreducible count) *)

  val shift : t -> int -> int
  (** first bit of the coordinate's range *)

  val total_bits : t -> int

  val resolve : t -> string -> [ `Qual of int | `Level of int * int ] option
  (** resolve a name against the space: a qualifier name, or a level name
      of an ordered coordinate (qualifier names win) *)

  val pp_dump : t Fmt.t
  (** debugging dump: every coordinate with its levels, order and bit
      layout (the [--dump-lattice] output) *)

  val of_config_file : string -> (t * Qualifier.t list, string) result
  (** The [--lattice FILE] loader: read a CQual-style config
      ({!Qualifier.Config.parse}) and build its space, with its
      qualifiers in declaration order. [Error] is the message to print,
      headed by the path. Raises [Sys_error] when the file cannot be
      read. *)
end

(** Elements of the product lattice, relative to a {!Space.t}. *)
module Elt : sig
  type t = int
  (** upset encoding; see the module header *)

  val full_mask : Space.t -> int

  val is_full_mask : Space.t -> int -> bool
  (** does the mask cover every coordinate of the space? (full-mask
      [var <= var] edges are the ones eligible for cycle collapse) *)

  val bottom : Space.t -> t
  (** every coordinate at its sub-lattice bottom (= 0) *)

  val top : Space.t -> t

  val equal : t -> t -> bool
  val compare : t -> t -> int

  val leq : Space.t -> t -> t -> bool
  (** the lattice order: bitwise subset *)

  val leq_masked : Space.t -> mask:int -> t -> t -> bool
  (** comparison restricted to the coordinates selected by [mask], which
      must be a union of whole coordinate ranges ({!singleton_mask} /
      {!mask_of_names}) — a partial range would split a coordinate's
      lattice *)

  val join : Space.t -> t -> t -> t
  val meet : Space.t -> t -> t -> t

  val embed_bottom : Space.t -> mask:int -> t -> t
  (** the masked coordinates of the argument, bottom elsewhere — the
      neutral extension for joins, used by masked constraint propagation *)

  val embed_top : Space.t -> mask:int -> t -> t
  (** dual: neutral extension for meets *)

  val has : Space.t -> int -> t -> bool
  (** syntactic presence of qualifier [i], polarity-aware: a negative
      qualifier is present exactly when its coordinate is at the
      sub-lattice bottom. Ordered coordinates count as present when above
      their bottom. *)

  val has_name : Space.t -> string -> t -> bool

  val set : Space.t -> int -> t -> t
  (** make qualifier [i] syntactically present (ordered coordinates: raise
      to top) *)

  val clear : Space.t -> int -> t -> t
  (** make qualifier [i] syntactically absent (ordered coordinates: drop
      to bottom) *)

  val not_ : Space.t -> int -> t
  (** the paper's [¬q]: top with coordinate [q] pinned to the {e bottom}
      of its sub-lattice. Asserting [Q <= not_ q] means "must not have q"
      for positive [q] (e.g. ¬const = assignable) and "must have q" for
      negative [q] (e.g. must be nonzero). *)

  val not_name : Space.t -> string -> t

  val level : Space.t -> int -> t -> int
  (** the level of coordinate [i] (classic coordinates: 0 = sub-lattice
      bottom, 1 = top); arbitrary bit patterns round up to the least
      covering level *)

  val level_name : Space.t -> int -> t -> string
  (** the level's name; classic coordinates print the qualifier name, with
      a [~] prefix when at the sub-lattice bottom *)

  val with_level : Space.t -> int -> int -> t -> t
  (** coordinate [i] set to exactly the given level *)

  val of_names_up : Space.t -> string list -> t
  (** annotation constants, built up from bottom by raising the listed
      coordinates: qualifier names become syntactically present (accepting
      the paper's [nonzero 37] style spelling), level names raise their
      coordinate to at least that level *)

  val of_names_bound : Space.t -> string list -> t
  (** assertion bounds, built down from top: a qualifier name pins its
      coordinate to the sub-lattice bottom (meet with [¬q]), a level name
      bounds its coordinate by that level *)

  val singleton_mask : Space.t -> int -> int
  (** the whole bit range of coordinate [i] — the smallest maskable unit
      (solver masks must never split a coordinate's range) *)

  val mask_of_names : Space.t -> string list -> int
  (** ranges of the named qualifiers (level names select their
      coordinate) *)

  val pp : Space.t -> t Fmt.t
  (** set notation: present classic qualifiers plus the level names of
      ordered coordinates above bottom *)

  val pp_full : Space.t -> t Fmt.t
  (** exhaustive: every coordinate; absent classic qualifiers marked ¬,
      ordered ones as [qual=level] *)

  val all : Space.t -> t list
  (** every element, for exhaustive tests on small spaces *)
end
