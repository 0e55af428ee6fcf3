(** Resource budgets for constraint generation and solving.

    A budget converts runaway analysis into a reported, degraded outcome
    instead of a hang or an OOM kill. It tracks three optional limits:

    - [max_vars]: constraint variables created, {e summed across every
      store charged against this budget};
    - [max_pops]: solver worklist pops (propagation steps);
    - [deadline_s]: wall-clock seconds, checked via a poll counter so the
      clock is read only every few dozen events.

    Budgets {e trip} rather than raise: once a limit is exceeded,
    {!exhausted} returns the reason and stays set. Consumers (the solver's
    propagation loop, {!Cqual.Analysis}) poll the flag and stop early;
    the run is then reported as degraded. Exception-free tripping keeps
    every store invariant intact no matter where exhaustion is noticed.

    Every counter is an {!Atomic.t}, so a budget stays correct when
    several domains charge it: the limits bound all of them together, and
    a trip in one is promptly observed by the others. *)

type t

val create :
  ?max_vars:int ->
  ?max_pops:int ->
  ?deadline_s:float ->
  ?clock:(unit -> float) ->
  unit ->
  t
(** [clock] defaults to [Sys.time] (portable; the core library does not
    depend on Unix for budgets). Callers with access to a monotonic or
    wall clock can pass their own. The deadline is [clock () + deadline_s]
    at creation. *)

val exhausted : t -> string option
(** [Some reason] once any limit has been exceeded; never resets. *)

val is_exhausted : t -> bool

val note_var : t -> unit
(** count one constraint-variable creation (in any store sharing this
    budget) *)

val note_pop : t -> unit
(** count one worklist pop; also counts as a tick, so pops and variable
    creation share one deadline-polling counter *)

val tick : t -> unit
(** count one generic unit of work; polls the clock every few dozen
    ticks *)

val pops : t -> int
(** pops observed so far (for reporting) *)

val vars : t -> int
(** variable creations observed so far, across all charged stores *)

val pp : t Fmt.t
