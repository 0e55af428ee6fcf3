(** Resource budgets: see the interface for semantics. Trip-style (no
    exceptions): limits latch a reason string; consumers poll.

    All counters are {!Atomic.t}, so one budget may be charged from
    several domains: every store charged against it counts toward the same
    limits, and a trip in any domain is observed by all of them. *)

type t = {
  max_vars : int option;
  max_pops : int option;
  deadline : float option;  (* absolute, in [clock] units *)
  clock : unit -> float;
  n_vars : int Atomic.t;
  n_pops : int Atomic.t;
  n_ticks : int Atomic.t;
  tripped : string option Atomic.t;
}

(* Poll the clock only every [poll_interval] events: reading time is far
   more expensive than an increment, and a deadline does not need
   single-event precision. Power of two so the check is a mask; small
   enough that even modest workloads (a few hundred events) poll. *)
let poll_interval = 32

let create ?max_vars ?max_pops ?deadline_s ?(clock = Sys.time) () =
  {
    max_vars;
    max_pops;
    deadline = Option.map (fun d -> clock () +. d) deadline_s;
    clock;
    n_vars = Atomic.make 0;
    n_pops = Atomic.make 0;
    n_ticks = Atomic.make 0;
    tripped = Atomic.make None;
  }

(* First trip wins; losing the race just means another domain latched a
   reason a moment earlier, which is equally valid. *)
let trip b reason =
  ignore (Atomic.compare_and_set b.tripped None (Some reason) : bool)

let exhausted b = Atomic.get b.tripped
let is_exhausted b = Atomic.get b.tripped <> None
let pops b = Atomic.get b.n_pops

let check_time b =
  match b.deadline with
  | Some d when b.clock () > d -> trip b "wall-clock deadline exceeded"
  | _ -> ()

let tick b =
  let n = Atomic.fetch_and_add b.n_ticks 1 in
  if (n + 1) land (poll_interval - 1) = 0 then check_time b

let note_var b =
  let n = Atomic.fetch_and_add b.n_vars 1 + 1 in
  (match b.max_vars with
  | Some m when n > m ->
      trip b
        (Printf.sprintf "constraint-variable budget exceeded (%d > %d)" n m)
  | _ -> ());
  tick b

let vars b = Atomic.get b.n_vars

let note_pop b =
  let n = Atomic.fetch_and_add b.n_pops 1 + 1 in
  (match b.max_pops with
  | Some m when n > m ->
      trip b
        (Printf.sprintf "solver worklist budget exceeded (%d > %d pops)" n m)
  | _ -> ());
  (* pops share the tick counter so deadline polling sees every kind of
     work the analysis does, not just variable creation *)
  tick b

let pp ppf b =
  let lim ppf = function
    | Some n -> Fmt.int ppf n
    | None -> Fmt.string ppf "unlimited"
  in
  Fmt.pf ppf "vars<=%a pops<=%a deadline=%a%a" lim b.max_vars lim b.max_pops
    Fmt.(option ~none:(any "none") float)
    b.deadline
    Fmt.(option (any " [tripped: " ++ string ++ any "]"))
    (Atomic.get b.tripped)
