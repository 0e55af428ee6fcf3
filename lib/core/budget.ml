(** Resource budgets: see the interface for semantics. Trip-style (no
    exceptions): limits latch a reason string; consumers poll. *)

type t = {
  max_vars : int option;
  max_pops : int option;
  deadline : float option;  (* absolute, in [clock] units *)
  clock : unit -> float;
  mutable n_vars : int;
  mutable n_pops : int;
  mutable n_ticks : int;
  mutable tripped : string option;
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
    n_vars = 0;
    n_pops = 0;
    n_ticks = 0;
    tripped = None;
  }

(* the first trip's reason stays *)
let trip b reason = if b.tripped = None then b.tripped <- Some reason
let exhausted b = b.tripped
let is_exhausted b = b.tripped <> None
let pops b = b.n_pops

let check_time b =
  match b.deadline with
  | Some d when b.clock () > d -> trip b "wall-clock deadline exceeded"
  | _ -> ()

let tick b =
  b.n_ticks <- b.n_ticks + 1;
  if b.n_ticks land (poll_interval - 1) = 0 then check_time b

let note_var b =
  b.n_vars <- b.n_vars + 1;
  let n = b.n_vars in
  (match b.max_vars with
  | Some m when n > m ->
      trip b
        (Printf.sprintf "constraint-variable budget exceeded (%d > %d)" n m)
  | _ -> ());
  tick b

let vars b = b.n_vars

let note_pop b =
  b.n_pops <- b.n_pops + 1;
  let n = b.n_pops in
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
    b.tripped
