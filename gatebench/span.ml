(** Spans recorded by the benchmark around its calls into each layer.

    A span is a named interval on the wall clock with the bytes the OCaml
    heap allocated during it. Spans nest: the enclosing open span is the
    parent, and spans of one daemon step share a request id. Everything
    stays in memory until {!write_chrome} exports it as Chrome
    trace-event JSON (Perfetto and about:tracing open it). *)

type t = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  name : string;
  rid : int;  (** request id; [0] outside daemon steps *)
  t0 : float;
  t1 : float;
  alloc : float;  (** bytes allocated during the span *)
}

let recorded : t list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0
let now = Unix.gettimeofday

(** [record ~rid name f] runs [f] inside a span. *)
let record ?(rid = 0) name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_ids with p :: _ -> p | [] -> -1 in
  open_ids := id :: !open_ids;
  let a0 = Gc.allocated_bytes () in
  let t0 = now () in
  let finish () =
    let t1 = now () in
    open_ids := List.tl !open_ids;
    recorded :=
      { id; parent; name; rid; t0; t1; alloc = Gc.allocated_bytes () -. a0 }
      :: !recorded
  in
  Fun.protect ~finally:finish f

let dur s = s.t1 -. s.t0
let named name = List.filter (fun s -> s.name = name) (List.rev !recorded)
let total name = List.fold_left (fun a s -> a +. dur s) 0. (named name)
let alloc_total name = List.fold_left (fun a s -> a +. s.alloc) 0. (named name)

(** Per span name, in first-seen order: calls, total seconds, and self
    seconds (total minus the time of direct child spans). *)
let summary () : (string * int * float * float) list =
  let spans = List.rev !recorded in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (dur s +. Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.))
    spans;
  let order = ref [] and acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = dur s -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0. in
      match Hashtbl.find_opt acc s.name with
      | None ->
          order := s.name :: !order;
          Hashtbl.replace acc s.name (1, dur s, self)
      | Some (n, tot, sf) -> Hashtbl.replace acc s.name (n + 1, tot +. dur s, sf +. self))
    (List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id)) spans);
  List.rev_map
    (fun name ->
      let n, tot, self = Hashtbl.find acc name in
      (name, n, tot, self))
    !order

(** Complete ("X") events on one thread: nesting is implied by time
    containment. Timestamps are microseconds from the first span. *)
let write_chrome path =
  let spans = List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id)) (List.rev !recorded) in
  let base = match spans with s :: _ -> s.t0 | [] -> 0. in
  let us x = Cqual.Wire.Num (Float.round (x *. 1e6)) in
  let event s =
    Cqual.Wire.Obj
      [
        ("name", Cqual.Wire.Str s.name);
        ("cat", Cqual.Wire.Str (List.hd (String.split_on_char '.' s.name)));
        ("ph", Cqual.Wire.Str "X");
        ("ts", us (s.t0 -. base));
        ("dur", us (dur s));
        ("pid", Cqual.Wire.num_int 1);
        ("tid", Cqual.Wire.num_int 1);
        ( "args",
          Cqual.Wire.Obj
            [
              ("rid", Cqual.Wire.num_int s.rid);
              ("alloc_bytes", Cqual.Wire.Num s.alloc);
            ] );
      ]
  in
  let doc =
    Cqual.Wire.Obj
      [
        ("traceEvents", Cqual.Wire.Arr (List.map event spans));
        ("displayTimeUnit", Cqual.Wire.Str "ms");
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Cqual.Wire.to_string doc);
      output_char oc '\n')
