(** What the host offers for parallelism. The analysis itself is serial;
    this figure is recorded beside benchmark timings so they can be read
    across machines. *)

val cores_available : unit -> int
(** [Domain.recommended_domain_count ()]. gatebench records it; the
    module goes when the benchmark no longer does. *)
