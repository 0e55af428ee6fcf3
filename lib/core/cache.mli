(** Persistent analysis cache with a versioned, self-checking envelope.

    Every entry is one file under the cache directory, wrapped in a binary
    envelope that chains every assumption the payload depends on:

    {v
    offset size  field
         0    8  magic            "TQCACHE1"
         8    2  format version   (big-endian)
        10   16  context digest   (qualifier-space fingerprint)
        26   16  key digest       (the caller's content hash)
        42    8  payload length   (big-endian)
        50   16  payload digest   (MD5)
        66    .  payload bytes
    v}

    {!load} verifies the whole chain front to back and returns the payload
    only when every field matches what the caller expects {e now}; any
    mismatch — truncation, flipped byte, version skew, foreign lattice,
    wrong key — rejects the entry, counts the cause, and
    evicts the file. A rejected or missing entry is indistinguishable from
    a cold cache: the caller recomputes. The cache never repairs an entry
    and never raises; I/O failures disable the affected side (reads or
    writes) and are reported through [warn] once.

    Writes are crash-safe: payloads go to a temporary file, are fsynced,
    and enter the directory by atomic [rename] while holding a pid-stamped
    lock file ([.lock], created with [O_CREAT|O_EXCL]). Locks whose
    recorded owner is dead are broken by rename-then-remove: the breaker
    atomically renames the stale lock to a unique name (so at most one
    breaker wins) and re-checks its content before deleting, restoring any
    lock that was re-created in the window. A writer that cannot take the
    lock skips the write — caching is an optimization, never a wait.

    All operations are thread- and domain-safe: the statistics counters
    are guarded by an internal mutex, so [load]/[store]/
    [reject_undecodable] may be called concurrently from several
    domains. *)

type t

(** why a load rejected an entry (the [--stats] reject causes) *)
type reject =
  | Io_error  (** the file could not be read *)
  | Truncated  (** shorter than its own header or declared payload *)
  | Bad_magic
  | Bad_version
  | Context_mismatch  (** wrong qualifier-space fingerprint *)
  | Key_mismatch  (** envelope was written for a different content hash *)
  | Corrupt  (** payload bytes do not match their digest *)
  | Undecodable  (** envelope verified but the client could not decode *)

val reject_name : reject -> string

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable evictions : int;  (** rejected entries unlinked *)
  mutable write_skips : int;  (** stores skipped (lock contention / disabled) *)
  rejects : (string, int) Hashtbl.t;  (** reject cause -> count *)
}

val open_dir : ?warn:(string -> unit) -> ctx:Digest.t -> string -> t option
(** Open (creating if needed) a cache directory. [ctx] is the context
    fingerprint stamped into and checked against every envelope (the
    qualifier-space fingerprint). Returns [None] — after calling [warn] —
    when the path cannot be used as a directory at all; the caller then
    runs cold. Never raises. *)

val load : t -> key:Digest.t -> string option
(** Look up the entry for [key]; verify magic, version, context,
    key and the payload checksum. [Some payload] only if the whole chain holds.
    Rejections are counted by cause and the bad file evicted. Never
    raises. *)

val store : t -> key:Digest.t -> string -> unit
(** Write an entry via temp file + fsync + atomic rename, under the lock.
    Skips silently (counted in [write_skips]) on lock contention; a
    filesystem error warns once and disables further writes. Never
    raises. *)

val reject_undecodable : t -> key:Digest.t -> unit
(** Record a client-side decode failure for an entry whose envelope
    verified (e.g. the payload unmarshals to an impossible value): counts
    an [Undecodable] reject and evicts the file. *)

val entry_path : t -> key:Digest.t -> string
(** the file the entry for [key] lives at, [<hex key>.tqc] (for tests
    and tools) *)

val entry_files : t -> string list
(** every entry file currently in the directory (absolute paths, sorted);
    excludes lock and temporary files *)

val stats : t -> stats
val pp_stats : stats Fmt.t

val format_version : int
(** bump when the envelope layout or any payload format changes *)

(** byte offsets of the envelope header fields, for fault-injection
    harnesses that corrupt specific fields *)

val off_magic : int

val off_version : int
val off_ctx : int
val off_key : int

(** {1 Lock protocol} (exposed for tests) *)

val with_lock : t -> (unit -> unit) -> bool
(** run [f] holding the directory lock; [false] if the lock could not be
    taken (f not run). Breaks locks whose recorded pid is dead, via
    rename-then-remove so concurrent breakers cannot delete a live
    lock. *)
