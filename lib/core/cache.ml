(* Persistent analysis cache: versioned self-checking envelopes, atomic
   writes, lock-file protocol. See cache.mli for the format. *)

let magic = "TQCACHE1"
let format_version = 2
let off_magic = 0
let off_version = 8
let off_ctx = 10
let off_key = 26
let off_len = 42
let off_payload = off_len + 24

type reject =
  | Io_error
  | Truncated
  | Bad_magic
  | Bad_version
  | Context_mismatch
  | Key_mismatch
  | Corrupt
  | Undecodable

let reject_name = function
  | Io_error -> "io-error"
  | Truncated -> "truncated"
  | Bad_magic -> "bad-magic"
  | Bad_version -> "bad-version"
  | Context_mismatch -> "lattice-mismatch"
  | Key_mismatch -> "key-mismatch"
  | Corrupt -> "corrupt"
  | Undecodable -> "undecodable"

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable evictions : int;
  mutable write_skips : int;
  rejects : (string, int) Hashtbl.t;
}

type t = {
  dir : string;
  ctx : Digest.t;
  warn : string -> unit;
  mutable writes_ok : bool;  (* first write failure warns and latches off *)
  mutable warned_write : bool;
  st : stats;
  mutable tmp_seq : int;  (* per-process temp-name uniquifier *)
  mu : Mutex.t;  (* guards st, writes_ok, warned_write, tmp_seq: load and
                    store may be called from several domains at once *)
}

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let next_seq t =
  locked t (fun () ->
      t.tmp_seq <- t.tmp_seq + 1;
      t.tmp_seq)

let stats t = t.st

let fresh_stats () =
  {
    hits = 0;
    misses = 0;
    bytes_read = 0;
    bytes_written = 0;
    evictions = 0;
    write_skips = 0;
    rejects = Hashtbl.create 8;
  }

let open_dir ?(warn = fun _ -> ()) ~ctx dir =
  match
    if Sys.file_exists dir then
      if Sys.is_directory dir then Ok () else Error (dir ^ " is not a directory")
    else
      try
        Unix.mkdir dir 0o755;
        Ok ()
      with
      | Unix.Unix_error (Unix.EEXIST, _, _) -> Ok ()
      | Unix.Unix_error (e, _, _) ->
          Error (dir ^ ": " ^ Unix.error_message e)
      | Sys_error m -> Error m
  with
  | Ok () ->
      Some
        {
          dir;
          ctx;
          warn;
          writes_ok = true;
          warned_write = false;
          st = fresh_stats ();
          tmp_seq = 0;
          mu = Mutex.create ();
        }
  | Error m ->
      warn ("cache disabled: " ^ m);
      None
  | exception _ ->
      warn ("cache disabled: cannot open " ^ dir);
      None

let entry_path t ~name = Filename.concat t.dir (Digest.to_hex name ^ ".tqc")

let entry_files t =
  match Sys.readdir t.dir with
  | names ->
      Array.to_list names
      |> List.filter (fun n -> Filename.check_suffix n ".tqc")
      |> List.sort String.compare
      |> List.map (Filename.concat t.dir)
  | exception _ -> []

(* ------------------------------------------------------------------ *)
(* Counters (the [_u] helpers require [t.mu] held)                     *)
(* ------------------------------------------------------------------ *)

let evict_u t path =
  (try Sys.remove path with _ -> ());
  t.st.evictions <- t.st.evictions + 1

let rejected_u t ~path cause =
  let name = reject_name cause in
  let n = try Hashtbl.find t.st.rejects name with Not_found -> 0 in
  Hashtbl.replace t.st.rejects name (n + 1);
  evict_u t path

let reject_undecodable t ~name =
  locked t (fun () ->
      (* the load already counted a hit for this entry; re-book it as a
         miss *)
      t.st.hits <- t.st.hits - 1;
      t.st.misses <- t.st.misses + 1;
      rejected_u t ~path:(entry_path t ~name) Undecodable)

(* ------------------------------------------------------------------ *)
(* Envelope encode/decode                                              *)
(* ------------------------------------------------------------------ *)

let put_u16 b v =
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (v land 0xff))

let put_u64 b v =
  for i = 7 downto 0 do
    Buffer.add_char b (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let get_u16 s off = (Char.code s.[off] lsl 8) lor Char.code s.[off + 1]

let get_u64 s off =
  let v = ref 0 in
  for i = 0 to 7 do
    v := (!v lsl 8) lor Char.code s.[off + i]
  done;
  !v

let encode ~ctx ~key payload =
  let b = Buffer.create (off_payload + String.length payload) in
  Buffer.add_string b magic;
  put_u16 b format_version;
  Buffer.add_string b ctx;
  Buffer.add_string b key;
  put_u64 b (String.length payload);
  Buffer.add_string b (Digest.string payload);
  Buffer.add_string b payload;
  Buffer.contents b

(* Verify the chain front to back against what the caller expects NOW.
   The order matters: each check only reads bytes the previous checks
   proved present, so a truncated file is always [Truncated], never an
   out-of-bounds read. *)
let verify ~ctx ~key (s : string) : (string, reject) result =
  let len = String.length s in
  let have n = len >= n in
  if not (have off_version) then Error Truncated
  else if String.sub s off_magic 8 <> magic then Error Bad_magic
  else if not (have off_ctx) then Error Truncated
  else if get_u16 s off_version <> format_version then Error Bad_version
  else if not (have off_payload) then Error Truncated
  else if String.sub s off_ctx 16 <> ctx then Error Context_mismatch
  else if String.sub s off_key 16 <> key then Error Key_mismatch
  else
    let plen = get_u64 s off_len in
    if len - off_payload <> plen then Error Truncated
    else
      let payload = String.sub s off_payload plen in
      if Digest.string payload <> String.sub s (off_len + 8) 16 then
        Error Corrupt
      else Ok payload

(* ------------------------------------------------------------------ *)
(* Load                                                                *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load t ~name ~key =
  let path = entry_path t ~name in
  if not (Sys.file_exists path) then begin
    locked t (fun () -> t.st.misses <- t.st.misses + 1);
    None
  end
  else
    match read_file path with
    | exception _ ->
        locked t (fun () ->
            t.st.misses <- t.st.misses + 1;
            rejected_u t ~path Io_error);
        None
    | raw -> (
        match verify ~ctx:t.ctx ~key raw with
        | Ok payload ->
            locked t (fun () ->
                t.st.hits <- t.st.hits + 1;
                t.st.bytes_read <- t.st.bytes_read + String.length raw);
            Some payload
        | Error cause ->
            locked t (fun () ->
                t.st.misses <- t.st.misses + 1;
                rejected_u t ~path cause);
            None)

(* ------------------------------------------------------------------ *)
(* Lock-file protocol                                                  *)
(* ------------------------------------------------------------------ *)

let lock_path t = Filename.concat t.dir ".lock"

let pid_alive pid =
  if pid <= 0 then false
  else
    match Unix.kill pid 0 with
    | () -> true
    | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
    | exception _ -> true (* EPERM: someone owns it; treat as alive *)

let try_take_lock t =
  let path = lock_path t in
  match Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644 with
  | fd ->
      let pid = string_of_int (Unix.getpid ()) in
      (try ignore (Unix.write_substring fd pid 0 (String.length pid)) with _ -> ());
      (try Unix.close fd with _ -> ());
      true
  | exception Unix.Unix_error (Unix.EEXIST, _, _) ->
      (* Stale-lock detection: break locks whose recorded owner is gone
         (or whose content is unreadable garbage). Breaking is
         rename-then-remove, not a bare unlink: [rename] to a unique
         name atomically elects exactly one breaker, and the renamed
         file's content is re-checked so that a fresh lock that replaced
         the stale one between our read and our rename is restored
         instead of deleted — a bare unlink could delete another
         process's live lock and let two writers in. *)
      (match read_file path with
      | exception _ -> ()
      | s ->
          let stale =
            match int_of_string_opt (String.trim s) with
            | Some pid -> not (pid_alive pid)
            | None -> true
          in
          if stale then begin
            let victim =
              Filename.concat t.dir
                (Printf.sprintf ".lock.stale.%d.%d" (Unix.getpid ())
                   (next_seq t))
            in
            match Unix.rename path victim with
            | exception _ -> () (* another breaker won; retry the loop *)
            | () ->
                let unchanged =
                  match read_file victim with
                  | s' -> s' = s
                  | exception _ -> false
                in
                if unchanged then (try Sys.remove victim with _ -> ())
                else
                  (* we grabbed a lock re-created after our read: put it
                     back and let its owner finish *)
                  (try Unix.rename victim path with _ -> ())
          end);
      false
  | exception _ -> false

let release_lock t = try Sys.remove (lock_path t) with _ -> ()

let with_lock t f =
  let rec attempt n =
    if try_take_lock t then begin
      Fun.protect ~finally:(fun () -> release_lock t) f;
      true
    end
    else if n = 0 then false
    else begin
      (* brief bounded wait: the critical section is one rename *)
      (try Unix.sleepf 0.005 with _ -> ());
      attempt (n - 1)
    end
  in
  attempt 40

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

let disable_writes t msg =
  let warn_now =
    locked t (fun () ->
        t.writes_ok <- false;
        if t.warned_write then false
        else begin
          t.warned_write <- true;
          true
        end)
  in
  if warn_now then t.warn ("cache writes disabled: " ^ msg)

let write_atomic t ~path blob =
  let tmp =
    Filename.concat t.dir
      (Printf.sprintf ".tmp.%d.%d" (Unix.getpid ()) (next_seq t))
  in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  match
    let len = String.length blob in
    let pos = ref 0 in
    while !pos < len do
      pos := !pos + Unix.write_substring fd blob !pos (len - !pos)
    done;
    Unix.fsync fd
  with
  | () ->
      Unix.close fd;
      Unix.rename tmp path
  | exception e ->
      (try Unix.close fd with _ -> ());
      (try Sys.remove tmp with _ -> ());
      raise e

let store t ~name ~key payload =
  if not (locked t (fun () -> t.writes_ok)) then
    locked t (fun () -> t.st.write_skips <- t.st.write_skips + 1)
  else
    let path = entry_path t ~name in
    let blob = encode ~ctx:t.ctx ~key payload in
    let wrote =
      try
        with_lock t (fun () ->
            write_atomic t ~path blob;
            locked t (fun () ->
                t.st.bytes_written <-
                  t.st.bytes_written + String.length blob))
      with
      | Unix.Unix_error (e, _, _) ->
          disable_writes t (Unix.error_message e);
          false
      | Sys_error m ->
          disable_writes t m;
          false
      | _ ->
          disable_writes t "write failed";
          false
    in
    if not wrote then
      locked t (fun () -> t.st.write_skips <- t.st.write_skips + 1)

(* ------------------------------------------------------------------ *)
(* Stats rendering                                                     *)
(* ------------------------------------------------------------------ *)

let pp_stats ppf (s : stats) =
  let rejects =
    Hashtbl.fold (fun k n acc -> (k, n) :: acc) s.rejects []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (k, n) -> Printf.sprintf "%s %d" k n)
  in
  Fmt.pf ppf
    "hits %d, misses %d, rejects [%s], read %d B, wrote %d B, evicted %d, \
     skipped writes %d"
    s.hits s.misses
    (String.concat ", " rejects)
    s.bytes_read s.bytes_written s.evictions s.write_skips
