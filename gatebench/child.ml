(** Child processes measured from outside: a batch run with its stdout
    drained and its peak memory polled, and a daemon driven over its
    stdio JSON-RPC by one closed-loop client. Children run in the
    benchmark's current directory with [TYPEQUAL_JOBS] and [TYPEQUAL_GC]
    removed from their environment, so only the command line configures
    them. *)

module W = Cqual.Wire

let env () =
  Array.of_list
    (List.filter
       (fun kv ->
         not
           (String.starts_with ~prefix:"TYPEQUAL_JOBS=" kv
           || String.starts_with ~prefix:"TYPEQUAL_GC=" kv))
       (Array.to_list (Unix.environment ())))

(** A [Vm*] field of [/proc/<pid>/status] in MiB; [0.] once the process
    is gone. *)
let vm_mb pid field =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all with
  | exception Sys_error _ -> 0.
  | s ->
      List.fold_left
        (fun acc line ->
          if String.starts_with ~prefix:(field ^ ":") line then
            match String.map (function '\t' -> ' ' | c -> c) line |> String.split_on_char ' ' |> List.filter (( <> ) "") with
            | _ :: kb :: _ -> float_of_string kb /. 1024.
            | _ -> acc
          else acc)
        0. (String.split_on_char '\n' s)

type batch = {
  wall_s : float;  (** spawn to exit *)
  status : Unix.process_status;
  stdout : string;
  peak_mb : float;  (** the largest VmHWM seen while it ran *)
}

(** Run [prog args] to completion. The parent drains stdout as it comes
    and samples VmHWM at least every 10 ms until the pipe closes, which
    happens when the child exits. *)
let run_batch prog args : batch =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = Unix.gettimeofday () in
  let pid =
    Unix.create_process_env prog (Array.of_list (prog :: args)) (env ()) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let out = Buffer.create (1 lsl 20) and chunk = Bytes.create 65536 in
  let peak = ref 0. and eof = ref false in
  while not !eof do
    (match Unix.select [ r ] [] [] 0.01 with
    | [], _, _ -> ()
    | _ ->
        let n = Unix.read r chunk 0 (Bytes.length chunk) in
        if n = 0 then eof := true else Buffer.add_subbytes out chunk 0 n);
    peak := Float.max !peak (vm_mb pid "VmHWM")
  done;
  let _, status = Unix.waitpid [] pid in
  let wall_s = Unix.gettimeofday () -. t0 in
  Unix.close r;
  { wall_s; status; stdout = Buffer.contents out; peak_mb = !peak }

(** A running daemon and the request/response lines exchanged with it. *)
type daemon = {
  pid : int;
  to_d : out_channel;
  from_d : in_channel;
  mutable next_id : int;
  mutable log : (string * string) list;  (** (request, response), newest first *)
}

let spawn_daemon prog args : daemon =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env prog (Array.of_list (prog :: args)) (env ()) in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  {
    pid;
    to_d = Unix.out_channel_of_descr in_w;
    from_d = Unix.in_channel_of_descr out_r;
    next_id = 1;
    log = [];
  }

(** One round trip: [Ok result] or [Error message] for an error
    response, a malformed one, or a closed pipe. *)
let call (d : daemon) meth params : (W.json, string) result =
  let id = d.next_id in
  d.next_id <- id + 1;
  let req =
    W.to_string (W.Obj [ ("id", W.num_int id); ("method", W.Str meth); ("params", W.Obj params) ])
  in
  match
    output_string d.to_d req;
    output_char d.to_d '\n';
    flush d.to_d;
    input_line d.from_d
  with
  | exception (End_of_file | Sys_error _) -> Error (meth ^ ": daemon closed its pipe")
  | line -> (
      d.log <- (req, line) :: d.log;
      match W.of_string line with
      | Error m -> Error (meth ^ ": unparsable response: " ^ m)
      | Ok j -> (
          if W.mem "id" j <> Some (W.num_int id) then Error (meth ^ ": response id mismatch")
          else
            match (W.mem "result" j, W.mem "error" j) with
            | Some r, None -> Ok r
            | _, Some e -> Error (meth ^ ": " ^ Option.value (W.mem_string "message" e) ~default:"error")
            | None, None -> Error (meth ^ ": response has no result")))

(** Ask the daemon to shut down and wait for it; kill it if it does not
    answer. *)
let stop (d : daemon) =
  (match call d "shutdown" [] with Ok _ -> () | Error _ -> (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ()));
  (try close_out d.to_d with Sys_error _ -> ());
  ignore (Unix.waitpid [] d.pid : int * Unix.process_status);
  close_in_noerr d.from_d
