(* typequald: the persistent analysis daemon. Loads a project into a
   Session and serves position-level queries over newline-delimited
   JSON-RPC — on stdin/stdout by default, or on a Unix socket with
   --socket (any number of concurrent clients). Across edits, clean
   units are never re-parsed, and each analyzed mode keeps its store:
   the next run re-infers only the tasks (SCCs, or mono bodies) whose
   definitions changed or whose callees' summaries changed, then
   deletes the dead tasks' constraints from the solved store in place,
   compacting its constraint log once that is more dead than live. A
   change to globals, types or prototypes, or a store with more dead
   variables than live ones, re-analyzes in full; the "stats" method
   reports which.

   Methods (params in braces; "mode" is always optional, defaulting to
   --mode): units, update {name, source}, remove {name}, run {mode},
   positions {mode}, classify {key, mode}, explain {key, mode},
   whatif {key, qual, mode}, diagnostics, render {mode, name, positions,
   stats}, stats, shutdown. Position keys are unit:line:col@level or
   unit:fun:pN@level / unit:fun:ret@level (see DESIGN.md).

   Requests are answered one at a time, in arrival order; a whatif is a
   read-only speculation over the warm solved store.

   --client PATH turns the binary into a line pump for CI: stdin lines
   go to the socket, response lines to stdout. *)

open Cqual
module U = Unix

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let verdict_str v = Fmt.str "%a" Report.pp_verdict v

let json_of_position key (p : Report.position) v : Wire.json =
  Wire.Obj
    [
      ("key", Wire.Str key);
      ("fun", Wire.Str p.Report.p_fun);
      ("where", Wire.Str (Fmt.str "%a" Report.pp_where p.Report.p_where));
      ("level", Wire.num_int p.Report.p_level);
      ("declared", Wire.Bool p.Report.p_declared);
      ("unit", Wire.Str p.Report.p_unit);
      ("line", Wire.num_int p.Report.p_line);
      ("col", Wire.num_int p.Report.p_col);
      ("verdict", Wire.Str (verdict_str v));
      ( "levels",
        match p.Report.p_levels with
        | None -> Wire.Null
        | Some (lo, hi) -> Wire.Arr [ Wire.Str lo; Wire.Str hi ] );
    ]

let json_of_diag (d : Cfront.Diag.t) : Wire.json =
  Wire.Obj
    [
      ("severity", Wire.Str (Fmt.str "%a" Cfront.Diag.pp_severity
                               d.Cfront.Diag.d_severity));
      ("code", Wire.Str d.Cfront.Diag.d_code);
      ( "unit",
        match d.Cfront.Diag.d_unit with
        | Some u -> Wire.Str u
        | None -> Wire.Null );
      ("line", Wire.num_int d.Cfront.Diag.d_span.Cfront.Diag.sl);
      ("message", Wire.Str d.Cfront.Diag.d_message);
      ("rendered", Wire.Str (Fmt.str "%a" Cfront.Diag.pp d));
    ]

let mode_of_params params : (Analysis.mode option, string) result =
  match Wire.mem_string "mode" params with
  | None -> Ok None
  | Some "mono" -> Ok (Some Analysis.Mono)
  | Some "poly" -> Ok (Some Analysis.Poly)
  | Some "polyrec" -> Ok (Some Analysis.Polyrec)
  | Some m -> Error (Printf.sprintf "unknown mode %S" m)

let json_of_run mode (r : Session.run) : Wire.json =
  Wire.Obj
    [
      ("mode", Wire.Str (Session.mode_name mode));
      ("lines", Wire.num_int r.Session.lines);
      ("functions", Wire.num_int r.Session.n_functions);
      ("variables", Wire.num_int r.Session.n_constraints);
      ("total", Wire.num_int r.Session.results.Report.total);
      ("declared", Wire.num_int r.Session.results.Report.declared);
      ("possible", Wire.num_int r.Session.results.Report.possible);
      ("must", Wire.num_int r.Session.results.Report.must);
      ("type_errors", Wire.num_int r.Session.results.Report.type_errors);
      ("compile_s", Wire.Num r.Session.timing.Session.t_compile);
      ("analyze_s", Wire.Num r.Session.timing.Session.t_analysis);
    ]

let json_of_whatif (w : Session.whatif_result) : Wire.json =
  Wire.Obj
    [
      ("key", Wire.Str w.Session.w_key);
      ("qual", Wire.Str w.Session.w_qual);
      ( "changed",
        Wire.Arr
          (List.map
             (fun (c : Session.whatif_change) ->
               Wire.Obj
                 [
                   ("key", Wire.Str c.Session.wc_key);
                   ("fun", Wire.Str c.Session.wc_fun);
                   ("before", Wire.Str (verdict_str c.Session.wc_before));
                   ("after", Wire.Str (verdict_str c.Session.wc_after));
                 ])
             w.Session.w_changed) );
      ("errors_before", Wire.num_int w.Session.w_errors_before);
      ("errors_after", Wire.num_int w.Session.w_errors_after);
    ]

(* What one request is answered with: a result, an error, or a
   shutdown. *)
type answer = Ready of Wire.json | Failed of string | Quit

let answer (session : Session.t) (rq : Wire.request) : answer =
  let params = rq.Wire.rq_params in
  let with_mode k =
    match mode_of_params params with
    | Error m -> Failed m
    | Ok mode -> k mode
  in
  match rq.Wire.rq_method with
  | "units" ->
      Ready
        (Wire.Obj
           [
             ( "units",
               Wire.Arr
                 (List.map (fun u -> Wire.Str u) (Session.units session)) );
           ])
  | "update" -> (
      match
        (Wire.mem_string "name" params, Wire.mem_string "source" params)
      with
      | Some name, Some src ->
          let status =
            match Session.update_unit session name src with
            | `Added -> "added"
            | `Updated -> "updated"
            | `Unchanged -> "unchanged"
          in
          Ready (Wire.Obj [ ("status", Wire.Str status) ])
      | _ -> Failed "update wants {name, source}")
  | "remove" -> (
      match Wire.mem_string "name" params with
      | Some name ->
          Ready
            (Wire.Obj
               [ ("removed", Wire.Bool (Session.remove_unit session name)) ])
      | None -> Failed "remove wants {name}")
  | "run" ->
      with_mode (fun mode ->
          let r = Session.run ?mode session in
          let m = Option.value mode ~default:(Session.default_mode session) in
          Ready (json_of_run m r))
  | "positions" ->
      with_mode (fun mode ->
          Ready
            (Wire.Obj
               [
                 ( "positions",
                   Wire.Arr
                     (List.map
                        (fun (k, p, v) -> json_of_position k p v)
                        (Session.positions ?mode session)) );
               ]))
  | "classify" ->
      with_mode (fun mode ->
          match Wire.mem_string "key" params with
          | None -> Failed "classify wants {key}"
          | Some key -> (
              match Session.classify ?mode session key with
              | Some (p, v) -> Ready (json_of_position key p v)
              | None -> Failed (Printf.sprintf "unknown position key %S" key)))
  | "explain" ->
      with_mode (fun mode ->
          match Wire.mem_string "key" params with
          | None -> Failed "explain wants {key}"
          | Some key -> (
              match Session.explain ?mode session key with
              | Error m -> Failed m
              | Ok (p, v, expl) ->
                  Ready
                    (Wire.Obj
                       [
                         ("position", json_of_position key p v);
                         ( "explanation",
                           match expl with
                           | Some e -> Wire.Str e
                           | None -> Wire.Null );
                       ])))
  | "whatif" ->
      with_mode (fun mode ->
          match
            (Wire.mem_string "key" params, Wire.mem_string "qual" params)
          with
          | Some key, Some qual -> (
              match Session.whatif ?mode session ~qual key with
              | Error m -> Failed m
              | Ok w -> Ready (json_of_whatif w))
          | _ -> Failed "whatif wants {key, qual}")
  | "diagnostics" ->
      Ready
        (Wire.Obj
           [
             ( "diagnostics",
               Wire.Arr (List.map json_of_diag (Session.diagnostics session)) );
           ])
  | "render" ->
      with_mode (fun mode ->
          let name =
            Option.value (Wire.mem_string "name" params) ~default:"session"
          in
          let positions = Wire.mem_bool "positions" params in
          let stats = Wire.mem_bool "stats" params in
          Ready
            (Wire.Obj
               [
                 ( "text",
                   Wire.Str
                     (Session.render ?mode ?stats ?positions ~name session)
                 );
               ]))
  | "stats" -> Ready (Session.stats_json (Session.stats session))
  | "shutdown" -> Quit
  | m -> Failed (Printf.sprintf "unknown method %S" m)

(* ------------------------------------------------------------------ *)
(* Event loop                                                          *)
(* ------------------------------------------------------------------ *)

(* one connected client: its fd and the unterminated tail of its input *)
type client = {
  fd : U.file_descr;
  inbuf : Buffer.t;
  mutable dead : bool;
}

(* [s], then a newline, each written straight from its string: a reply
   can be megabytes, so it is not copied to append the newline *)
let write_line fd s =
  let rec write s off =
    let n = String.length s in
    if off < n then write s (off + U.write_substring fd s off (n - off))
  in
  write s 0;
  write "\n" 0

(* The complete lines that the first [n] bytes of [buf], just read,
   finish; the unterminated rest is kept in the client's buffer. Only the
   new bytes are scanned and each line is copied out once, so a line
   costs time linear in its length however many reads it spans. *)
let take_lines (c : client) buf n : string list =
  let rec newline i = if i = n || Bytes.get buf i = '\n' then i else newline (i + 1) in
  let rec go start acc =
    let i = newline start in
    if i = n then begin
      Buffer.add_subbytes c.inbuf buf start (n - start);
      List.rev acc
    end
    else
      let line =
        if Buffer.length c.inbuf = 0 then Bytes.sub_string buf start (i - start)
        else begin
          Buffer.add_subbytes c.inbuf buf start (i - start);
          let l = Buffer.contents c.inbuf in
          Buffer.reset c.inbuf;
          l
        end
      in
      go (i + 1) (line :: acc)
  in
  go 0 []

(* The major GC is paced by allocation. A warm rerun on
   midi-project-sim allocates about 23 MiB and sends about 8 MiB of it
   to the major heap (the edited unit is spliced, so only its changed
   declarations are lexed and parsed, and the link patches the last
   linked program; re-parsing the unit whole sent about 20 MiB), far
   less than a full re-analysis. Left to its pacing, the
   heap grew to near three times its live data. So after every batch
   that ran a warm rerun the daemon collects in full whenever the heap
   has doubled since the last full collection left it, or when no full
   collection has measured it yet: the heap stays within about twice
   its live data, for one collection (about 0.2 s on that corpus) every
   few edits (EXPERIMENTS.md "Sublinear warm rebuild"). *)
let heap_floor = ref 0

let bound_heap () =
  let heap () = (Gc.quick_stat ()).Gc.heap_words in
  if !heap_floor = 0 || heap () > 2 * !heap_floor then begin
    Gc.full_major ();
    heap_floor := heap ()
  end

(* Answer one select-round's requests in arrival order, writing each
   response as it is computed. Returns [true] once a shutdown was
   answered. *)
let process session (batch : (client * Wire.request) list) : bool =
  let rebuild0 = (Session.stats session).Session.ss_last_rebuild in
  let quit = ref false in
  List.iter
    (fun (c, rq) ->
      let id = rq.Wire.rq_id in
      let line =
        match
          try answer session rq with
          | Session.Error m -> Failed m
          | Cfront.Cprog.Frontend_error m -> Failed ("frontend: " ^ m)
        with
        | Ready j -> Wire.response_ok ~id j
        | Failed m -> Wire.response_error ~id m
        | Quit ->
            quit := true;
            Wire.response_ok ~id (Wire.Obj [ ("ok", Wire.Bool true) ])
      in
      if not c.dead then
        try write_line c.fd line
        with U.Unix_error ((U.EPIPE | U.ECONNRESET | U.EBADF), _, _) ->
          c.dead <- true)
    batch;
  (match (Session.stats session).Session.ss_last_rebuild with
  | Some rb when (match rebuild0 with Some rb0 -> rb != rb0 | None -> true)
                 && not rb.Session.rb_full ->
      bound_heap ()
  | _ -> ());
  !quit

let serve session ~(listen : U.file_descr option)
    ~(stdio : (U.file_descr * U.file_descr) option) =
  (ignore : Sys.signal_behavior -> unit)
    (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let clients : client list ref = ref [] in
  (match stdio with
  | Some (fd_in, _) ->
      clients := [ { fd = fd_in; inbuf = Buffer.create 256; dead = false } ]
  | None -> ());
  let out_fd_of (c : client) =
    match stdio with
    | Some (fd_in, fd_out) when c.fd = fd_in -> fd_out
    | _ -> c.fd
  in
  let running = ref true in
  while !running do
    let fds =
      (match listen with Some l -> [ l ] | None -> [])
      @ List.map (fun c -> c.fd) (List.filter (fun c -> not c.dead) !clients)
    in
    if fds = [] then running := false
    else begin
      let readable, _, _ =
        try U.select fds [] [] (-1.0)
        with U.Unix_error (U.EINTR, _, _) -> ([], [], [])
      in
      (* accept new connections *)
      (match listen with
      | Some l when List.mem l readable ->
          let fd, _ = U.accept l in
          clients :=
            !clients @ [ { fd; inbuf = Buffer.create 256; dead = false } ]
      | _ -> ());
      (* drain readable clients, frame lines, parse requests *)
      let batch = ref [] in
      List.iter
        (fun c ->
          if (not c.dead) && List.mem c.fd readable then begin
            let buf = Bytes.create 65536 in
            let n =
              try U.read c.fd buf 0 (Bytes.length buf)
              with U.Unix_error ((U.ECONNRESET | U.EBADF), _, _) -> 0
            in
            if n = 0 then begin
              c.dead <- true;
              (* EOF on stdin ends a stdio daemon *)
              if stdio <> None then running := false
            end
            else
              List.iter
                (fun line ->
                  let line = String.trim line in
                  if line <> "" then
                    match Wire.parse_request line with
                    | Ok rq -> batch := (c, rq) :: !batch
                    | Error m ->
                        let resp =
                          Wire.response_error ~id:Wire.Null
                            ("bad request: " ^ m)
                        in
                        (try write_line (out_fd_of c) resp
                         with U.Unix_error (_, _, _) -> c.dead <- true))
                (take_lines c buf n)
          end)
        !clients;
      let batch =
        List.rev_map (fun (c, rq) -> ({ c with fd = out_fd_of c }, rq)) !batch
      in
      if batch <> [] && process session batch then running := false;
      (* reap dead clients *)
      List.iter
        (fun c ->
          if c.dead && stdio = None then try U.close c.fd with _ -> ())
        !clients;
      clients := List.filter (fun c -> not c.dead) !clients
    end
  done

(* ------------------------------------------------------------------ *)
(* Client mode (a line pump, for CI and scripting)                     *)
(* ------------------------------------------------------------------ *)

let run_client path =
  let fd = U.socket U.PF_UNIX U.SOCK_STREAM 0 in
  (try U.connect fd (U.ADDR_UNIX path)
   with U.Unix_error (e, _, _) ->
     Fmt.epr "error: cannot connect to %s: %s@." path (U.error_message e);
     exit 2);
  let ic = U.in_channel_of_descr fd in
  (try
     let rec pump () =
       match In_channel.input_line In_channel.stdin with
       | None -> ()
       | Some line ->
           if String.trim line <> "" then begin
             write_line fd line;
             match In_channel.input_line ic with
             | Some resp ->
                 print_endline resp;
                 pump ()
             | None -> ()
           end
           else pump ()
     in
     pump ()
   with End_of_file -> ());
  (try U.close fd with _ -> ());
  0

(* ------------------------------------------------------------------ *)
(* Startup                                                             *)
(* ------------------------------------------------------------------ *)

let rules_of ~taint ~lattice ~qual =
  match lattice with
  | Some path -> (
      match Analysis.lattice_rules_of_file ?qual path with
      | Ok rules -> rules
      | Error m ->
          Fmt.epr "%s@." m;
          exit 2)
  | None -> if taint then Analysis.taint_rules else Analysis.const_rules

let load_units files bench =
  match (files, bench) with
  | _ :: _, _ ->
      List.map
        (fun f -> (f, In_channel.with_open_bin f In_channel.input_all))
        files
  | [], Some b -> (
      match Cbench.Suite.units_of_name b with
      | Some units -> units
      | None ->
          Fmt.epr "unknown benchmark %s@." b;
          exit 2)
  | [], None -> []

let main files bench mode _jobs max_errors no_compact taint lattice qual
    socket client =
  match client with
  | Some path -> run_client path
  | None -> (
      let rules = rules_of ~taint ~lattice ~qual in
      let units = load_units files bench in
      let session =
        Session.create ~rules ~mode ~max_errors ~compact:(not no_compact) units
      in
      match socket with
      | None ->
          serve session ~listen:None
            ~stdio:(Some (U.stdin, U.stdout));
          0
      | Some path ->
          (try U.unlink path with U.Unix_error _ -> ());
          let l = U.socket U.PF_UNIX U.SOCK_STREAM 0 in
          (try
             U.bind l (U.ADDR_UNIX path);
             U.listen l 64
           with U.Unix_error (e, _, _) ->
             Fmt.epr "error: cannot listen on %s: %s@." path
               (U.error_message e);
             exit 2);
          Fun.protect
            ~finally:(fun () ->
              (try U.close l with _ -> ());
              try U.unlink path with U.Unix_error _ -> ())
            (fun () -> serve session ~listen:(Some l) ~stdio:None);
          0)

open Cmdliner

let files =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"FILE" ~doc:"C translation units to load into the session")

let bench =
  Arg.(
    value
    & opt (some string) None
    & info [ "bench" ] ~docv:"NAME"
        ~doc:"Load an embedded or synthetic benchmark instead of files")

let mode =
  let mode_conv =
    Arg.enum
      [
        ("mono", Analysis.Mono);
        ("poly", Analysis.Poly);
        ("polyrec", Analysis.Polyrec);
      ]
  in
  Arg.(
    value
    & opt mode_conv Analysis.Poly
    & info [ "mode" ] ~docv:"MODE"
        ~doc:"Default inference mode for queries (mono|poly|polyrec)")

(* accepted and ignored because gatebench passes it; a later benchmark
   revision drops it *)
let jobs =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Accepted for compatibility and ignored: requests are answered serially.")

let max_errors =
  Arg.(
    value & opt int 20
    & info [ "max-errors" ] ~docv:"N"
        ~doc:"Stop collecting lexer/parser diagnostics after $(docv)")

let no_compact =
  Arg.(
    value & flag
    & info [ "no-compact" ]
        ~doc:"Disable scheme compaction (the ablation baseline)")

let taint =
  Arg.(
    value & flag
    & info [ "taint" ] ~doc:"Serve the taint rules instead of const")

let lattice =
  Arg.(
    value
    & opt (some string) None
    & info [ "lattice" ] ~docv:"FILE"
        ~doc:"Serve a user-defined qualifier lattice (CQual-style config)")

let qual =
  Arg.(
    value
    & opt (some string) None
    & info [ "qual" ] ~docv:"NAME"
        ~doc:"With --lattice: the qualifier whose verdicts are reported")

let socket =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Serve on a Unix socket at $(docv) (any number of concurrent \
           clients) instead of stdin/stdout")

let client =
  Arg.(
    value
    & opt (some string) None
    & info [ "client" ] ~docv:"PATH"
        ~doc:
          "Connect to a daemon at Unix socket $(docv) and pump stdin lines \
           to it, printing responses — for scripting and CI")

let cmd =
  let doc = "persistent const-inference daemon (JSON-RPC over stdio or a Unix socket)" in
  Cmd.v
    (Cmd.info "typequald" ~doc)
    Term.(
      const main $ files $ bench $ mode $ jobs $ max_errors $ no_compact
      $ taint $ lattice $ qual $ socket $ client)

let () =
  exit
    (try
       match Cmd.eval' ~catch:false cmd with (124 | 125) -> 2 | code -> code
     with
    | Session.Error m | Cfront.Cprog.Frontend_error m ->
        Fmt.epr "error: %s@." m;
        2
    | Failure m ->
        Fmt.epr "error: %s@." m;
        2
    | Sys_error m ->
        Fmt.epr "error: %s@." m;
        2)
