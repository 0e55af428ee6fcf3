(** The seeded edit stream of the daemon-edit workload.

    Step [k] (from 1) rewrites one seeded [mod_*] unit from its original
    text. Odd steps append a fresh leaf function [bench_edit_k], which
    leaves every existing signature unchanged; even steps write through
    the [char *s] first parameter of a seeded function, which changes
    that function's signature so its dependents re-infer. Inference of a
    function depends only on its callees' signatures, so the stream
    covers both an edit whose cone is one function and one whose cone
    spreads. Every step's text carries its step number, so no state ever
    repeats: the session's content-addressed memos can never serve a step
    whole from an earlier one. Neither mutation moves an existing line or column, so
    position keys taken before the first edit stay valid. *)

type t = {
  unit_name : string;
  source : string;  (** the unit's whole new text *)
  key : string;  (** stable position key of the parameter the edit decides *)
  position : string;  (** that position as the report prints it *)
  verdict : string;  (** the verdict the edit forces there *)
}

(* a definition header whose first parameter is exactly [char *s] *)
let writable_header line =
  String.length line > 0
  && line.[0] <> ' '
  && (match String.index_opt line '(' with
     | Some p ->
         let rest = String.sub line p (String.length line - p) in
         String.length rest > 8
         && String.sub rest 0 8 = "(char *s"
         && (rest.[8] = ',' || rest.[8] = ')')
         && String.contains rest '{'
     | None -> false)

let make ~seed (files : (string * string) list) step : t =
  let rng = Cbench.Rng.create ((seed * 1_000_003) + step) in
  let mods =
    List.filter (fun (n, _) -> String.starts_with ~prefix:"mod_" n) files
  in
  if mods = [] then invalid_arg "Edits.make: no mod_* unit";
  let unit_name, src = Cbench.Rng.pick_list rng mods in
  if step mod 2 = 1 then begin
    let header = Printf.sprintf "int bench_edit_%d(char *s)" step in
    let sep = if String.ends_with ~suffix:"\n" src then "" else "\n" in
    let line = Cfront.Cprog.count_lines (src ^ sep) in
    {
      unit_name;
      source = Printf.sprintf "%s%s%s { return *s; }\n" src sep header;
      key = Printf.sprintf "%s:%d:%d@1" unit_name line (String.length header - 1);
      position = Printf.sprintf "bench_edit_%d: param 0 (s) level 1" step;
      verdict = "could-be-const";
    }
  end
  else begin
    let lines = Array.of_list (String.split_on_char '\n' src) in
    let candidates =
      List.filter (fun i -> writable_header lines.(i))
        (List.init (Array.length lines) Fun.id)
    in
    if candidates = [] then invalid_arg ("Edits.make: no (char *s) header in " ^ unit_name);
    let i = Cbench.Rng.pick_list rng candidates in
    let line = lines.(i) in
    let paren = String.index line '(' in
    let brace = String.index line '{' in
    lines.(i) <-
      Printf.sprintf "%s *s = 0; /* e%d */%s"
        (String.sub line 0 (brace + 1))
        step
        (String.sub line (brace + 1) (String.length line - brace - 1));
    let fname =
      let start = match String.rindex_from_opt line paren ' ' with Some j -> j + 1 | None -> 0 in
      let start = if line.[start] = '*' then start + 1 else start in
      String.sub line start (paren - start)
    in
    {
      unit_name;
      source = String.concat "\n" (Array.to_list lines);
      key = Printf.sprintf "%s:%d:%d@1" unit_name (i + 1) (paren + 8);
      position = Printf.sprintf "%s: param 0 (s) level 1" fname;
      verdict = "non-const";
    }
  end

(** The project after applying [edits] in order: each unit holds its
    latest edit, or its original text. *)
let apply (files : (string * string) list) (edits : t list) =
  List.map
    (fun (n, src) ->
      match List.rev (List.filter (fun e -> e.unit_name = n) edits) with
      | e :: _ -> (n, e.source)
      | [] -> (n, src))
    files

(** The verdicts the applied edits force, as (position, verdict) pairs,
    counting only each unit's latest edit. *)
let known (edits : t list) =
  let latest = Hashtbl.create 8 in
  List.iter (fun e -> Hashtbl.replace latest e.unit_name e) edits;
  Hashtbl.fold (fun _ e acc -> (e.position, e.verdict) :: acc) latest []
