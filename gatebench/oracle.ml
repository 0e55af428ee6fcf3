(** An independent check of a report from the generated source text.

    The frozen digests in [expected/] cover only the default seeds, so
    every other seed needs a reference that does not come from the
    analyzer under test. The generator writes every function definition
    on one header line, which makes the inventory of interesting
    positions (pointer levels of the parameters and results of defined
    functions, Section 4.4) readable straight from the text. The check
    compares that inventory with the report's position lines, the
    header counts with it, and the verdicts the source forces:
    - a level declared [const] is must-const;
    - a [dst] parameter is always written through, so it is non-const;
    - each edit's position has the verdict {!Edits} says it forces;
    - a generated program has no type errors and no degraded function. *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let count_char c s = String.fold_left (fun n x -> if x = c then n + 1 else n) 0 s

(* the last identifier of a declarator such as "const char *s" *)
let ident_at_end s =
  let s = String.trim s in
  let n = String.length s in
  let i = ref n in
  while !i > 0 && (match s.[!i - 1] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false) do
    decr i
  done;
  String.sub s !i (n - !i)

(* a line that opens a function definition: column-0 "T name(params) {" *)
let definition line =
  match String.index_opt line '(' with
  | Some p
    when String.length line > 0
         && line.[0] <> ' ' && line.[0] <> '/' && line.[0] <> '\t'
         && String.contains_from line p '{'
         && not (String.ends_with ~suffix:";" (String.trim line)) ->
      let close = String.index_from line p ')' in
      let ret = String.sub line 0 p in
      let name = ident_at_end ret in
      let params =
        match String.trim (String.sub line (p + 1) (close - p - 1)) with
        | "" | "void" -> []
        | ps -> String.split_on_char ',' ps
      in
      Some (name, count_char '*' ret, params)
  | _ -> None

type expectation = {
  x_lines : int;
  x_functions : int;
  x_positions : (string, int) Hashtbl.t;  (** position text -> multiplicity *)
  x_total : int;
  x_declared : int;
}

let expect (files : (string * string) list) : expectation =
  let positions = Hashtbl.create 4096 in
  let add p = Hashtbl.replace positions p (1 + Option.value (Hashtbl.find_opt positions p) ~default:0) in
  let lines = ref 0 and functions = ref 0 and total = ref 0 and declared = ref 0 in
  List.iter
    (fun (_, src) ->
      lines := !lines + Cfront.Cprog.count_lines src;
      List.iter
        (fun line ->
          match definition line with
          | None -> ()
          | Some (name, ret_levels, params) ->
              incr functions;
              List.iteri
                (fun i p ->
                  let p = String.trim p in
                  let pname = ident_at_end p in
                  for level = 1 to count_char '*' p do
                    let const = level = 1 && String.starts_with ~prefix:"const " p in
                    if const then incr declared;
                    incr total;
                    add
                      (Printf.sprintf "%s: param %d (%s) level %d%s" name i pname level
                         (if const then " [declared const]" else ""))
                  done)
                params;
              for level = 1 to ret_levels do
                incr total;
                add (Printf.sprintf "%s: return level %d" name level)
              done)
        (String.split_on_char '\n' src))
    files;
  { x_lines = !lines; x_functions = !functions; x_positions = positions; x_total = !total; x_declared = !declared }

let fail fmt = Printf.ksprintf (fun m -> raise (Failure m)) fmt

let int_after prefix s =
  match String.split_on_char ' ' (String.sub s (String.length prefix) (String.length s - String.length prefix)) with
  | w :: _ -> int_of_string (String.map (function ',' | ';' | '(' -> ' ' | c -> c) w |> String.trim)
  | [] -> fail "no number after %S" prefix

(** [check ~name ~known x report] is [Ok ()] when [report] (cqualc's
    stdout for one mode with [--positions]) agrees with the source. *)
let check ~name ~(known : (string * string) list) (x : expectation) (report : string) :
    (unit, string) result =
  try
    let lines = String.split_on_char '\n' report in
    let header, rest =
      match lines with
      | h :: s :: c :: rest -> ((h, s, c), rest)
      | _ -> fail "report has fewer than three lines"
    in
    let h, s, c = header in
    if h <> Printf.sprintf "=== %s (polymorphic) ===" name then fail "unexpected title %S" h;
    if int_after "lines: " s <> x.x_lines then fail "lines: %S, expected %d" s x.x_lines;
    let expect_fun = Printf.sprintf "functions: %d (%d analyzed, 0 degraded)" x.x_functions x.x_functions in
    if not (contains s expect_fun) then fail "%S, expected %S" s expect_fun;
    let prefix = "interesting const positions: " in
    if not (String.starts_with ~prefix c) then fail "unexpected summary line %S" c;
    let total = int_after prefix c in
    let declared = int_after "; " (String.sub c (String.index c ';') (String.length c - String.index c ';')) in
    if total <> x.x_total || declared <> x.x_declared then
      fail "%d total / %d declared positions, expected %d / %d" total declared x.x_total x.x_declared;
    let seen = Hashtbl.create (Hashtbl.length x.x_positions) in
    let n = ref 0 in
    List.iter
      (fun l ->
        if l = "" then ()
        else if not (String.starts_with ~prefix:"  " l) then fail "unexpected line %S" l
        else begin
          incr n;
          let l = String.sub l 2 (String.length l - 2) in
          let cut = String.rindex l ':' in
          let pos = String.sub l 0 cut and verdict = String.sub l (cut + 2) (String.length l - cut - 2) in
          Hashtbl.replace seen pos (1 + Option.value (Hashtbl.find_opt seen pos) ~default:0);
          let must v = if verdict <> v then fail "%s: %s, expected %s" pos verdict v in
          if String.ends_with ~suffix:"[declared const]" pos then must "must-const";
          if contains pos "(dst) level 1" then must "non-const";
          Option.iter must (List.assoc_opt pos known)
        end)
      rest;
    if !n <> x.x_total then fail "%d position lines, expected %d" !n x.x_total;
    Hashtbl.iter
      (fun pos k ->
        if Hashtbl.find_opt seen pos <> Some k then fail "position %S missing from the report" pos)
      x.x_positions;
    List.iter
      (fun (pos, _) -> if not (Hashtbl.mem seen pos) then fail "edited position %S missing" pos)
      known;
    Ok ()
  with
  | Failure m -> Error m
  | Not_found | Invalid_argument _ -> Error "malformed report"
