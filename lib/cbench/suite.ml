(** The benchmark suite of Table 1, as synthetic stand-ins.

    The paper analyzed six real C packages; we cannot ship them, so each
    row is regenerated deterministically at the same line count with the
    generator (see DESIGN.md, Substitutions). Names carry a [-sim] suffix
    to make the substitution explicit in all output. *)

type bench = {
  b_name : string;
  b_description : string;
  b_lines : int;  (** the paper's Table 1 line count *)
  b_seed : int;
}

(** Table 1. *)
let table1 =
  [
    {
      b_name = "woman-3.0a-sim";
      b_description = "Replacement for man package";
      b_lines = 1496;
      b_seed = 0x30a;
    }
    ;
    {
      b_name = "patch-2.5-sim";
      b_description = "Apply a diff file to an original";
      b_lines = 5303;
      b_seed = 0x25;
    };
    {
      b_name = "m4-1.4-sim";
      b_description = "Unix macro preprocessor";
      b_lines = 7741;
      b_seed = 0x14;
    };
    {
      b_name = "diffutils-2.7-sim";
      b_description = "Collection of utilities for diffing files";
      b_lines = 8741;
      b_seed = 0x27;
    };
    {
      b_name = "ssh-1.2.26-sim";
      b_description = "Secure shell";
      b_lines = 18620;
      b_seed = 0x1226;
    };
    {
      b_name = "uucp-1.04-sim";
      b_description = "Unix to unix copy package";
      b_lines = 36913;
      b_seed = 0x104;
    };
  ]

let source_of (b : bench) : string =
  Gen.generate ~seed:b.b_seed ~target_lines:b.b_lines ()

(** A reduced suite for quick test runs. *)
let small =
  [
    { b_name = "tiny-sim"; b_description = "tiny"; b_lines = 300; b_seed = 42 };
    {
      b_name = "small-sim";
      b_description = "small";
      b_lines = 1200;
      b_seed = 43;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Scale corpora (multi-file projects)                                 *)
(* ------------------------------------------------------------------ *)

(** The million-line-push workloads: deterministic multi-file projects
    with cross-file call graphs and mutual-recursion rings spanning every
    file (see {!Gen.generate_project}). [scale] is [cqualc --bench
    mega-project-sim]; gatebench's batch-mega generates the same shape at
    300 kloc. The line counts are targets — the realized count is
    whatever the generator emits at or just above the target. *)
let scale =
  [
    {
      b_name = "mega-project-sim";
      b_description = "1M+ line multi-file project";
      b_lines = 1_000_000;
      b_seed = 0xA11;
    };
  ]

(** The reduced scale corpus (~100 kloc): what the CI scale-smoke and
    perf-smoke jobs and the session suite's warm daemon case run. *)
let scale_smoke =
  [
    {
      b_name = "midi-project-sim";
      b_description = "100 kloc multi-file project";
      b_lines = 100_000;
      b_seed = 0xA12;
    };
  ]

let project_of (b : bench) : (string * string) list =
  Gen.generate_project ~seed:b.b_seed ~target_lines:b.b_lines ()

(** The units [--bench NAME] analyzes: an embedded program
    ({!Programs.all}, or the multi-file [miniproject]), a Table 1 row
    (one generated file) or a scale corpus (a generated project). [None]
    for an unknown name. *)
let units_of_name name : (string * string) list option =
  match List.assoc_opt name Programs.all with
  | Some src -> Some [ (name, src) ]
  | None when name = "miniproject" -> Some Programs.miniproject
  | None -> (
      let find l = List.find_opt (fun b -> b.b_name = name) l in
      match find table1 with
      | Some b -> Some [ (name, source_of b) ]
      | None -> Option.map project_of (find (scale @ scale_smoke)))
