(** Deterministic synthetic C benchmark generator.

    The paper's benchmarks (Table 1) are real 1990s C packages we cannot
    ship; this generator emits well-formed mini-C programs with the same
    statistical shape, so the Table 2 / Figure 6 experiment exercises the
    same constraint-graph structure (see DESIGN.md, Substitutions):

    - string/buffer utility functions taking pointer parameters;
    - a fraction of read-only pointer parameters annotated [const] ("we
      purposely selected programs that show a significant effort to use
      const");
    - functions that write through their pointer parameters (these can
      never be const);
    - shared id-like helpers called from both writing and reading contexts
      — the monomorphic system conflates their call sites, the polymorphic
      system separates them (Section 4.3), which is where the Poly column
      exceeds Mono;
    - library calls (const-declared and not), globals, structs with shared
      field declarations, typedefs, casts, varargs, recursion and mutual
      recursion.

    The mix fractions below are tuned so the generated suite lands in the
    paper's reported ranges (Declared < Mono < Poly < Total, Poly ≈ 5-16%
    over Mono). *)

type profile = {
  pct_writer : int;  (** functions that write through a pointer param *)
  pct_helper_reader : int;
      (** read-only functions that route a param through a shared helper
          (poisoned under mono, free under poly) *)
  pct_declared_const : int;  (** read-only params annotated const *)
  pct_struct_fn : int;  (** functions operating on a struct *)
  helpers : int;  (** number of shared id-like helpers *)
}

let default_profile =
  {
    pct_writer = 28;
    pct_helper_reader = 7;
    pct_declared_const = 55;
    pct_struct_fn = 12;
    helpers = 5;
  }

let prelude =
  {|/* synthetic benchmark: generated, deterministic */
int printf(const char *fmt, ...);
int strlen(const char *s);
char *strcpy(char *dst, const char *src);
char *strchr(const char *s, int c);
int strcmp(const char *a, const char *b);
void *malloc(int n);
void free(void *p);
char *gets(char *buf);
int atoi(const char *s);

struct entry { char *key; char *value; int count; };
struct node { int tag; struct node *next; char *payload; };
typedef char *string;
typedef struct entry *entry_ptr;

char *g_buffer;
const char *g_version = "3.0";
int g_count;
struct entry g_table[16];
|}

(* every generated function records how later functions may call it: a
   template producing a correctly-aritied call, given an optional pointer
   argument to pass *)
type gfun = { name : string; call : string option -> string }

let generate ?(profile = default_profile) ~seed ~target_lines () : string =
  let rng = Rng.create seed in
  let buf = Buffer.create (target_lines * 32) in
  Buffer.add_string buf prelude;
  let lines = ref (List.length (String.split_on_char '\n' prelude)) in
  let out fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n';
        String.iter (fun c -> if c = '\n' then incr lines) s;
        incr lines)
      fmt
  in
  let funs : gfun list ref = ref [] in
  let n = ref 0 in
  let fresh prefix =
    incr n;
    Printf.sprintf "%s_%d" prefix !n
  in
  (* shared helpers: id-like functions whose parameter flows to the result,
     the engine of the mono/poly difference *)
  let helpers = ref [] in
  for _ = 1 to profile.helpers do
    let name = fresh "find" in
    (match Rng.int rng 3 with
    | 0 ->
        out "char *%s(char *s) { return s; }" name;
        out ""
    | 1 ->
        out "char *%s(char *s, int n) {" name;
        out "  while (n > 0) { s++; n--; }";
        out "  return s;";
        out "}";
        out ""
    | _ ->
        out "char *%s(char *s) {" name;
        out "  if (*s == 0) return s;";
        out "  return %s(s + 1);" name;
        (* recursive *)
        out "}";
        out "");
    helpers := name :: !helpers
  done;
  (* a mutually recursive pair, as real parsers have *)
  let even = fresh "even" and odd = fresh "odd" in
  out "int %s(int n);" odd;
  out "int %s(int n) { if (n == 0) return 1; return %s(n - 1); }" even odd;
  out "int %s(int n) { if (n == 0) return 0; return %s(n - 1); }" odd even;
  out "";
  let call_existing ~arg =
    match !funs with
    | [] -> Printf.sprintf "g_count += %d;" (Rng.int rng 100)
    | fs ->
        let f = Rng.pick_list rng fs in
        f.call arg
  in
  while !lines < target_lines do
    let kind =
      let k = Rng.int rng 100 in
      if k < profile.pct_writer then `Writer
      else if k < profile.pct_writer + profile.pct_helper_reader then
        `HelperReader
      else if
        k < profile.pct_writer + profile.pct_helper_reader + profile.pct_struct_fn
      then `Struct
      else `Reader
    in
    match kind with
    | `Writer ->
        (* writes through its pointer parameter: can never be const *)
        let name = fresh "fill" in
        out "void %s(char *dst, int n) {" name;
        out "  int i;";
        out "  for (i = 0; i < n; i++) {";
        out "    dst[i] = 'a' + (i %% 26);";
        out "  }";
        (if Rng.percent rng 40 then out "  dst[n] = 0;");
        (if Rng.percent rng 30 then out "  %s" (call_existing ~arg:(Some "dst")));
        out "}";
        out "";
        let call arg =
          Printf.sprintf "%s(%s, %d);" name
            (Option.value arg ~default:"g_buffer")
            (Rng.int rng 32)
        in
        funs := { name; call } :: !funs
    | `HelperReader ->
        (* routes its parameter through a shared helper but never writes:
           poisoned by monomorphic analysis, clean under polymorphism *)
        let name = fresh "scan" in
        let h = Rng.pick_list rng !helpers in
        out "int %s(char *msg) {" name;
        (match Rng.int rng 2 with
        | 0 -> out "  char *t = %s(msg);" h
        | _ -> out "  char *t; t = %s(msg);" h);
        out "  if (t == 0) return -1;";
        out "  return *t;";
        out "}";
        out "";
        let call arg =
          Printf.sprintf "%s(%s);" name (Option.value arg ~default:"g_buffer")
        in
        funs := { name; call } :: !funs
    | `Struct ->
        let name = fresh "rec" in
        (match Rng.int rng 2 with
        | 0 ->
            out "int %s(struct entry *e) {" name;
            out "  if (e->count > 0) return e->count;";
            out "  return strlen(e->key);";
            out "}"
        | _ ->
            out "void %s(struct node *n, int tag) {" name;
            out "  while (n) {";
            out "    n->tag = tag;";
            out "    n = n->next;";
            out "  }";
            out "}");
        out ""
    | `Reader ->
        (* pure reader; a fraction declare const ("significant effort") *)
        let name = fresh "count" in
        let declared = Rng.percent rng profile.pct_declared_const in
        let q = if declared then "const " else "" in
        let variant = Rng.int rng 4 in
        (match variant with
        | 0 ->
            out "int %s(%schar *s) {" name q;
            out "  int n = 0;";
            out "  while (*s) { if (*s == ' ') n++; s++; }";
            out "  return n;";
            out "}"
        | 1 ->
            out "int %s(%schar *s, %schar *t) {" name q q;
            out "  while (*s && *t && *s == *t) { s++; t++; }";
            out "  return *s - *t;";
            out "}"
        | 2 ->
            out "int %s(%schar *s) {" name q;
            out "  int h = 0;";
            out "  while (*s) { h = h * 31 + *s; s++; }";
            out "  if (h < 0) h = -h;";
            out "  %s" (call_existing ~arg:None);
            out "  return h %% 97;";
            out "}"
        | _ ->
            out "int %s(%schar *s, int k) {" name q;
            out "  int i = 0;";
            out "  while (s[i]) {";
            out "    if (s[i] == k) return i;";
            out "    i++;";
            out "  }";
            out "  if (%s(i)) return -2;" even;
            out "  return -1;";
            out "}");
        out "";
        let call arg =
          let a = Option.value arg ~default:"g_buffer" in
          match variant with
          | 1 -> Printf.sprintf "%s(%s, g_version);" name a
          | 3 -> Printf.sprintf "%s(%s, %d);" name a (Rng.int rng 26)
          | _ -> Printf.sprintf "%s(%s);" name a
        in
        funs := { name; call } :: !funs
  done;
  (* a main so every helper has writing and reading callers *)
  out "int main(int argc, char **argv) {";
  out "  char local[64];";
  List.iter
    (fun h ->
      out "  { char *p; p = %s(local); *p = 'x'; }" h;
      out "  { %s(g_version); }" "strlen")
    !helpers;
  out "  printf(\"%%d\\n\", g_count);";
  out "  return 0;";
  out "}";
  Buffer.contents buf

let chains_prelude =
  {|/* synthetic chains benchmark: generated, deterministic */
int printf(const char *fmt, ...);
int strlen(const char *s);
char *g_buffer;
|}

(** Deep chains of tiny polymorphic helpers — the scheme-compaction
    stress workload. Each chain is [depth] one-line pass-through functions
    [char *step_C_K(char *s) { return step_C_(K-1)(s); }]: without
    compaction the scheme of level K contains a full instance of the
    level-(K-1) scheme, so instantiation work (and variables created)
    grows quadratically with [depth]; compacted, every scheme projects to
    its handful of interface variables and the growth is linear. Shared
    flat-returning readers called repeatedly with the same argument
    exercise the instantiation memo; a writer keeps the workload's
    mono/poly distinction alive. *)
let generate_chains ?(depth = 24) ~seed ~target_lines () : string =
  let rng = Rng.create seed in
  let buf = Buffer.create (target_lines * 32) in
  Buffer.add_string buf chains_prelude;
  let lines = ref (List.length (String.split_on_char '\n' chains_prelude)) in
  let out fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n';
        String.iter (fun c -> if c = '\n' then incr lines) s;
        incr lines)
      fmt
  in
  (* shared readers with flat results: the same const-pointer argument
     flows in at every call site, so within one caller all calls after the
     first are memo hits *)
  let readers = [ "rd_len"; "rd_sum"; "rd_spaces" ] in
  out "int rd_len(const char *s) { int n = 0; while (*s) { n++; s++; } return n; }";
  out "int rd_sum(const char *s) { int h = 0; while (*s) { h = h + *s; s++; } return h; }";
  out "int rd_spaces(const char *s) { int n = 0; while (*s) { if (*s == ' ') n++; s++; } return n; }";
  out "void smudge(char *dst) { *dst = 'x'; }";
  out "";
  let chains = ref [] in
  let nchains = ref 0 in
  (* reserve room for main's two calls per chain *)
  while !lines + (2 * !nchains) + 10 < target_lines do
    let c = !nchains in
    incr nchains;
    out "char *step_%d_0(char *s) { return s; }" c;
    for k = 1 to depth - 1 do
      out "char *step_%d_%d(char *s) { return step_%d_%d(s); }" c k c (k - 1)
    done;
    out "int probe_%d(char *s) {" c;
    out "  char *t;";
    out "  t = step_%d_%d(s);" c (depth - 1);
    out "  return *t;";
    out "}";
    out "int poll_%d(char *s) {" c;
    out "  int n = 0;";
    for _ = 1 to 2 + Rng.int rng 3 do
      out "  n = n + %s(s);" (Rng.pick_list rng readers)
    done;
    out "  return n;";
    out "}";
    out "";
    chains := c :: !chains
  done;
  out "int main(int argc, char **argv) {";
  out "  char local[64];";
  out "  smudge(local);";
  List.iter
    (fun c ->
      out "  probe_%d(local);" c;
      out "  poll_%d(local);" c)
    (List.rev !chains);
  out "  printf(\"%%d\\n\", g_buffer != 0);";
  out "  return 0;";
  out "}";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Multi-file projects (the 1M+ line scale corpus)                     *)
(* ------------------------------------------------------------------ *)

(** A synthetic multi-file project with a realistic cross-file call
    graph. The first returned file plays the role of the shared header
    (library prototypes, struct/typedef declarations, globals, and an
    extern prototype for {e every} project function, as a real build's
    headers would provide); the remaining files hold function bodies.
    Cross-file structure:

    - every file's functions call into the shared helper pool and into
      functions of other files (any order is legal — the header declares
      everything), giving a dense cross-file call graph;
    - [rings] mutual-recursion rings thread one function through {e each}
      file ([ring_r_f] calls [ring_r_(f+1 mod files)]), so the function
      dependency graph has many SCCs that span every file;
    - the usual const-annotation mix (readers, writers, helper readers)
      per file, so the analysis results exercise the same mono/poly
      structure as the single-file corpus;
    - the last file defines [main], calling every helper both through a
      writer and a reader context.

    Deterministic: the file list depends only on the arguments. *)
let generate_project ?(profile = default_profile) ?files ?(rings = 3) ~seed
    ~target_lines () : (string * string) list =
  let nfiles =
    match files with
    | Some f -> max 2 f
    | None -> max 4 (min 64 (target_lines / 25_000))
  in
  let rng = Rng.create seed in
  let protos = Buffer.create 4096 in  (* extern prototypes, header tail *)
  let n = ref 0 in
  let fresh prefix =
    incr n;
    Printf.sprintf "%s_%d" prefix !n
  in
  (* the cross-file mutual-recursion rings: fix all names up front so any
     member can call the next one before its file is generated *)
  let ring_name r f = Printf.sprintf "ring_%d_%d" r f in
  for r = 0 to rings - 1 do
    for f = 0 to nfiles - 1 do
      Buffer.add_string protos
        (Printf.sprintf "int %s(int n, char *s);\n" (ring_name r f))
    done
  done;
  (* shared helpers live in the first body file; names fixed up front *)
  let helpers = ref [] in
  for _ = 1 to profile.helpers do
    let name = fresh "find" in
    helpers := name :: !helpers;
    Buffer.add_string protos (Printf.sprintf "char *%s(char *s);\n" name)
  done;
  let helpers = List.rev !helpers in
  (* a mutually recursive parity pair, as real parsers have (the
     single-file generator has the same pair): a flat int->int signature
     every file's readers call across the project *)
  let par_even = fresh "par_even" and par_odd = fresh "par_odd" in
  Buffer.add_string protos (Printf.sprintf "int %s(int n);\n" par_even);
  Buffer.add_string protos (Printf.sprintf "int %s(int n);\n" par_odd);
  let funs : gfun list ref = ref [] in
  let call_existing ~arg =
    match !funs with
    | [] -> Printf.sprintf "g_count += %d;" (Rng.int rng 100)
    | fs ->
        let f = Rng.pick_list rng fs in
        f.call arg
  in
  let per_file = max 40 (target_lines / nfiles) in
  let body_files = ref [] in
  for fidx = 0 to nfiles - 1 do
    let buf = Buffer.create (per_file * 32) in
    let lines = ref 0 in
    let out fmt =
      Printf.ksprintf
        (fun s ->
          Buffer.add_string buf s;
          Buffer.add_char buf '\n';
          String.iter (fun c -> if c = '\n' then incr lines) s;
          incr lines)
        fmt
    in
    out "/* file %d of %d: generated, deterministic */" (fidx + 1) nfiles;
    if fidx = 0 then begin
      (* the shared helper pool: id-like functions whose parameter flows
         to the result — the engine of the mono/poly difference *)
      List.iter
        (fun name ->
          match Rng.int rng 3 with
          | 0 ->
              out "char *%s(char *s) { return s; }" name;
              out ""
          | 1 ->
              out "char *%s(char *s) {" name;
              out "  if (*s == ' ') return s + 1;";
              out "  return s;";
              out "}";
              out ""
          | _ ->
              out "char *%s(char *s) {" name;
              out "  if (*s == 0) return s;";
              out "  return %s(s + 1);" name;
              out "}";
              out "")
        helpers;
      out "int %s(int n) { if (n == 0) return 1; return %s(n - 1); }"
        par_even par_odd;
      out "int %s(int n) { if (n == 0) return 0; return %s(n - 1); }"
        par_odd par_even;
      out ""
    end;
    (* this file's members of every mutual-recursion ring *)
    for r = 0 to rings - 1 do
      let next = ring_name r ((fidx + 1) mod nfiles) in
      out "int %s(int n, char *s) {" (ring_name r fidx);
      out "  if (n <= 0) return *s;";
      out "  return %s(n - 1, s);" next;
      out "}";
      out ""
    done;
    while !lines < per_file do
      let kind =
        let k = Rng.int rng 100 in
        if k < profile.pct_writer then `Writer
        else if k < profile.pct_writer + profile.pct_helper_reader then
          `HelperReader
        else if
          k
          < profile.pct_writer + profile.pct_helper_reader
            + profile.pct_struct_fn
        then `Struct
        else `Reader
      in
      match kind with
      | `Writer ->
          let name = fresh "fill" in
          out "void %s(char *dst, int n) {" name;
          out "  int i;";
          out "  for (i = 0; i < n; i++) {";
          out "    dst[i] = 'a' + (i %% 26);";
          out "  }";
          (if Rng.percent rng 40 then out "  dst[n] = 0;");
          (if Rng.percent rng 30 then
             out "  %s" (call_existing ~arg:(Some "dst")));
          out "}";
          out "";
          Buffer.add_string protos
            (Printf.sprintf "void %s(char *dst, int n);\n" name);
          let call arg =
            Printf.sprintf "%s(%s, %d);" name
              (Option.value arg ~default:"g_buffer")
              (Rng.int rng 32)
          in
          funs := { name; call } :: !funs
      | `HelperReader ->
          let name = fresh "scan" in
          let h = Rng.pick_list rng helpers in
          out "int %s(char *msg) {" name;
          (match Rng.int rng 2 with
          | 0 -> out "  char *t = %s(msg);" h
          | _ -> out "  char *t; t = %s(msg);" h);
          out "  if (t == 0) return -1;";
          out "  return *t;";
          out "}";
          out "";
          Buffer.add_string protos (Printf.sprintf "int %s(char *msg);\n" name);
          let call arg =
            Printf.sprintf "%s(%s);" name (Option.value arg ~default:"g_buffer")
          in
          funs := { name; call } :: !funs
      | `Struct ->
          let name = fresh "rec" in
          (match Rng.int rng 2 with
          | 0 ->
              out "int %s(struct entry *e) {" name;
              out "  if (e->count > 0) return e->count;";
              out "  return strlen(e->key);";
              out "}"
          | _ ->
              out "void %s(struct node *n, int tag) {" name;
              out "  while (n) {";
              out "    n->tag = tag;";
              out "    n = n->next;";
              out "  }";
              out "}");
          out ""
      | `Reader ->
          let name = fresh "count" in
          let declared = Rng.percent rng profile.pct_declared_const in
          let q = if declared then "const " else "" in
          let variant = Rng.int rng 4 in
          (match variant with
          | 0 ->
              out "int %s(%schar *s) {" name q;
              out "  int n = 0;";
              out "  while (*s) { if (*s == ' ') n++; s++; }";
              out "  return n;";
              out "}"
          | 1 ->
              out "int %s(%schar *s, %schar *t) {" name q q;
              out "  while (*s && *t && *s == *t) { s++; t++; }";
              out "  return *s - *t;";
              out "}"
          | 2 ->
              out "int %s(%schar *s) {" name q;
              out "  int h = 0;";
              out "  while (*s) { h = h * 31 + *s; s++; }";
              out "  if (h < 0) h = -h;";
              out "  %s" (call_existing ~arg:None);
              out "  return h %% 97;";
              out "}"
          | _ ->
              out "int %s(%schar *s, int k) {" name q;
              out "  int i = 0;";
              out "  while (s[i]) {";
              out "    if (s[i] == k) return i;";
              out "    i++;";
              out "  }";
              out "  if (%s(k)) return -3;" par_even;
              out "  if (%s(%d, s) > 0) return -2;"
                (ring_name (Rng.int rng rings) (Rng.int rng nfiles))
                (Rng.int rng 8);
              out "  return -1;";
              out "}");
          out "";
          (match variant with
          | 1 ->
              Buffer.add_string protos
                (Printf.sprintf "int %s(%schar *s, %schar *t);\n" name q q)
          | 3 ->
              Buffer.add_string protos
                (Printf.sprintf "int %s(%schar *s, int k);\n" name q)
          | _ ->
              Buffer.add_string protos
                (Printf.sprintf "int %s(%schar *s);\n" name q));
          let call arg =
            let a = Option.value arg ~default:"g_buffer" in
            match variant with
            | 1 -> Printf.sprintf "%s(%s, g_version);" name a
            | 3 -> Printf.sprintf "%s(%s, %d);" name a (Rng.int rng 26)
            | _ -> Printf.sprintf "%s(%s);" name a
          in
          funs := { name; call } :: !funs
    done;
    if fidx = nfiles - 1 then begin
      (* main: every helper gets a writing and a reading caller, and every
         ring is entered once *)
      out "int main(int argc, char **argv) {";
      out "  char local[64];";
      List.iter
        (fun h ->
          out "  { char *p; p = %s(local); *p = 'x'; }" h;
          out "  { strlen(g_version); }")
        helpers;
      for r = 0 to rings - 1 do
        out "  g_count += %s(%d, local);" (ring_name r 0) (8 + r)
      done;
      out "  printf(\"%%d\\n\", g_count);";
      out "  return 0;";
      out "}"
    end;
    body_files :=
      (Printf.sprintf "mod_%02d.c" fidx, Buffer.contents buf) :: !body_files
  done;
  let header =
    prelude ^ "\n/* project-wide prototypes (the shared header) */\n"
    ^ Buffer.contents protos
  in
  ("project_h.c", header) :: List.rev !body_files

(** Total line count of a generated project (all files). *)
let project_lines (files : (string * string) list) : int =
  List.fold_left
    (fun acc (_, src) ->
      acc + List.length (String.split_on_char '\n' src) - 1)
    0 files
