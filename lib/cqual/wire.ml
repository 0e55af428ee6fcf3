(** The daemon's wire format: JSON and newline-delimited JSON-RPC,
    hand-rolled (the toolchain ships no JSON library, and the protocol
    is small enough that a dependency would be all cost). One request or
    response per line; no literal newlines ever appear inside a message
    — the string printer escapes them — so a line reader frames the
    stream correctly. See DESIGN.md "Session architecture & wire
    protocol" for the schema. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let num_int n = Num (float_of_int n)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape_into b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let add_num b f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" f)
  else if Float.is_nan f || Float.abs f = Float.infinity then
    (* JSON has no NaN/inf; null is the least-wrong encoding *)
    Buffer.add_string b "null"
  else Buffer.add_string b (Printf.sprintf "%.12g" f)

let rec add_json b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Num f -> add_num b f
  | Str s ->
      Buffer.add_char b '"';
      escape_into b s;
      Buffer.add_char b '"'
  | Arr items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          add_json b x)
        items;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          escape_into b k;
          Buffer.add_string b "\":";
          add_json b v)
        fields;
      Buffer.add_char b '}'

let to_string (j : json) : string =
  let b = Buffer.create 256 in
  add_json b j;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let of_string (s : string) : (json, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  (* encode a \uXXXX code point (with surrogate-pair handling) as UTF-8 *)
  let add_utf8 b cp =
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  (* exactly four hex digits: [int_of_string] would also take '_' and
     raise on anything else *)
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for i = !pos to !pos + 3 do
      let d =
        match s.[i] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      v := (!v lsl 4) lor d
    done;
    pos := !pos + 4;
    !v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          if !pos >= n then fail "truncated escape";
          let c = s.[!pos] in
          advance ();
          (match c with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              let cp = hex4 () in
              let cp =
                (* a high surrogate must pair with a low one, and a low
                   one cannot stand alone *)
                if cp >= 0xD800 && cp <= 0xDBFF then begin
                  if not (!pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u')
                  then fail "unpaired surrogate";
                  pos := !pos + 2;
                  let lo = hex4 () in
                  if lo < 0xDC00 || lo > 0xDFFF then fail "unpaired surrogate";
                  0x10000 + (((cp - 0xD800) lsl 10) lor (lo - 0xDC00))
                end
                else if cp >= 0xDC00 && cp <= 0xDFFF then
                  fail "unpaired surrogate"
                else cp
              in
              add_utf8 b cp
          | c -> fail (Printf.sprintf "bad escape \\%C" c));
          go ()
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
      | _ -> false
    do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          Arr (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some _ -> Num (parse_number ())
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing input";
    v
  with
  | v -> Ok v
  | exception Parse_error m -> Error m

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let mem key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let get_string = function Str s -> Some s | _ -> None

let get_int = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let get_bool = function Bool b -> Some b | _ -> None

let mem_string key j = Option.bind (mem key j) get_string
let mem_int key j = Option.bind (mem key j) get_int
let mem_bool key j = Option.bind (mem key j) get_bool

(* ------------------------------------------------------------------ *)
(* JSON-RPC framing                                                    *)
(* ------------------------------------------------------------------ *)

type request = {
  rq_id : json;  (** echoed verbatim; [Null] when the client sent none *)
  rq_method : string;
  rq_params : json;  (** [Obj []] when absent *)
}

let parse_request (line : string) : (request, string) result =
  match of_string line with
  | Error m -> Error m
  | Ok j -> (
      match mem_string "method" j with
      | None -> Error "request has no \"method\""
      | Some m ->
          Ok
            {
              rq_id = Option.value (mem "id" j) ~default:Null;
              rq_method = m;
              rq_params = Option.value (mem "params" j) ~default:(Obj []);
            })

let response_ok ~id (result : json) : string =
  to_string (Obj [ ("id", id); ("result", result) ])

let response_error ~id ?(code = -32000) (message : string) : string =
  to_string
    (Obj
       [
         ("id", id);
         ("error", Obj [ ("code", num_int code); ("message", Str message) ]);
       ])
