type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let float_repr f =
  (* JSON has no NaN/Infinity; map them to null. *)
  if Float.is_nan f || Float.abs f = Float.infinity then None
  else if Float.is_integer f && Float.abs f < 1e15 then
    Some (Printf.sprintf "%.0f" f)
  else Some (Printf.sprintf "%.12g" f)

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> (
      match float_repr f with
      | Some s -> Buffer.add_string buf s
      | None -> Buffer.add_string buf "null")
  | Str s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          write buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\":";
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 1024 in
  write buf j;
  Buffer.contents buf

let to_channel oc j = output_string oc (to_string j)

let to_file path j =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      to_channel oc j;
      output_char oc '\n')

(* --- parsing (for `popcornsim analyze` / `diff`, which read documents the
   serialiser above wrote). Recursive descent over the full RFC 8259
   grammar; numbers without '.', 'e' or overflow parse as Int so documents
   round-trip through the Int/Float split above. --- *)

exception Parse_error of string

type parser_state = { src : string; mutable pos : int }

let parse_fail st msg =
  raise (Parse_error (Printf.sprintf "%s at byte %d" msg st.pos))

(* The byte at the cursor, or ['\000'] past the end. Callers for which
   a NUL byte and the end of input mean different things test [pos]
   first; nothing here allocates per byte. *)
let peek st =
  if st.pos < String.length st.src then String.unsafe_get st.src st.pos
  else '\000'

let skip_ws st =
  while
    st.pos < String.length st.src
    && match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  if peek st = c then st.pos <- st.pos + 1
  else parse_fail st (Printf.sprintf "expected '%c'" c)

let parse_literal st word value =
  if
    st.pos + String.length word <= String.length st.src
    && String.sub st.src st.pos (String.length word) = word
  then begin
    st.pos <- st.pos + String.length word;
    value
  end
  else parse_fail st ("expected " ^ word)

let parse_hex4 st =
  if st.pos + 4 > String.length st.src then parse_fail st "truncated \\u escape";
  let v = int_of_string ("0x" ^ String.sub st.src st.pos 4) in
  st.pos <- st.pos + 4;
  v

(* Encode a code point as UTF-8 (we only ever *read* what we wrote, which
   escapes nothing above 0x1f, but accept the full range anyway). *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

(* A string without escapes, which is nearly every string a document
   holds, is one [String.sub] of the source; a [Buffer] is made only once
   a backslash shows up. *)
let parse_string st =
  expect st '"';
  let src = st.src and len = String.length st.src in
  let start = st.pos in
  while
    st.pos < len && match src.[st.pos] with '"' | '\\' -> false | _ -> true
  do
    st.pos <- st.pos + 1
  done;
  if st.pos >= len then parse_fail st "unterminated string";
  if src.[st.pos] = '"' then begin
    st.pos <- st.pos + 1;
    String.sub src start (st.pos - 1 - start)
  end
  else begin
    let buf = Buffer.create (2 * (st.pos - start) + 16) in
    Buffer.add_substring buf src start (st.pos - start);
    let rec go () =
      if st.pos >= len then parse_fail st "unterminated string";
      match src.[st.pos] with
      | '"' -> st.pos <- st.pos + 1
      | '\\' -> (
          st.pos <- st.pos + 1;
          let add c =
            Buffer.add_char buf c;
            st.pos <- st.pos + 1;
            go ()
          in
          match peek st with
          | '"' -> add '"'
          | '\\' -> add '\\'
          | '/' -> add '/'
          | 'b' -> add '\b'
          | 'f' -> add '\012'
          | 'n' -> add '\n'
          | 'r' -> add '\r'
          | 't' -> add '\t'
          | 'u' ->
              st.pos <- st.pos + 1;
              let cp = parse_hex4 st in
              (* Surrogate pair: \uD800-\uDBFF must be followed by a low
                 surrogate; combine them. *)
              let cp =
                if cp >= 0xD800 && cp <= 0xDBFF
                   && st.pos + 6 <= len
                   && src.[st.pos] = '\\'
                   && src.[st.pos + 1] = 'u'
                then begin
                  st.pos <- st.pos + 2;
                  let lo = parse_hex4 st in
                  0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                end
                else cp
              in
              add_utf8 buf cp;
              go ()
          | _ -> parse_fail st "bad escape")
      | c ->
          Buffer.add_char buf c;
          st.pos <- st.pos + 1;
          go ()
    in
    go ();
    Buffer.contents buf
  end

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    st.pos < String.length st.src && is_num_char st.src.[st.pos]
  do
    st.pos <- st.pos + 1
  done;
  let lit = String.sub st.src start (st.pos - start) in
  let is_float =
    String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit
  in
  if is_float then
    match float_of_string_opt lit with
    | Some f -> Float f
    | None -> parse_fail st ("bad number " ^ lit)
  else
    match int_of_string_opt lit with
    | Some i -> Int i
    | None -> (
        (* Integer literal too large for native int: keep it as a float. *)
        match float_of_string_opt lit with
        | Some f -> Float f
        | None -> parse_fail st ("bad number " ^ lit))

let rec parse_value st =
  skip_ws st;
  if st.pos >= String.length st.src then
    parse_fail st "unexpected end of input";
  match peek st with
  | '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = '}' then begin
        st.pos <- st.pos + 1;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          fields := (k, v) :: !fields;
          skip_ws st;
          match peek st with
          | ',' -> st.pos <- st.pos + 1; members ()
          | '}' -> st.pos <- st.pos + 1
          | _ -> parse_fail st "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
  | '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = ']' then begin
        st.pos <- st.pos + 1;
        Arr []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value st in
          items := v :: !items;
          skip_ws st;
          match peek st with
          | ',' -> st.pos <- st.pos + 1; elements ()
          | ']' -> st.pos <- st.pos + 1
          | _ -> parse_fail st "expected ',' or ']'"
        in
        elements ();
        Arr (List.rev !items)
      end
  | '"' -> Str (parse_string st)
  | 't' -> parse_literal st "true" (Bool true)
  | 'f' -> parse_literal st "false" (Bool false)
  | 'n' -> parse_literal st "null" Null
  | '-' | '0' .. '9' -> parse_number st
  | c -> parse_fail st (Printf.sprintf "unexpected '%c'" c)

let of_string s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at byte %d" st.pos)
      else Ok v
  | exception Parse_error msg -> Error msg
  | exception Failure msg -> Error msg (* e.g. malformed \u escape *)

let of_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> of_string s
  | exception Sys_error msg -> Error msg

(* Tolerant accessors: a missing key or a value of the wrong shape reads
   as absent, so decoders survive truncated or hand-edited documents. *)

let field k = function Obj fs -> List.assoc_opt k fs | _ -> None
let str_field k j = match field k j with Some (Str s) -> Some s | _ -> None

let int_field k j =
  match field k j with
  | Some (Int i) -> Some i
  | Some (Float f) -> Some (int_of_float f)
  | _ -> None

let num_field k j =
  match field k j with
  | Some (Int i) -> Some (float_of_int i)
  | Some (Float f) -> Some f
  | _ -> None

let arr_field k j = match field k j with Some (Arr l) -> l | _ -> []
