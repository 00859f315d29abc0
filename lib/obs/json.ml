type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* Bytes that need no escape are copied in runs, one [add_substring] per
   run; nothing here allocates per byte. *)
let hex = "0123456789abcdef"

let rec escape_from buf s run i =
  if i = String.length s then Buffer.add_substring buf s run (i - run)
  else
    let c = String.unsafe_get s i in
    if c <> '"' && c <> '\\' && Char.code c >= 0x20 then
      escape_from buf s run (i + 1)
    else begin
      Buffer.add_substring buf s run (i - run);
      (match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf hex.[Char.code c lsr 4];
          Buffer.add_char buf hex.[Char.code c land 15]);
      escape_from buf s (i + 1) (i + 1)
    end

let escape buf s = escape_from buf s 0 0

(* The decimal digits of [n <= 0] without its sign; counting down from
   zero reaches [min_int], which has no positive counterpart. *)
let rec add_neg_digits buf n =
  if n <= -10 then add_neg_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_neg_digits buf n
  end
  else add_neg_digits buf (-n)

let float_repr f =
  (* JSON has no NaN/Infinity; map them to null. *)
  if Float.is_nan f || Float.abs f = Float.infinity then None
  else if Float.is_integer f && Float.abs f < 1e15 then
    Some (Printf.sprintf "%.0f" f)
  else Some (Printf.sprintf "%.12g" f)

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
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
      write_items buf items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      write_fields buf fields;
      Buffer.add_char buf '}'

and write_items buf = function
  | [] -> ()
  | [ item ] -> write buf item
  | item :: items ->
      write buf item;
      Buffer.add_char buf ',';
      write_items buf items

and write_fields buf = function
  | [] -> ()
  | [ (k, v) ] -> write_field buf k v
  | (k, v) :: fields ->
      write_field buf k v;
      Buffer.add_char buf ',';
      write_fields buf fields

and write_field buf k v =
  Buffer.add_char buf '"';
  escape buf k;
  Buffer.add_string buf "\":";
  write buf v

let to_string j =
  let buf = Buffer.create 1024 in
  write buf j;
  Buffer.contents buf

(* The buffer goes to the channel as it is: no string copy of a document
   that can run to tens of megabytes. *)
let to_file path j =
  let buf = Buffer.create 65536 in
  write buf j;
  Buffer.add_char buf '\n';
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc buf)

(* --- parsing (for `popcornsim analyze` / `diff`, which read documents the
   serialiser above wrote). Recursive descent over the full RFC 8259
   grammar; numbers without '.', 'e' or overflow parse as Int so documents
   round-trip through the Int/Float split above. --- *)

exception Parse_error of string

(* [keys] shares object keys within one parse: a key equal to one read
   before comes back as the same string, so the thousands of objects of
   one shape a document holds (spans, causal events) keep one copy of
   each key. A key lands in the slot its bytes hash to; a miss replaces
   the slot. *)
type parser_state = { src : string; mutable pos : int; keys : string array }

let key_slots = 256

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

let rec equal_from s src off n i =
  i = n
  || String.unsafe_get s i = String.unsafe_get src (off + i)
     && equal_from s src off n (i + 1)

(* [s] equals the [n] bytes of [src] at [off], which the caller has
   checked are in bounds. *)
let same_bytes s src off n = String.length s = n && equal_from s src off n 0

let parse_literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && same_bytes word st.src st.pos n
  then begin
    st.pos <- st.pos + n;
    value
  end
  else parse_fail st ("expected " ^ word)

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> -1

(* The value of the four hex digits at [i], or -1 unless all four are
   there. *)
let hex4 src i =
  if i + 4 > String.length src then -1
  else
    let a = hex_digit (String.unsafe_get src i)
    and b = hex_digit (String.unsafe_get src (i + 1))
    and c = hex_digit (String.unsafe_get src (i + 2))
    and d = hex_digit (String.unsafe_get src (i + 3)) in
    if a < 0 || b < 0 || c < 0 || d < 0 then -1
    else (a lsl 12) lor (b lsl 8) lor (c lsl 4) lor d

let parse_hex4 st =
  if st.pos + 4 > String.length st.src then parse_fail st "truncated \\u escape";
  let v = hex4 st.src st.pos in
  if v < 0 then parse_fail st "bad \\u escape";
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

(* Advance over a string's bytes up to its closing quote or its next
   backslash. *)
let skip_plain st =
  let src = st.src and len = String.length st.src in
  while
    st.pos < len && match src.[st.pos] with '"' | '\\' -> false | _ -> true
  do
    st.pos <- st.pos + 1
  done

(* The code point of the [\u] escape whose hex digits start at the cursor.
   A high surrogate combines with a following [\u] escape only when that
   is a low surrogate; otherwise each is a code point of its own. *)
let parse_unicode st =
  let cp = parse_hex4 st in
  let src = st.src in
  let lo =
    if
      cp >= 0xD800 && cp <= 0xDBFF
      && st.pos + 1 < String.length src
      && src.[st.pos] = '\\'
      && src.[st.pos + 1] = 'u'
    then hex4 src (st.pos + 2)
    else -1
  in
  if lo >= 0xDC00 && lo <= 0xDFFF then begin
    st.pos <- st.pos + 6;
    0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
  end
  else cp

(* The rest of a string from the cursor, escapes decoded into [buf]. *)
let rec unescape st buf =
  if st.pos >= String.length st.src then parse_fail st "unterminated string";
  match String.unsafe_get st.src st.pos with
  | '"' -> st.pos <- st.pos + 1
  | '\\' ->
      st.pos <- st.pos + 1;
      (match peek st with
      | 'u' ->
          st.pos <- st.pos + 1;
          add_utf8 buf (parse_unicode st)
      | c ->
          Buffer.add_char buf
            (match c with
            | '"' -> '"'
            | '\\' -> '\\'
            | '/' -> '/'
            | 'b' -> '\b'
            | 'f' -> '\012'
            | 'n' -> '\n'
            | 'r' -> '\r'
            | 't' -> '\t'
            | _ -> parse_fail st "bad escape");
          st.pos <- st.pos + 1);
      unescape st buf
  | _ ->
      let start = st.pos in
      skip_plain st;
      Buffer.add_substring buf st.src start (st.pos - start);
      unescape st buf

(* The string whose opening quote is at the cursor. One without escapes,
   which is nearly every string a document holds, is [plain st start n]
   of its [n] bytes at [start]; a [Buffer] is made only once a backslash
   shows up. *)
let parse_string st plain =
  expect st '"';
  let start = st.pos in
  skip_plain st;
  if st.pos < String.length st.src && st.src.[st.pos] = '"' then begin
    st.pos <- st.pos + 1;
    plain st start (st.pos - 1 - start)
  end
  else begin
    if st.pos >= String.length st.src then parse_fail st "unterminated string";
    let buf = Buffer.create (2 * (st.pos - start) + 16) in
    Buffer.add_substring buf st.src start (st.pos - start);
    unescape st buf;
    Buffer.contents buf
  end

let copy st start n = String.sub st.src start n

let rec hash_bytes src i stop h =
  if i = stop then h
  else
    hash_bytes src (i + 1) stop
      ((h * 31) + Char.code (String.unsafe_get src i))

(* An object key is the string in its slot when that holds the same
   bytes, and a copy that takes over the slot when not. *)
let shared_key st start n =
  let slot = hash_bytes st.src start (start + n) 0 land (key_slots - 1) in
  let cached = st.keys.(slot) in
  if same_bytes cached st.src start n then cached
  else begin
    let k = String.sub st.src start n in
    st.keys.(slot) <- k;
    k
  end

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

(* Every byte that may belong to a number, read as one literal. *)
let parse_number_literal st =
  let start = st.pos in
  while st.pos < String.length st.src && is_num_char st.src.[st.pos] do
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

(* An optional '-' and decimal digits that no other number byte follows
   and that fit a native int are read in place. Anything else, overflow
   included, is [parse_number_literal]'s from the same byte. The digits
   accumulate negated, so that [min_int] fits. *)
let parse_number st =
  let src = st.src and len = String.length st.src in
  let start = st.pos in
  let neg = src.[start] = '-' in
  let digits = if neg then start + 1 else start in
  let i = ref digits and acc = ref 0 and fits = ref true in
  while
    !fits && !i < len && match src.[!i] with '0' .. '9' -> true | _ -> false
  do
    let d = Char.code src.[!i] - 48 in
    if !acc < (min_int + d) / 10 then fits := false
    else begin
      acc := (!acc * 10) - d;
      incr i
    end
  done;
  if
    !fits && !i > digits
    && (!i = len || not (is_num_char src.[!i]))
    && (neg || !acc <> min_int)
  then begin
    st.pos <- !i;
    Int (if neg then !acc else - !acc)
  end
  else parse_number_literal st

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
      else Obj (parse_members st [])
  | '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = ']' then begin
        st.pos <- st.pos + 1;
        Arr []
      end
      else Arr (parse_elements st [])
  | '"' -> Str (parse_string st copy)
  | 't' -> parse_literal st "true" (Bool true)
  | 'f' -> parse_literal st "false" (Bool false)
  | 'n' -> parse_literal st "null" Null
  | '-' | '0' .. '9' -> parse_number st
  | c -> parse_fail st (Printf.sprintf "unexpected '%c'" c)

(* The members after an object's '{', newest first in [acc]. *)
and parse_members st acc =
  skip_ws st;
  let k = parse_string st shared_key in
  skip_ws st;
  expect st ':';
  let v = parse_value st in
  let acc = (k, v) :: acc in
  skip_ws st;
  match peek st with
  | ',' ->
      st.pos <- st.pos + 1;
      parse_members st acc
  | '}' ->
      st.pos <- st.pos + 1;
      List.rev acc
  | _ -> parse_fail st "expected ',' or '}'"

and parse_elements st acc =
  let acc = parse_value st :: acc in
  skip_ws st;
  match peek st with
  | ',' ->
      st.pos <- st.pos + 1;
      parse_elements st acc
  | ']' ->
      st.pos <- st.pos + 1;
      List.rev acc
  | _ -> parse_fail st "expected ',' or ']'"

let of_string s =
  let st = { src = s; pos = 0; keys = Array.make key_slots "" } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at byte %d" st.pos)
      else Ok v
  | exception Parse_error msg -> Error msg

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
