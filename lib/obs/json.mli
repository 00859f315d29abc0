(** Minimal JSON document model and serialiser.

    The exporters build values of {!t} and render them with {!to_string} /
    {!to_file}; no external JSON dependency is needed. Strings are escaped
    per RFC 8259; NaN/infinite floats (which JSON cannot represent) render
    as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string

val to_file : string -> t -> unit
(** Write the document (plus a trailing newline) to [path], truncating. *)

val of_string : string -> (t, string) result
(** Parse one JSON document (full RFC 8259 grammar). Numbers without a
    fraction or exponent that fit a native [int] parse as [Int], everything
    else as [Float], so documents written by {!to_string} round-trip. *)

val of_file : string -> (t, string) result
(** {!of_string} over the file's contents; I/O errors become [Error]. *)

(** {1 Tolerant accessors}

    Every decoder in the tree reads documents through these: a missing key,
    a non-object, or a value of the wrong shape reads as absent, so
    truncated or hand-edited documents decode as far as they go. On
    duplicate keys the first wins. *)

val field : string -> t -> t option
val str_field : string -> t -> string option

val int_field : string -> t -> int option
(** An [Int], or a [Float] truncated towards zero. *)

val num_field : string -> t -> float option
(** An [Int] or a [Float], as a float. *)

val arr_field : string -> t -> t list
(** The array's items; [[]] when absent or not an array. *)
