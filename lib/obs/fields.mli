(** The fields of one JSON object read in a single pass, for the record
    decoders ({!Span.of_json}, {!Causal.event_of_json}). The rules are
    the tolerant accessors' ({!Json.field}, {!Json.int_field}): a key's
    first occurrence wins, even when its value has the wrong type; other
    keys are ignored; an int also reads from a [Float], truncated. *)

val read : slot:(string -> int) -> int -> (string * Json.t) list -> Json.t array
(** [read ~slot n fields]: element [i] of the result (of [n], at most
    63) is the value of the first field whose key [slot] maps to [i], or
    [Json.Null] when there is none. A key [slot] maps to -1 is skipped. *)

val is_int : Json.t -> bool
(** An [Int] or a [Float]. *)

val int : default:int -> Json.t -> int
(** The value as an int when {!is_int}, else [default]. *)

val int_opt : Json.t -> int option
