(** Binary min-heap of scheduled events, keyed by (time, sequence).

    The sequence number makes ordering total and stable: two events scheduled
    for the same instant fire in scheduling order, which keeps simulations
    deterministic.

    Layout: three parallel arrays, the times and sequence numbers unboxed
    in two [int array]s and the payloads in a third. A push allocates
    nothing until the arrays double; sifting moves a hole, writing one key
    pair and one payload per level. *)

type 'a t

val create : ?dummy:'a -> unit -> 'a t
(** [dummy], when given, is used to overwrite payload slots as they are
    vacated, so the heap never retains a reference to a payload it already
    popped. Engine events hold closures and fiber continuations — without
    a dummy, a drained heap can pin the entire object graph of the last
    events it executed. *)

val push : 'a t -> at:Time.t -> seq:int -> 'a -> unit

val pop : 'a t -> (Time.t * int * 'a) option
(** Remove and return the earliest event, or [None] when empty. *)

val pop_exn : 'a t -> 'a
(** Remove the earliest event and return only its payload. Raises
    [Invalid_argument] when empty. Allocation-free: the dispatch hot path
    pairs this with {!next_at} instead of paying [pop]'s option + tuple. *)

val next_at : 'a t -> Time.t
(** Timestamp of the earliest event, or [-1] when empty (timestamps are
    non-negative). *)

val length : 'a t -> int
(** Events currently queued. *)

val max_length : 'a t -> int
(** High-water mark of {!length} over the heap's lifetime. *)

val is_empty : 'a t -> bool
