(** Simulated time, in integer nanoseconds.

    All simulation clocks and durations are values of type {!t}. The engine
    never consults wall-clock time, so simulations are fully deterministic. *)

type t = int
(** Nanoseconds. A 63-bit [int] covers ~292 simulated years. *)

val zero : t

val ns : int -> t
(** [ns x] is [x] nanoseconds. *)

val us : int -> t
(** [us x] is [x] microseconds. *)

val ms : int -> t
(** [ms x] is [x] milliseconds. *)

val s : int -> t
(** [s x] is [x] seconds. *)

val add : t -> t -> t
val sub : t -> t -> t
val scale : int -> t -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit (ns/us/ms/s). *)

val to_string : t -> string
