(** Deterministic pseudo-random number generator (SplitMix64).

    Each engine owns one generator so that simulations are reproducible from
    a single integer seed, independent of the global [Random] state. *)

type t

val create : seed:int -> t

val split : t -> t
(** [split t] derives an independent generator; [t] advances. Useful for
    giving each simulated component its own stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. Requires
    [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
