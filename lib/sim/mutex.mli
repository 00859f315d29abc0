(** Simulated-time mutual exclusion (sleeping lock, FIFO handoff).

    This models a Linux-style sleeping mutex: a blocked fiber consumes no
    simulated CPU and is handed the lock in FIFO order. For spinlocks with a
    cache-coherence contention model, see [Hw.Spinlock]. *)

type t

val create : Engine.t -> t

val lock : t -> unit
(** Acquire, parking the fiber if the mutex is held. *)

val unlock : t -> unit
(** Release. Raises [Invalid_argument] if the mutex is not held. *)

val waiters : t -> int

val with_lock : t -> (unit -> 'a) -> 'a
(** [with_lock t f] runs [f] under the lock, releasing on exceptions. *)
