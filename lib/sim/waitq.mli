(** FIFO queues of parked fibers, with cancellation.

    This is the building block for every blocking primitive in the simulator
    (mutexes, barriers, futexes, message rings...). An entry can
    be cancelled (e.g. by a timeout) without disturbing queue order; a
    cancelled entry never consumes a wake-up. *)

type 'a t
(** A queue of waiters, each to be resumed with a value of type ['a]. *)

type 'a entry

val create : ?eng:Engine.t -> unit -> 'a t
(** When [eng] is given, this queue's dead-entry occupancy is also folded
    into the engine-wide [Engine.waitq_dead] aggregate, which the profiler
    samples; behaviour is otherwise identical. *)

val push : 'a t -> ('a -> unit) -> 'a entry
(** Register a resume function, typically obtained from {!Engine.suspend}. *)

val cancel : 'a entry -> unit
(** Deactivate an entry. Idempotent; no-op if the entry was already woken. *)

val wake_one : 'a t -> 'a -> bool
(** Resume the oldest active waiter. Returns [false] if none was waiting. *)

val wake_all : 'a t -> 'a -> int
(** Resume every active waiter, oldest first. Returns how many were woken. *)

val take : 'a t -> ('a -> unit) option
(** Remove the oldest active waiter {e without} resuming it; the caller
    becomes responsible for eventually calling the returned resume function
    (used by futex-requeue to move waiters between queues). *)

val length : 'a t -> int
(** Number of currently-active waiters. *)

val dead_count : 'a t -> int
(** Cancelled entries still occupying queue slots. They are purged lazily —
    when they reach the head, or all at once as soon as they outnumber
    the live entries — so the count is bounded by the number of active
    waiters and a timeout storm can no longer grow the queue without
    bound. *)

val is_empty : 'a t -> bool

val wait : Engine.t -> 'a t -> 'a
(** [wait eng q] parks the calling fiber on [q] until woken. *)

type 'a timed = Signalled of 'a | Timed_out

val wait_timeout : Engine.t -> 'a t -> timeout:Time.t -> 'a timed
(** Park on [q] for at most [timeout]; a timeout cancels the queue entry. *)
