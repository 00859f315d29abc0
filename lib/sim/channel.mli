(** Bounded FIFO channels between fibers, in simulated time.

    Used pervasively as mailboxes for simulated kernel worker threads. A
    channel of capacity [n] blocks senders when [n] messages are queued;
    capacity 0 is rendezvous-free here — use capacity >= 1. *)

type 'a t

val create : Engine.t -> capacity:int -> 'a t
(** [capacity >= 1]. *)

val send : 'a t -> 'a -> unit
(** Enqueue; parks the fiber while the channel is full. *)

val recv : 'a t -> 'a
(** Dequeue; parks the fiber while the channel is empty. *)

val recv_batch : 'a t -> 'a list
(** Dequeue at least one item (parking like {!recv} while empty) plus every
    other item already buffered, in FIFO order — {e slot-accurate}: the
    first item's slot frees immediately (as in {!recv}), while each further
    item keeps its ring slot reserved until the consumer calls
    {!release_slot} at the moment it starts consuming that item. Senders
    observe an occupancy trajectory and wake timing bit-identical to
    receiving the items one at a time. *)

val release_slot : 'a t -> unit
(** Free one slot reserved by {!recv_batch} (waking one parked sender, if
    any). Call exactly once per batch item after the first, when starting
    to consume it. Raises [Invalid_argument] when nothing is reserved. *)

val recv_timeout : 'a t -> timeout:Time.t -> 'a option
(** [None] on timeout. *)

val length : 'a t -> int
val is_empty : 'a t -> bool
