open Sim

(** Ticket spinlock with a cache-coherence contention model.

    This is the mechanism whose scaling behaviour the paper's SMP-Linux
    baseline suffers from. The model follows the classic analysis of ticket
    locks on cache-coherent x86: every lock handoff transfers the lock's
    cache line from the releasing core to the next-in-line waiter {e and}
    re-invalidates the line in every other spinner's cache, so the handoff
    cost grows linearly with the number of waiters ([Params.spin_bounce] per
    extra spinner). Under [n]-core contention the per-critical-section cost
    is [cs + transfer + (n-1)*bounce], which reproduces the throughput
    collapse seen on real many-core machines.

    Waiting is modelled as a latency-accurate suspension rather than by
    burning simulated CPU (see DESIGN.md); FIFO order matches ticket-lock
    fairness. *)

type t

type stats = {
  acquisitions : int;
  contended : int;  (** acquisitions that found the lock held. *)
  total_wait : Time.t;  (** summed queueing delay across acquisitions. *)
  total_hold : Time.t;  (** summed hold time. *)
  max_waiters : int;
}

val create :
  Engine.t -> Params.t -> Topology.t -> name:string -> t

val acquire : t -> core:Topology.core -> unit
(** Acquire from [core]; the calling fiber is delayed by the modelled
    uncontended transfer cost or by the full queueing delay. *)

val release : t -> unit
(** Release; hands off to the oldest waiter, charging the handoff cost. *)

val waiters : t -> int
val stats : t -> stats

val with_lock : t -> core:Topology.core -> (unit -> 'a) -> 'a
