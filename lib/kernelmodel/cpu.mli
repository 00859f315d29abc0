open Sim

(** One hardware core as a schedulable resource.

    At most one fiber "computes" on a core at a time; others queue FIFO and
    the occupant is preempted at quantum boundaries, approximating a
    round-robin kernel scheduler. Context-switch cost is charged to the
    switched-in fiber. *)

type t

val create :
  Engine.t -> Hw.Params.t -> core:Hw.Topology.core -> quantum:Time.t -> t

val core : t -> Hw.Topology.core

val compute : t -> Time.t -> unit
(** Consume CPU time; the calling fiber is delayed by at least the requested
    duration, more under timesharing. *)

val assign : t -> unit
(** Register a thread as placed on this core (scheduler bookkeeping). *)

val unassign : t -> unit
(** Remove a placed thread (on exit or migration away). *)

val assigned : t -> int
(** Threads currently placed here, runnable or blocked. Placement decisions
    use this, like a per-CPU runqueue weight. *)

val load : t -> int
(** Current occupant (0/1) plus queued fibers — the instantaneous runqueue
    depth. *)

val busy_time : t -> Time.t
(** Total simulated time this core spent computing. *)
