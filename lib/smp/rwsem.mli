open Sim

(** Reader-writer semaphore in the style of Linux's [mmap_sem].

    Every down/up performs one atomic on the semaphore's cache line — the
    scalability cost: even uncontended read acquisitions bounce the line
    between sockets — plus sleeping exclusion with FIFO fairness (a queued
    writer blocks later readers, so writers are not starved). *)

type t

val create : Engine.t -> Hw.Params.t -> Hw.Topology.t -> name:string -> t

val down_read : t -> core:Hw.Topology.core -> unit
val up_read : t -> core:Hw.Topology.core -> unit
val down_write : t -> core:Hw.Topology.core -> unit
val up_write : t -> core:Hw.Topology.core -> unit

val with_read : t -> core:Hw.Topology.core -> (unit -> 'a) -> 'a
val with_write : t -> core:Hw.Topology.core -> (unit -> 'a) -> 'a
