open Sim

(** A contended shared cache line.

    Models the hardware serialisation of atomic read-modify-write operations
    on one line (lock prefixes, xadd on mmap_sem's count, runqueue counters):
    concurrent ops queue at the line's home and each pays the
    coherence-transfer cost from the previous owner core. This is the
    first-order reason shared-memory kernels stop scaling — the paper's
    motivation — so the SMP baseline charges every shared-structure atomic
    through one of these. *)

type t

val create : Engine.t -> Params.t -> Topology.t -> name:string -> t

val access : t -> core:Topology.core -> unit
(** Perform one atomic op from [core]: the calling fiber is delayed by the
    queueing time plus the line transfer from the previous owner. *)

val ops : t -> int
