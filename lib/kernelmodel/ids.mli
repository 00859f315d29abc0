(** Process/thread identifier allocation.

    In a replicated-kernel OS, PIDs must be unique across kernels without a
    shared allocator; Popcorn partitions the PID space by kernel (each kernel
    allocates [kernel_id + n * stride]), which is what {!make_partitioned}
    provides. The SMP model uses a single {!make_shared} allocator. *)

type pid = int
type tid = int

type allocator

val make_shared : unit -> allocator
(** Single global namespace: 1, 2, 3, ... *)

val make_partitioned : kernel:int -> stride:int -> allocator
(** Kernel-local slice of the global namespace: ids congruent to [kernel]
    modulo [stride]. Requires [0 <= kernel < stride]. *)

val next : allocator -> int

val owner_kernel : stride:int -> int -> int
(** Which kernel's slice an id belongs to (partitioned scheme). *)
