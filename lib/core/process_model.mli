(** Creation and bookkeeping of distributed processes and their per-kernel
    replicas. *)

open Types

val task_construct_cost : Sim.Time.t
(** Full task-struct + kernel-stack construction (clone slow path). *)

val create_master : cluster -> origin:kernel -> process
(** Allocate a pid from the origin's slice and register the master record. *)

val create_replica :
  kernel -> process -> vma_proto:Kernelmodel.Vma.vma list -> replica
(** Materialise this kernel's replica from a layout snapshot. *)

val mark_distributed : process -> cluster -> unit
(** Flip the fast-path flag on every known replica of a spanning group. *)

val add_member_kernel : process -> int -> unit

val make_task :
  cluster -> kernel -> replica -> tid:tid -> ctx:Kernelmodel.Context.t ->
  Kernelmodel.Task.t
(** Brand-new thread on [kernel]: charges acquisition (pool or full
    construction) and counts a new live thread. *)

val adopt_task : cluster -> kernel -> replica -> Kernelmodel.Task.t -> unit
(** Adopt a migrating task: same acquisition cost, live count unchanged. *)

val prime_dummy_pool : cluster -> replica -> unit

val remove_member_local : kernel -> Kernelmodel.Task.t -> unit
(** Drop a task from this kernel's tables; the live-count decrement is
    routed to the origin separately. *)

val note_thread_exit : cluster -> kernel -> process -> unit
(** Origin-side: account one exit; the last one wakes the exit waiters
    and, when [reap_on_exit] is set, tears the process down
    cluster-wide. *)

val reap : cluster -> kernel -> process -> unit
(** Origin-side full teardown: free frames and replicas everywhere, reset
    the master tables. *)

val handle_group_exit_notify : cluster -> kernel -> pid:pid -> unit
(** Member-kernel cleanup on group death (wired by [Cluster.dispatch]). *)
