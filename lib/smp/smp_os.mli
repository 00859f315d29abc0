(** The SMP Linux baseline: one shared kernel image over all cores.

    Same mechanisms as the Popcorn model (tasks, VMAs, demand faulting,
    futexes) but with the shared-memory structure of a symmetric monolithic
    kernel: one task list under a global lock, one VMA tree per process
    under an [mmap_sem] whose cache line every core hammers, one futex hash
    table with bucket spinlocks, and TLB-shootdown IPIs to every core
    running the process on unmap. No messages, no replicas — and therefore
    the contention collapse the paper measures. *)

open Sim
module K = Kernelmodel

type process = {
  pid : K.Ids.pid;
  vmas : K.Vma.t;
  pt : K.Page_table.t;
  page_version : (int, int) Hashtbl.t;
  mmap_sem : Rwsem.t;
  mm_line : Hw.Cacheline.t;  (** mm_users / counters cache line. *)
  mutable live_threads : int;
  mutable threads_per_core : (Hw.Topology.core, int) Hashtbl.t;
  exit_waiters : unit Waitq.t;
}

type t = {
  machine : Hw.Machine.t;
  sched : K.Sched.t;  (** all cores, one scheduler domain. *)
  tasklist_lock : Hw.Spinlock.t;
  pid_alloc : K.Ids.allocator;
  tid_alloc : K.Ids.allocator;
  futex : K.Futex.t;
  futex_buckets : Hw.Spinlock.t array;
  procs : (K.Ids.pid, process) Hashtbl.t;
  tasks : (K.Ids.tid, K.Task.t) Hashtbl.t;
  (* The engine labels of thread and process-main fibers, interned at
     boot so a spawn hashes nothing. *)
  thread_label : Engine.label;
  main_label : Engine.label;
}

val boot : Hw.Machine.t -> t

val eng : t -> Engine.t
val params : t -> Hw.Params.t
val topo : t -> Hw.Topology.t

val create_process : t -> process * K.Task.t
(** Fresh process with the conventional initial layout; live count 1. *)

val note_core : process -> Hw.Topology.core -> int -> unit
(** Track which cores run this mm (the TLB-shootdown victim set). *)

val clone : t -> process -> core:Hw.Topology.core -> K.Task.t
(** pthread_create: stack mmap under [mmap_sem] + clone under the global
    task-list lock. *)

val exit_thread : t -> process -> K.Task.t -> unit

val fork : t -> process -> core:Hw.Topology.core -> process * K.Task.t
(** COW-style fork; see {!Smp_api.fork}. *)

val reap : t -> process -> unit
(** Free a dead process's frames. *)

val mmap :
  t -> process -> core:Hw.Topology.core -> len:int -> prot:K.Vma.prot ->
  (K.Vma.vma, string) result

val munmap :
  t -> process -> core:Hw.Topology.core -> start:int -> len:int ->
  (unit, string) result

val mprotect :
  t -> process -> core:Hw.Topology.core -> start:int -> len:int ->
  prot:K.Vma.prot -> (unit, string) result

val touch :
  t -> process -> core:Hw.Topology.core -> addr:int ->
  access:K.Fault.access -> (K.Fault.classification, string) result
(** Memory access with demand faulting ([mmap_sem] read path). *)

val read : t -> process -> core:Hw.Topology.core -> addr:int ->
  (int, string) result

val write : t -> process -> core:Hw.Topology.core -> addr:int ->
  (unit, string) result

type wait_result = Woken | Timed_out

val futex_wait :
  t -> process -> core:Hw.Topology.core -> ?timeout:Time.t -> unit ->
  addr:int -> wait_result

val futex_wake :
  t -> process -> core:Hw.Topology.core -> addr:int -> count:int -> int

val wait_exit : t -> process -> unit
