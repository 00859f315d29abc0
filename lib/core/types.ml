(** Shared state and wire protocol of the replicated-kernel OS.

    This module defines the records threaded through every Popcorn
    subsystem: the cluster, the per-kernel state, distributed processes and
    their per-kernel replicas, and the inter-kernel message payloads.

    Discipline note: because the whole OS is simulated in one OCaml process,
    every kernel could physically reach every record. The code keeps the
    replicated-kernel structure honest by convention, which the tests check
    behaviourally: master-process state ([directory], [dfutex_queues],
    authoritative membership) is only touched by handlers running on the
    origin kernel, and all cross-kernel interaction goes through
    [Msg.Transport]. *)

open Sim

type pid = Kernelmodel.Ids.pid
type tid = Kernelmodel.Ids.tid

(** Directory entry for one virtual page of a distributed process, kept at
    the kernel the active coherence protocol homes the page on (the origin
    under [Origin_home], a hash of the vpn under [Sharded_dir]).
    Invariant: [writer] and a non-empty [readers] are mutually exclusive. *)
type page_loc = {
  mutable writer : int option;  (** kernel with the sole writable copy. *)
  mutable readers : int list;  (** kernels holding read-only replicas. *)
}

(** A futex waiter parked on the origin kernel's global queue. *)
type dfutex_waiter = { waiter_kernel : int; wake_ticket : int }

(** Master record of a distributed process ("thread group" in the paper).
    Created at the origin kernel; remote kernels get {!replica}s. *)
type process = {
  pid : pid;
  origin : int;
  mutable member_kernels : int list;  (** kernels hosting live members. *)
  mutable live_threads : int;
  directory : (int, page_loc) Hashtbl.t;
      (** vpn -> location; each entry is only touched by handlers running
          on the page's home kernel (protocol-dependent). *)
  page_version : (int, int) Hashtbl.t;
      (** vpn -> logical content version; bumped on every write so tests can
          check read-after-write coherence across kernels. *)
  dfutex_queues : (int, dfutex_waiter Queue.t) Hashtbl.t;
      (** futex addr -> global wait queue (origin only). *)
  fault_locks : (int, Mutex.t) Hashtbl.t;
      (** vpn -> home-side per-page fault serialisation lock. *)
  exit_waiters : unit Waitq.t;  (** fibers in waitpid-like waits. *)
}

(** Per-kernel replica of a process: local VMA tree, local page table, local
    members, and the pool of pre-spawned dummy threads that adopt incoming
    migrated contexts (the paper's fast thread-import path). *)
type replica = {
  proc : process;
  vmas : Kernelmodel.Vma.t;
  pt : Kernelmodel.Page_table.t;
  page_data : (int, int) Hashtbl.t;  (** vpn -> content version held here. *)
  mutable members : Kernelmodel.Task.t list;
  mutable dummy_pool : int;  (** available pre-spawned dummy threads. *)
  mutable distributed : bool;
      (** this kernel's view: does the group span kernels? enables the
          local fast paths when false. *)
}

(** Wire protocol between kernels. Tickets refer to {!Msg.Rpc} tables on the
    sending kernel. Sizes charged on the wire are computed in [Wire]. *)
type payload =
  (* --- thread groups & migration --- *)
  | Thread_spawn_req of { ticket : int; pid : pid; target : int }
      (** requester -> origin: create a thread of [pid] on kernel
          [target]; the origin mediates so membership stays consistent. *)
  | Thread_spawn_resp of { ticket : int; tid : tid }
  | Thread_create_req of {
      ticket : int;
      pid : pid;
      new_tid : tid;
      vma_proto : Kernelmodel.Vma.vma list option;
          (** layout snapshot when the destination has no replica yet. *)
    }
  | Thread_create_ack of { ticket : int }
  | Migrate_req of {
      ticket : int;
      pid : pid;
      task : Kernelmodel.Task.t;
          (** simulation identity of the migrating thread; on the wire this
              is the tid + saved context (sized from [task.ctx]). *)
    }
  | Migrate_ack of { ticket : int; import_ns : int }
      (** [import_ns]: destination-side import time, reported back for the
          migration cost breakdown. *)
  | Migrate_cancel of { pid : pid; tid : tid }
      (** origin -> destination, best-effort: the origin gave up on a
          migration (retries exhausted) and is re-animating the thread
          locally; revoke the import if one happened (its ack was lost). *)
  | Group_exit_notify of { pid : pid; from_kernel : int }
  | Thread_exit_notify of { pid : pid }
      (** any kernel -> origin: one of my local members of [pid] exited;
          the origin owns the live-thread count. *)
  | Exit_group_req of { ticket : int; pid : pid }
      (** requester -> origin: kill the whole thread group. *)
  | Exit_group_resp of { ticket : int }
  | Exit_group_cmd of { pid : pid; ack_ticket : int }
      (** origin -> member kernels: terminate every local member. *)
  | Kill_req of { ticket : int; pid : pid; tid : tid }
      (** SIGKILL-style: sent to the kernel hosting [tid]. *)
  | Kill_resp of { ticket : int; found : bool }
  (* --- address space consistency --- *)
  | Mmap_req of { ticket : int; pid : pid; len : int; prot : Kernelmodel.Vma.prot }
  | Mmap_resp of { ticket : int; result : (Kernelmodel.Vma.vma, string) result }
  | Munmap_req of { ticket : int; pid : pid; start : int; len : int }
  | Munmap_resp of { ticket : int; result : (unit, string) result }
  | Mprotect_req of {
      ticket : int;
      pid : pid;
      start : int;
      len : int;
      prot : Kernelmodel.Vma.prot;
    }
  | Mprotect_resp of { ticket : int; result : (unit, string) result }
  | Vma_remove of { pid : pid; start : int; len : int; ack_ticket : int }
  | Vma_protect of {
      pid : pid;
      start : int;
      len : int;
      prot : Kernelmodel.Vma.prot;
      ack_ticket : int;
    }
  | Vma_ack of { ticket : int }
  | Vma_fetch_req of { ticket : int; pid : pid }
  | Vma_fetch_resp of { ticket : int; vmas : Kernelmodel.Vma.vma list }
  | Vma_lookup_req of { ticket : int; pid : pid; addr : int }
      (** lazy VMA replication: a kernel whose replica has no VMA covering
          a faulting address asks the origin before declaring a segfault. *)
  | Vma_lookup_resp of { ticket : int; vma : Kernelmodel.Vma.vma option }
  (* --- page coherence --- *)
  | Coh of Coherence.Wire.t
      (** the coherence protocol's vocabulary (fault/pull/invalidate/
          downgrade/drop-range and their responses); requests route to
          [Page_coherence.handle], responses complete the ticket named by
          {!Coherence.Wire.resp_ticket}. *)
  (* --- distributed futex --- *)
  | Futex_wait_req of { pid : pid; addr : int; waiter : dfutex_waiter }
  | Futex_wait_cancel of { pid : pid; addr : int; wake_ticket : int }
  | Futex_wake_req of { ticket : int; pid : pid; addr : int; count : int }
  | Futex_wake_resp of { ticket : int; woken : int }
  | Futex_grant of { wake_ticket : int }
  (* --- VFS / remote syscalls --- *)
  | Vfs_req of { ticket : int; pid : pid; op : vfs_op }
  | Vfs_resp of {
      ticket : int;
      result : (int, string) result;
          (** fd for open, byte count for read/write, 0 for close. *)
      data_bytes : int;  (** read payload travelling with the response. *)
    }
  (* --- single-system image / balancing --- *)
  | Task_list_req of { ticket : int }
  | Task_list_resp of { ticket : int; tids : (tid * pid) list }
  | Load_query of { ticket : int }
      (** balancer heartbeat: how many threads are assigned to your cores? *)
  | Load_info of { ticket : int; load : int }
  | Work_req of { ticket : int; cost_ns : int }
      (** dispatcher -> worker kernel: serve one request costing [cost_ns]
          of CPU on one of your cores (see {!Placement}). *)
  | Work_resp of { ticket : int }

and vfs_op =
  | Vfs_open of string
  | Vfs_read of { fd : int; len : int }
  | Vfs_write of { fd : int; len : int }
  | Vfs_seek of { fd : int; pos : int }
  | Vfs_close of int

(** Instruction-set architecture of a kernel. The ICDCS'15 system is
    homogeneous x86; heterogeneous-ISA migration (the project's published
    follow-on direction) is modelled by a context-transformation cost when
    a thread crosses an ISA boundary. *)
type arch = X86_64 | Arm64

(** Server-side VFS state (lives on the device-owning kernel, kernel 0):
    a file table plus per-process fd tables with server-side cursors. *)
type vfs_file = { mutable size : int; mutable version : int }

type vfs_fd = { file : vfs_file; mutable pos : int }

type vfs_state = {
  files : (string, vfs_file) Hashtbl.t;
  fds : (pid * int, vfs_fd) Hashtbl.t;
  mutable next_fd : int;
  mutable vfs_ops : int;
}

(** Balancer advice for one thread: migrate to [hint_dst]. Stamped with its
    creation time so unconsumed hints can be expired ({!Balancer}). *)
type migrate_hint = { hint_dst : int; hint_at : Time.t }

(** One kernel of the replicated-kernel OS. *)
type kernel = {
  kid : int;
  arch : arch;
  cores : Hw.Topology.core list;
  home_core : Hw.Topology.core;
  sched : Kernelmodel.Sched.t;
  pid_alloc : Kernelmodel.Ids.allocator;
  tid_alloc : Kernelmodel.Ids.allocator;
  replicas : (pid, replica) Hashtbl.t;
  local_futex : Kernelmodel.Futex.t;  (** fast path for local-only groups. *)
  mm_lock : Hw.Spinlock.t;  (** per-kernel mm lock (locally contended). *)
  rpc : payload Msg.Rpc.t;  (** response matching for this kernel's calls. *)
  tasks : (tid, Kernelmodel.Task.t) Hashtbl.t;  (** tasks hosted here. *)
  migrate_hints : (tid, migrate_hint) Hashtbl.t;
      (** balancer advice: tid -> suggested destination kernel; consumed
          by the thread at its next cooperative migration point, or expired
          by the balancer if the thread never reaches one. *)
}

type cluster = {
  machine : Hw.Machine.t;
  kernels : kernel array;
  fabric : payload Msg.Transport.t;
  procs : (pid, process) Hashtbl.t;  (** pid -> master record (at origin). *)
  stride : int;  (** number of kernels; pid/tid partition stride. *)
  opts : options;
  coh_stats : Coherence.Stats.t;
      (** always-on coherence traffic counters (zero simulated cost);
          what R3 reads to compare directory load per protocol. *)
  vfs : vfs_state;  (** served by kernel 0 (the device owner). *)
  mutable tracer : Trace.t option;
      (** protocol-event trace, when enabled ([Cluster.enable_tracing]). *)
  (* The engine labels of thread and process-main fibers, interned at
     boot so a spawn hashes nothing. *)
  thread_label : Engine.label;
  main_label : Engine.label;
}

and options = {
  reap_on_exit : bool;
      (** when the last thread exits, tear down replicas and free frames
          cluster-wide (true OS behaviour). Off by default so post-mortem
          inspection — which the invariant tests rely on — sees the final
          protocol state. *)
  arch_of_kernel : int -> arch;
      (** ISA per kernel (default: all x86-64). Heterogeneous clusters pay
          a context transformation on cross-ISA migration. *)
  migration_prefetch : int;
      (** after a migration, eagerly re-fault up to this many of the
          thread's recently-touched pages at the destination (0 = purely
          on-demand, the paper's default). *)
  use_dummy_pool : bool;
      (** pre-spawn dummy threads at remote kernels (paper's optimisation);
          when false every import pays full task-construction cost. *)
  read_replication : bool;
      (** allow read-only page replicas; when false every remote fault
          migrates the page exclusively (ablation). *)
  coherence : Coherence.Protocol.t;
      (** which page-coherence protocol the cluster runs: the paper's
          origin-home directory (default) or the vpn-sharded directory
          (see [Page_coherence]). *)
  migration_retry : Msg.Rpc.retry_policy option;
      (** when set, migration requests are retransmitted under this policy
          instead of waiting forever, and a migration that exhausts its
          retries falls back to re-animating the thread on the origin
          kernel (graceful degradation under an unreliable fabric). [None]
          (the default) preserves the fault-free blocking behaviour. *)
}

let default_options =
  {
    reap_on_exit = false;
    arch_of_kernel = (fun _ -> X86_64);
    migration_prefetch = 0;
    use_dummy_pool = true;
    read_replication = true;
    coherence = Coherence.Protocol.Origin_home;
    migration_retry = None;
  }

let eng cluster = cluster.machine.Hw.Machine.eng
let params cluster = cluster.machine.Hw.Machine.params
let kernel_of cluster kid = cluster.kernels.(kid)
let nkernels cluster = Array.length cluster.kernels

let find_replica kernel pid = Hashtbl.find_opt kernel.replicas pid

let replica_exn kernel pid =
  match find_replica kernel pid with
  | Some r -> r
  | None ->
      invalid_arg
        (Printf.sprintf "kernel %d has no replica of pid %d" kernel.kid pid)

let proc_exn cluster pid =
  match Hashtbl.find_opt cluster.procs pid with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "no process with pid %d" pid)

(** Wire sizes (bytes) of each message, for transport cost modelling. *)
module Wire = struct
  let header = 48
  let vma_bytes = 40

  let vma_list = function
    | None -> 0
    | Some l -> List.length l * vma_bytes

  let size = function
    | Thread_spawn_req _ -> header + 16
    | Thread_spawn_resp _ -> header + 8
    | Thread_create_req { vma_proto; _ } -> header + 64 + vma_list vma_proto
    | Thread_create_ack _ -> header
    | Migrate_req { task; _ } ->
        header + Kernelmodel.Context.size_bytes task.Kernelmodel.Task.ctx
    | Migrate_ack _ -> header + 8
    | Migrate_cancel _ -> header + 16
    | Group_exit_notify _ -> header
    | Thread_exit_notify _ -> header
    | Exit_group_req _ | Exit_group_resp _ | Exit_group_cmd _ -> header + 8
    | Kill_req _ -> header + 16
    | Kill_resp _ -> header + 8
    | Mmap_req _ | Munmap_req _ | Mprotect_req _ -> header + 32
    | Mmap_resp _ | Munmap_resp _ | Mprotect_resp _ -> header + vma_bytes
    | Vma_remove _ | Vma_protect _ -> header + vma_bytes
    | Vma_ack _ -> header
    | Vma_fetch_req _ -> header
    | Vma_fetch_resp { vmas; _ } -> header + vma_list (Some vmas)
    | Vma_lookup_req _ -> header + 8
    | Vma_lookup_resp _ -> header + vma_bytes
    | Coh w -> header + Coherence.Wire.size w
    | Futex_wait_req _ | Futex_wait_cancel _ | Futex_wake_req _
    | Futex_wake_resp _ | Futex_grant _ ->
        header + 24
    | Task_list_req _ -> header
    | Task_list_resp { tids; _ } -> header + (List.length tids * 8)
    | Load_query _ -> header
    | Load_info _ -> header + 8
    | Work_req _ -> header + 16
    | Work_resp _ -> header + 8
    | Vfs_req { op; _ } -> (
        header
        +
        match op with
        | Vfs_open path -> String.length path
        | Vfs_read _ -> 16
        | Vfs_write { len; _ } -> 16 + len
        | Vfs_seek _ -> 16
        | Vfs_close _ -> 8)
    | Vfs_resp { data_bytes; _ } -> header + 8 + data_bytes
end

(** Emit a protocol trace event (cheap no-op unless tracing is enabled). *)
let trace cluster ~cat fmt =
  match cluster.tracer with
  | None -> Printf.ikfprintf (fun _ -> ()) () fmt
  | Some tr ->
      Printf.ksprintf
        (fun msg ->
          Trace.emit tr ~at:(Engine.now cluster.machine.Hw.Machine.eng) ~cat
            msg)
        fmt

(** Metric helpers: route to the machine's registry when one is attached
    ([Hw.Machine.attach_obs]); free no-ops otherwise. *)
let m_incr cluster ?kernel name = Hw.Machine.metric_incr cluster.machine ?kernel name
let m_add cluster ?kernel name n = Hw.Machine.metric_add cluster.machine ?kernel name n

let m_observe cluster ?kernel name x =
  Hw.Machine.metric_observe cluster.machine ?kernel name x

(** Span helpers: open/close a protocol-phase span at the current simulated
    time when a recorder is attached; [None] (and no cost) otherwise.
    [?cause] is the id of the delivered message this span handles
    ({!Msg.Transport.delivery}); it records the message -> span edge of the
    cross-kernel happens-before DAG ({!Obs.Causal}). *)
let sp_begin cluster ?parent ?cause ?tid ~kernel kind =
  match cluster.machine.Hw.Machine.spans with
  | None -> None
  | Some rec_ ->
      let parent = Option.map (fun (p : Obs.Span.span) -> p.Obs.Span.id) parent in
      let sp =
        Obs.Span.start rec_ ?parent ?tid ~kernel
          ~at:(Engine.now cluster.machine.Hw.Machine.eng) kind
      in
      (match cause with
      | Some id ->
          Hw.Machine.causal_link cluster.machine ~id ~span:sp.Obs.Span.id
      | None -> ());
      Some sp

let sp_end cluster sp =
  match sp with
  | None -> ()
  | Some sp ->
      Obs.Span.finish sp ~at:(Engine.now cluster.machine.Hw.Machine.eng)

let pp_arch fmt = function
  | X86_64 -> Format.pp_print_string fmt "x86_64"
  | Arm64 -> Format.pp_print_string fmt "arm64"

(** Send helpers: every cross-kernel interaction funnels through these.
    [?span] stamps the message with the protocol span it is sent from, so
    the causal log can chain origin spans to the destination's handler
    spans across the wire. *)
let span_id = function
  | None -> None
  | Some (s : Obs.Span.span) -> Some s.Obs.Span.id

let send ?span cluster ~src ~dst payload =
  Msg.Transport.send cluster.fabric ?from_span:(span_id span) ~src ~dst
    ~bytes:(Wire.size payload) payload

let send_from ?span cluster ~src ~src_core ~dst payload =
  Msg.Transport.send_from_core cluster.fabric ?from_span:(span_id span) ~src
    ~src_core ~dst ~bytes:(Wire.size payload) payload
