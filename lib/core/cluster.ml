(** Booting the replicated-kernel OS and dispatching inter-kernel
    messages to the subsystems. *)

open Types
module K = Kernelmodel

let dispatch cluster ~dst ~src ~(delivery : Msg.Transport.delivery) payload =
  let kernel = kernel_of cluster dst in
  (* The message id of the delivery that triggered this handler: handlers
     that open a span pass it as [?cause] so the span is causally linked to
     the message that started it (see {!Obs.Causal}). *)
  let cause = delivery.Msg.Transport.msg_id in
  match payload with
  (* thread groups & migration *)
  | Thread_spawn_req { ticket; pid; target } ->
      Thread_group.handle_thread_spawn cluster kernel ~src ~cause ~ticket
        ~pid ~target
  | Thread_create_req { ticket; pid; new_tid; vma_proto } ->
      Thread_group.handle_thread_create cluster kernel ~src ~cause ~ticket
        ~pid ~new_tid ~vma_proto
  | Migrate_req { ticket; pid; task } ->
      Migration.handle_migrate_req cluster kernel ~src ~cause ~ticket ~pid
        ~task
  | Migrate_cancel { pid; tid } ->
      Migration.handle_migrate_cancel cluster kernel ~pid ~tid
  | Group_exit_notify { pid; _ } ->
      Process_model.handle_group_exit_notify cluster kernel ~pid
  | Thread_exit_notify { pid } ->
      Thread_group.handle_thread_exit_notify cluster kernel ~pid
  | Exit_group_req { ticket; pid } ->
      Thread_group.handle_exit_group_req cluster kernel ~src ~ticket ~pid
  | Exit_group_cmd { pid; ack_ticket } ->
      Thread_group.handle_exit_group_cmd cluster kernel ~src ~pid ~ack_ticket
  | Kill_req { ticket; pid; tid } ->
      Thread_group.handle_kill_req cluster kernel ~src ~ticket ~pid ~tid
  (* address space *)
  | Mmap_req { ticket; pid; len; prot } ->
      Addr_consistency.handle_mmap_req cluster kernel ~src ~ticket ~pid ~len
        ~prot
  | Munmap_req { ticket; pid; start; len } ->
      Addr_consistency.handle_munmap_req cluster kernel ~src ~ticket ~pid
        ~start ~len
  | Mprotect_req { ticket; pid; start; len; prot } ->
      Addr_consistency.handle_mprotect_req cluster kernel ~src ~ticket ~pid
        ~start ~len ~prot
  | Vma_remove { pid; start; len; ack_ticket } ->
      Addr_consistency.handle_vma_remove cluster kernel ~src ~pid ~start ~len
        ~ack_ticket
  | Vma_protect { pid; start; len; prot; ack_ticket } ->
      Addr_consistency.handle_vma_protect cluster kernel ~src ~pid ~start
        ~len ~prot ~ack_ticket
  | Vma_fetch_req { ticket; pid } ->
      Addr_consistency.handle_vma_fetch cluster kernel ~src ~ticket ~pid
  | Vma_lookup_req { ticket; pid; addr } ->
      Addr_consistency.handle_vma_lookup cluster kernel ~src ~ticket ~pid
        ~addr
  (* page coherence: requests go to the active protocol, responses
     complete the ticket like every other RPC *)
  | Coh (Coherence.Wire.Req req) ->
      Page_coherence.handle cluster kernel ~src ~cause req
  | Coh (Coherence.Wire.Resp resp) ->
      Msg.Rpc.complete kernel.rpc
        ~ticket:(Coherence.Wire.resp_ticket resp)
        payload
  (* distributed futex *)
  | Futex_wait_req { pid; addr; waiter } ->
      Dfutex.handle_wait_req cluster kernel ~pid ~addr ~waiter
  | Futex_wait_cancel { pid; addr; wake_ticket } ->
      Dfutex.handle_wait_cancel cluster kernel ~pid ~addr ~wake_ticket
  | Futex_wake_req { ticket; pid; addr; count } ->
      Dfutex.handle_wake_req cluster kernel ~src ~ticket ~pid ~addr ~count
  | Futex_grant { wake_ticket } -> Dfutex.handle_grant kernel ~wake_ticket
  (* VFS / remote syscalls *)
  | Vfs_req { ticket; pid; op } ->
      Vfs.handle_req cluster kernel ~src ~ticket ~pid ~op
  (* single-system image / balancing *)
  | Task_list_req { ticket } ->
      Ssi.handle_task_list cluster kernel ~src ~cause ~ticket
  | Load_query { ticket } ->
      Balancer.handle_load_query cluster kernel ~src ~ticket
  | Work_req { ticket; cost_ns } ->
      Placement.handle_work_req cluster kernel ~src ~ticket ~cost_ns
  (* responses: complete the matching ticket on the receiving kernel *)
  | Thread_spawn_resp { ticket; _ }
  | Thread_create_ack { ticket }
  | Exit_group_resp { ticket }
  | Kill_resp { ticket; _ }
  | Migrate_ack { ticket; _ }
  | Mmap_resp { ticket; _ }
  | Munmap_resp { ticket; _ }
  | Mprotect_resp { ticket; _ }
  | Vma_ack { ticket }
  | Vma_fetch_resp { ticket; _ }
  | Vma_lookup_resp { ticket; _ }
  | Futex_wake_resp { ticket; _ }
  | Task_list_resp { ticket; _ }
  | Load_info { ticket; _ }
  | Work_resp { ticket }
  | Vfs_resp { ticket; _ } ->
      Msg.Rpc.complete kernel.rpc ~ticket payload

(** Boot a replicated-kernel OS: one kernel per contiguous block of
    [cores_per_kernel] cores. The machine must have
    [kernels * cores_per_kernel] cores. *)
let boot ?(opts = default_options) (machine : Hw.Machine.t) ~kernels
    ~cores_per_kernel : cluster =
  let eng = machine.Hw.Machine.eng in
  let total = Hw.Topology.total_cores machine.Hw.Machine.topo in
  if kernels * cores_per_kernel > total then
    invalid_arg "Cluster.boot: not enough cores";
  if kernels < 1 then invalid_arg "Cluster.boot: need at least one kernel";
  let cluster_ref = ref None in
  let fabric =
    Msg.Transport.create machine ~ring_slots:256
      ~handler:(fun _t ~dst ~src delivery payload ->
        match !cluster_ref with
        | Some cluster -> dispatch cluster ~dst ~src ~delivery payload
        | None -> assert false)
  in
  let make_kernel kid =
    let cores =
      List.init cores_per_kernel (fun i -> (kid * cores_per_kernel) + i)
    in
    let home_core = List.hd cores in
    Msg.Transport.add_node fabric kid ~home_core;
    {
      kid;
      arch = opts.arch_of_kernel kid;
      cores;
      home_core;
      sched =
        K.Sched.create eng machine.Hw.Machine.params ~cores ();
      pid_alloc = K.Ids.make_partitioned ~kernel:kid ~stride:kernels;
      tid_alloc =
        K.Ids.make_partitioned ~kernel:kid ~stride:kernels;
      replicas = Hashtbl.create 16;
      local_futex = K.Futex.create eng;
      mm_lock =
        Hw.Spinlock.create eng machine.Hw.Machine.params
          machine.Hw.Machine.topo
          ~name:(Printf.sprintf "mm_lock.k%d" kid);
      rpc = Msg.Rpc.create eng;
      tasks = Hashtbl.create 64;
      migrate_hints = Hashtbl.create 16;
    }
  in
  let cluster =
    {
      machine;
      kernels = Array.init kernels make_kernel;
      fabric;
      procs = Hashtbl.create 16;
      stride = kernels;
      opts;
      coh_stats = Coherence.Stats.create ();
      vfs =
        {
          files = Hashtbl.create 32;
          fds = Hashtbl.create 64;
          next_fd = 3;
          vfs_ops = 0;
        };
      tracer = None;
      thread_label = Sim.Engine.label eng ~tag:"popcorn" "thread";
      main_label = Sim.Engine.label eng ~tag:"popcorn" "proc-main";
    }
  in
  cluster_ref := Some cluster;
  cluster

(** Start collecting protocol events ([Types.trace] becomes live); returns
    the trace for inspection or [Sim.Trace.pp]. *)
let enable_tracing cluster =
  let tr = Sim.Trace.create () in
  cluster.tracer <- Some tr;
  tr

(** The sink's trace ring becomes the protocol tracer, and every kernel's
    RPC table gets its rpc.* counters routed to the sink's registry. *)
let observe cluster (sink : Obs.Sink.t) =
  cluster.tracer <- Some sink.trace;
  Array.iter
    (fun k -> Msg.Rpc.set_metrics k.rpc sink.metrics ~kernel:k.kid)
    cluster.kernels

(** Create a fresh single-threaded process on [origin_kernel] with an
    initial layout (code+stack+heap), returning (process, initial task). *)
let create_process cluster ~origin_kernel : process * K.Task.t =
  let kernel = kernel_of cluster origin_kernel in
  let proc = Process_model.create_master cluster ~origin:kernel in
  let initial_layout =
    [
      (* text *)
      { K.Vma.start = 0x400000; len = 0x100000; prot = K.Vma.prot_rx; kind = K.Vma.File "a.out" };
      (* heap *)
      { K.Vma.start = 0x800000; len = 0x400000; prot = K.Vma.prot_rw; kind = K.Vma.Heap };
      (* stack *)
      { K.Vma.start = 0x7FFD_0000_0000; len = 0x200000; prot = K.Vma.prot_rw; kind = K.Vma.Stack };
    ]
  in
  let r = Process_model.create_replica kernel proc ~vma_proto:initial_layout in
  let tid = K.Ids.next kernel.tid_alloc in
  let ctx =
    K.Context.fresh (Sim.Engine.rng (eng cluster)) ~use_fpu:false
  in
  (* Full construction for the initial thread; the dummy pool is primed
     afterwards, for imports. *)
  let task = Process_model.make_task cluster kernel r ~tid ~ctx in
  Process_model.prime_dummy_pool cluster r;
  (proc, task)
