(** Creation and bookkeeping of distributed processes and their per-kernel
    replicas. *)

open Types
module K = Kernelmodel

(** Cost of constructing a task struct + kernel stack from scratch, vs.
    adopting a pre-spawned dummy thread from the pool. Calibrated against
    the gap the paper exploits: a full fork-style task construction is an
    order of magnitude more expensive than re-animating a parked dummy. *)
let task_construct_cost = Sim.Time.us 12
let dummy_adopt_cost = Sim.Time.us 1

(* Dummy threads pre-spawned per remote replica, and the level the
   background refill restores. *)
let dummy_pool_size = 8

let create_master cluster ~(origin : kernel) : process =
  let pid = K.Ids.next origin.pid_alloc in
  let proc =
    {
      pid;
      origin = origin.kid;
      member_kernels = [ origin.kid ];
      live_threads = 0;
      directory = Hashtbl.create 512;
      page_version = Hashtbl.create 512;
      dfutex_queues = Hashtbl.create 16;
      fault_locks = Hashtbl.create 64;
      exit_waiters = Sim.Waitq.create ~eng:(eng cluster) ();
    }
  in
  Hashtbl.replace cluster.procs pid proc;
  proc

let create_replica (kernel : kernel) (proc : process)
    ~(vma_proto : K.Vma.vma list) : replica =
  let vmas = K.Vma.create () in
  List.iter
    (fun (v : K.Vma.vma) ->
      match
        K.Vma.map vmas ~fixed:v.K.Vma.start ~len:v.K.Vma.len
          ~prot:v.K.Vma.prot ~kind:v.K.Vma.kind ()
      with
      | Ok _ -> ()
      | Error e -> invalid_arg ("create_replica: bad prototype: " ^ e))
    vma_proto;
  let r =
    {
      proc;
      vmas;
      pt = K.Page_table.create ();
      page_data = Hashtbl.create 256;
      members = [];
      dummy_pool = 0;
      distributed = false;
    }
  in
  Hashtbl.replace kernel.replicas proc.pid r;
  r

(** Mark a process as spanning kernels; flips the fast-path flag on every
    replica the caller knows about. *)
let mark_distributed (proc : process) (cluster : cluster) =
  List.iter
    (fun kid ->
      match find_replica (kernel_of cluster kid) proc.pid with
      | Some r -> r.distributed <- true
      | None -> ())
    proc.member_kernels

let add_member_kernel (proc : process) kid =
  if not (List.mem kid proc.member_kernels) then
    proc.member_kernels <- kid :: proc.member_kernels

(** Charge the cost of obtaining a task struct: adopt a pre-spawned dummy
    thread from the pool when the optimisation is on and the pool is
    non-empty, else construct from scratch. *)
let charge_task_acquisition cluster (r : replica) =
  if cluster.opts.use_dummy_pool && r.dummy_pool > 0 then begin
    r.dummy_pool <- r.dummy_pool - 1;
    Proto_util.kernel_work cluster dummy_adopt_cost;
    (* Refill the pool in the background, as Popcorn's refill worker does. *)
    Sim.Engine.spawn (eng cluster) ~tag:"popcorn" ~name:"dummy-refill" (fun () ->
        if r.dummy_pool < dummy_pool_size then begin
          Proto_util.kernel_work cluster task_construct_cost;
          r.dummy_pool <- r.dummy_pool + 1
        end)
  end
  else Proto_util.kernel_work cluster task_construct_cost

(** Create a brand-new task on [kernel]. Charges acquisition cost and
    counts a new live thread. *)
let make_task cluster (kernel : kernel) (r : replica) ~tid ~ctx =
  charge_task_acquisition cluster r;
  let task = K.Task.create ~tid ~tgid:r.proc.pid ~kernel:kernel.kid ~ctx in
  Hashtbl.replace kernel.tasks tid task;
  r.members <- task :: r.members;
  r.proc.live_threads <- r.proc.live_threads + 1;
  task

(** Adopt a migrating task on [kernel]: same acquisition cost, but the
    thread already exists group-wide, so the live count is unchanged. *)
let adopt_task cluster (kernel : kernel) (r : replica)
    (task : K.Task.t) =
  charge_task_acquisition cluster r;
  Hashtbl.replace kernel.tasks task.K.Task.tid task;
  r.members <- task :: r.members

(** Pre-populate a replica's dummy pool (done when a replica is created on
    a remote kernel, off the critical path in the real system; here we just
    set the counter since the spawning happened "earlier"). *)
let prime_dummy_pool cluster (r : replica) =
  if cluster.opts.use_dummy_pool then r.dummy_pool <- dummy_pool_size

(** Remove a task from this kernel's tables. The group-wide live count is
    owned by the origin; callers route the decrement there (directly when
    on the origin, via [Thread_exit_notify] otherwise). *)
let remove_member_local (kernel : kernel) (task : K.Task.t) =
  let r = replica_exn kernel task.K.Task.tgid in
  r.members <- List.filter (fun t -> t != task) r.members;
  Hashtbl.remove kernel.tasks task.K.Task.tid

(** Free everything a kernel's replica holds (frames, translations,
    cached content) and drop the replica. *)
let reap_replica cluster (kernel : kernel) pid =
  match find_replica kernel pid with
  | None -> ()
  | Some r ->
      K.Page_table.iter r.pt (fun ~vpn:_ pte ->
          Hw.Memory.free cluster.machine.Hw.Machine.mem pte.K.Page_table.frame);
      Hashtbl.remove kernel.replicas pid

(** Origin-side full teardown: local replica, directory, master tables,
    and an async cleanup notification to every member kernel. *)
let reap cluster (origin : kernel) (proc : process) =
  reap_replica cluster origin proc.pid;
  Hashtbl.reset proc.directory;
  Hashtbl.reset proc.page_version;
  Hashtbl.reset proc.fault_locks;
  List.iter
    (fun kid ->
      if kid <> origin.kid then
        send cluster ~src:origin.kid ~dst:kid
          (Group_exit_notify { pid = proc.pid; from_kernel = origin.kid }))
    proc.member_kernels

(** Member-kernel cleanup on group death. *)
let handle_group_exit_notify cluster (kernel : kernel) ~pid =
  Proto_util.kernel_work cluster (Sim.Time.us 1);
  reap_replica cluster kernel pid

(** Origin-side: account one thread exit; the last one wakes waiters and,
    with [reap_on_exit], tears the process down cluster-wide. *)
let note_thread_exit cluster (origin : kernel) (proc : process) =
  proc.live_threads <- proc.live_threads - 1;
  if proc.live_threads = 0 then begin
    ignore (Sim.Waitq.wake_all proc.exit_waiters ());
    if cluster.opts.reap_on_exit then reap cluster origin proc
  end
