(** Distributed thread group creation.

    A process is a distributed thread group: its threads may live on any
    kernel while sharing one logical address space. Creation of a remote
    thread is mediated by the group's origin kernel so that membership,
    replica creation and layout replication stay ordered:

    requester -> origin  [Thread_spawn_req]
    origin    -> target  [Thread_create_req, with the layout snapshot iff
                          the target has no replica yet]
    target    -> origin  [Thread_create_ack]
    origin    -> requester [Thread_spawn_resp with the new tid]

    Local creation (clone on the same kernel) takes none of these hops. *)

open Types
module K = Kernelmodel

(* Kernel-side clone() work beyond task construction. *)
let clone_bookkeeping_cost = Sim.Time.us 2

(* Modelled thread stack (pthread stacks are mmapped at create; like glibc
   we never unmap them — exited threads' stacks go to the stack cache). *)
let stack_len = 16 * 4096

let new_context cluster =
  K.Context.fresh (Sim.Engine.rng (eng cluster)) ~use_fpu:false

(* Allocate the new thread's stack in the master layout; must run at the
   origin. Replicas learn about it lazily on first fault. *)
let alloc_stack cluster (origin : kernel) (proc : process) =
  let r = replica_exn origin proc.pid in
  Hw.Spinlock.with_lock origin.mm_lock ~core:origin.home_core (fun () ->
      Proto_util.kernel_work cluster (Sim.Time.ns 350);
      match
        K.Vma.map r.vmas ~len:stack_len ~prot:K.Vma.prot_rw
          ~kind:K.Vma.Stack ()
      with
      | Ok _ -> ()
      | Error e -> failwith ("thread stack allocation failed: " ^ e))

(** Create a thread locally on the origin kernel. Returns the new task. *)
let create_local cluster (kernel : kernel) (r : replica) : K.Task.t =
  Proto_util.kernel_work cluster
    (params cluster).Hw.Params.syscall_overhead;
  alloc_stack cluster kernel r.proc;
  Proto_util.kernel_work cluster clone_bookkeeping_cost;
  let tid = K.Ids.next kernel.tid_alloc in
  Process_model.make_task cluster kernel r ~tid ~ctx:(new_context cluster)

(** Ensure [kernel] has a replica of [proc], fetching the layout from the
    origin if needed. Runs on [kernel]. The replica must be created in the
    same event as the fetch response lands (no sleeps in between) so that
    no replicated layout push can slip past it. Another thread arriving
    on [kernel] may have created the replica while this one waited on the
    fetch; that replica may already hold pages, so it is kept. *)
let ensure_replica cluster (kernel : kernel) (proc : process) : replica =
  match find_replica kernel proc.pid with
  | Some r -> r
  | None ->
      if kernel.kid = proc.origin then
        invalid_arg "ensure_replica: origin lost its replica"
      else begin
        let resp =
          Proto_util.call cluster ~src:kernel ~dst:proc.origin
            (fun ~ticket -> Vma_fetch_req { ticket; pid = proc.pid })
        in
        match resp with
        | Vma_fetch_resp { vmas; _ } -> (
            match find_replica kernel proc.pid with
            | Some r -> r
            | None ->
                let r =
                  Process_model.create_replica kernel proc ~vma_proto:vmas
                in
                r.distributed <- true;
                Process_model.prime_dummy_pool cluster r;
                r)
        | _ -> assert false
      end

(** Target-side handler: actually build the thread. *)
let handle_thread_create cluster (kernel : kernel) ~src ~cause ~ticket ~pid
    ~new_tid ~vma_proto =
  let sp =
    sp_begin cluster ~cause ~tid:new_tid ~kernel:kernel.kid
      (Obs.Span.Custom "thread_import")
  in
  let proc = proc_exn cluster pid in
  let r =
    match (find_replica kernel pid, vma_proto) with
    | Some r, _ -> r
    | None, Some proto ->
        let r = Process_model.create_replica kernel proc ~vma_proto:proto in
        r.distributed <- true;
        Process_model.prime_dummy_pool cluster r;
        r
    | None, None -> ensure_replica cluster kernel proc
  in
  let task =
    Process_model.make_task cluster kernel r ~tid:new_tid
      ~ctx:(new_context cluster)
  in
  K.Task.set_state task K.Task.Ready;
  sp_end cluster sp;
  send ?span:sp cluster ~src:kernel.kid ~dst:src (Thread_create_ack { ticket })

(** Origin-side spawn coordination: allocate the tid and the stack, update
    membership, drive the target, return the tid. [?cause] is the message
    id of the [Thread_spawn_req] that triggered a remote-requester spawn. *)
let origin_spawn ?cause cluster (origin : kernel) (proc : process) ~target :
    tid =
  m_incr cluster ~kernel:target "threads.spawned";
  if target = origin.kid then
    (create_local cluster origin (replica_exn origin proc.pid)).K.Task.tid
  else begin
    let sp =
      sp_begin ?cause cluster ~kernel:origin.kid Obs.Span.Thread_group_create
    in
    alloc_stack cluster origin proc;
    let tid = K.Ids.next origin.tid_alloc in
    (* Membership and the optional snapshot are decided under the mm lock,
       mirroring handle_vma_fetch. *)
    let vma_proto =
      Hw.Spinlock.with_lock origin.mm_lock ~core:origin.home_core (fun () ->
          let already = List.mem target proc.member_kernels in
          Process_model.add_member_kernel proc target;
          Process_model.mark_distributed proc cluster;
          if already then None
          else
            Some (K.Vma.vmas (replica_exn origin proc.pid).vmas))
    in
    trace cluster ~cat:"spawn" "origin k%d creating tid %d on k%d"
      origin.kid tid target;
    (match
       Proto_util.call ?span:sp cluster ~src:origin ~dst:target
         (fun ~ticket ->
           Thread_create_req { ticket; pid = proc.pid; new_tid = tid; vma_proto })
     with
    | Thread_create_ack _ -> ()
    | _ -> assert false);
    sp_end cluster sp;
    tid
  end

(** Origin-side message handler for remote spawn requests. *)
let handle_thread_spawn cluster (kernel : kernel) ~src ~cause ~ticket ~pid
    ~target =
  let proc = proc_exn cluster pid in
  let tid = origin_spawn ~cause cluster kernel proc ~target in
  send cluster ~src:kernel.kid ~dst:src (Thread_spawn_resp { ticket; tid })

(** Application-facing spawn: create a thread of [pid] on [target] from a
    thread running on [kernel]/[core]. All spawns are coordinated by the
    origin (it owns the tid space, the membership list and the master
    layout for the stack allocation); spawns issued at the origin for the
    origin take the message-free path. Returns the new tid. *)
let spawn cluster (kernel : kernel) ~core ~pid ~target : tid =
  let r = replica_exn kernel pid in
  let proc = r.proc in
  if kernel.kid = proc.origin then origin_spawn cluster kernel proc ~target
  else begin
    Proto_util.kernel_work cluster
      (params cluster).Hw.Params.syscall_overhead;
    match
      Proto_util.call_from cluster ~src:kernel ~src_core:core
        ~dst:proc.origin (fun ~ticket ->
          Thread_spawn_req { ticket; pid; target })
    with
    | Thread_spawn_resp { tid; _ } -> tid
    | _ -> assert false
  end

(** Thread exit: tear down local membership and route the live-count
    decrement to the origin (which owns it). The last exit, observed at
    the origin, wakes the group's exit waiters. *)
let exit_thread cluster (kernel : kernel) (task : K.Task.t) =
  Proto_util.kernel_work cluster
    (params cluster).Hw.Params.syscall_overhead;
  K.Task.set_state task (K.Task.Exited 0);
  m_incr cluster ~kernel:kernel.kid "threads.exited";
  let proc = (replica_exn kernel task.K.Task.tgid).proc in
  Process_model.remove_member_local kernel task;
  if kernel.kid = proc.origin then
    Process_model.note_thread_exit cluster kernel proc
  else
    send cluster ~src:kernel.kid ~dst:proc.origin
      (Thread_exit_notify { pid = proc.pid })

(** Origin-side handler for remote exits. *)
let handle_thread_exit_notify cluster (kernel : kernel) ~pid =
  Proto_util.kernel_work cluster (Sim.Time.ns 200);
  Process_model.note_thread_exit cluster kernel (proc_exn cluster pid)

(* ------------------------------------------------------------------ *)
(* exit_group: terminate every member of the group on every kernel.    *)
(* ------------------------------------------------------------------ *)

(** Member-kernel handler: mark every local member exited and drop it.
    Parked fibers observe the kill at their next API operation. *)
let handle_exit_group_cmd cluster (kernel : kernel) ~src ~pid ~ack_ticket =
  Proto_util.kernel_work cluster (Sim.Time.us 1);
  (match find_replica kernel pid with
  | None -> ()
  | Some r ->
      List.iter
        (fun (t : K.Task.t) ->
          K.Task.set_state t (K.Task.Exited 137);
          Hashtbl.remove kernel.tasks t.K.Task.tid)
        r.members;
      r.members <- []);
  send cluster ~src:kernel.kid ~dst:src (Vma_ack { ticket = ack_ticket })

let origin_exit_group cluster (origin : kernel) (proc : process) =
  trace cluster ~cat:"exit" "exit_group pid %d (%d members)" proc.pid
    proc.live_threads;
  (* Terminate local members first, then every member kernel, then
     publish the death of the group. *)
  (match find_replica origin proc.pid with
  | None -> ()
  | Some r ->
      List.iter
        (fun (t : K.Task.t) ->
          K.Task.set_state t (K.Task.Exited 137);
          Hashtbl.remove origin.tasks t.K.Task.tid)
        r.members;
      r.members <- []);
  Proto_util.broadcast_and_wait cluster ~src:origin
    ~targets:(List.filter (fun k -> k <> origin.kid) proc.member_kernels)
    ~make:(fun ~ack_ticket -> Exit_group_cmd { pid = proc.pid; ack_ticket });
  proc.live_threads <- 0;
  ignore (Sim.Waitq.wake_all proc.exit_waiters ());
  if cluster.opts.reap_on_exit then Process_model.reap cluster origin proc

let handle_exit_group_req cluster (kernel : kernel) ~src ~ticket ~pid =
  origin_exit_group cluster kernel (proc_exn cluster pid);
  send cluster ~src:kernel.kid ~dst:src (Exit_group_resp { ticket })

(** Application-facing exit_group, callable from any member. *)
let exit_group cluster (kernel : kernel) ~core ~pid =
  Proto_util.kernel_work cluster
    (params cluster).Hw.Params.syscall_overhead;
  let proc = proc_exn cluster pid in
  if kernel.kid = proc.origin then origin_exit_group cluster kernel proc
  else
    match
      Proto_util.call_from cluster ~src:kernel ~src_core:core
        ~dst:proc.origin (fun ~ticket -> Exit_group_req { ticket; pid })
    with
    | Exit_group_resp _ -> ()
    | _ -> assert false

(* ------------------------------------------------------------------ *)
(* kill: terminate one thread wherever it lives.                       *)
(* ------------------------------------------------------------------ *)

(** Handler on the kernel believed to host [tid]. *)
let handle_kill_req cluster (kernel : kernel) ~src ~ticket ~pid ~tid =
  Proto_util.kernel_work cluster (Sim.Time.ns 500);
  let found =
    match Hashtbl.find_opt kernel.tasks tid with
    | Some task when task.K.Task.tgid = pid ->
        K.Task.set_state task (K.Task.Exited 137);
        Process_model.remove_member_local kernel task;
        let proc = proc_exn cluster pid in
        if kernel.kid = proc.origin then
          Process_model.note_thread_exit cluster kernel proc
        else
          send cluster ~src:kernel.kid ~dst:proc.origin
            (Thread_exit_notify { pid });
        true
    | Some _ | None -> false
  in
  send cluster ~src:kernel.kid ~dst:src (Kill_resp { ticket; found })

(** SIGKILL a thread by tid. Resolves the hosting kernel (pid-hash walk /
    origin forwarding in the real system) and delivers. Returns whether
    the thread was found alive. The victim's fiber observes the kill at
    its next API operation. *)
let kill cluster (kernel : kernel) ~core ~pid ~tid : bool =
  Proto_util.kernel_work cluster
    (params cluster).Hw.Params.syscall_overhead;
  match Ssi_locate.locate cluster ~tid with
  | None -> false
  | Some host when host = kernel.kid -> (
      match Hashtbl.find_opt kernel.tasks tid with
      | Some task when task.K.Task.tgid = pid ->
          K.Task.set_state task (K.Task.Exited 137);
          Process_model.remove_member_local kernel task;
          let proc = proc_exn cluster pid in
          if kernel.kid = proc.origin then
            Process_model.note_thread_exit cluster kernel proc
          else
            send cluster ~src:kernel.kid ~dst:proc.origin
              (Thread_exit_notify { pid });
          true
      | Some _ | None -> false)
  | Some host -> (
      match
        Proto_util.call_from cluster ~src:kernel ~src_core:core ~dst:host
          (fun ~ticket -> Kill_req { ticket; pid; tid })
      with
      | Kill_resp { found; _ } -> found
      | _ -> assert false)
