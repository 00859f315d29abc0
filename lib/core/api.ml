(** Application-facing API of the replicated-kernel OS.

    Programs are OCaml closures receiving a {!thread} handle; the handle's
    operations mirror the Linux surface the paper's applications use —
    compute, clone (possibly onto another kernel), migrate, the mmap
    family, memory access (with demand faulting and coherence underneath),
    and futexes. Everything is location-transparent: the same program runs
    unchanged wherever its threads happen to live, which is the paper's
    single-system-image claim. *)

open Types
module K = Kernelmodel

type thread = {
  cluster : cluster;
  proc : process;
  task : K.Task.t;
}

exception Killed
(** Raised inside a thread's own operations once the thread has been
    terminated by [exit_group] or [kill]; the thread-body wrapper catches
    it, so user code may simply let it propagate. *)

let check_alive th = if not (K.Task.is_live th.task) then raise Killed

let current_kernel th = (kernel_of th.cluster th.task.K.Task.kernel : kernel)

let current_core th =
  match th.task.K.Task.core with
  | Some c -> c
  | None -> invalid_arg "thread has no core assigned"

let tid th = th.task.K.Task.tid
let pid th = th.proc.pid

(* Place a task on the emptiest core of its kernel and mark Running. *)
let schedule_in th =
  let kernel = current_kernel th in
  let core = K.Sched.pick_core kernel.sched in
  K.Sched.assign kernel.sched core;
  th.task.K.Task.core <- Some core;
  K.Task.set_state th.task K.Task.Running

(* Remove the task from its core's assignment on exit or migration away. *)
let unschedule th =
  match th.task.K.Task.core with
  | Some core ->
      let kernel = current_kernel th in
      if K.Sched.owns kernel.sched core then
        K.Sched.unassign kernel.sched core;
      th.task.K.Task.core <- None
  | None -> ()

(* Run [body th] on a fiber of its own: scheduled in, paying the
   dispatch-in cost before user code runs; on return (or once killed)
   unscheduled and exited, unless exit_group/kill already tore it down. *)
let launch th ~label body =
  Sim.Engine.spawn_label (eng th.cluster) label (fun () ->
      schedule_in th;
      Proto_util.kernel_work th.cluster
        (params th.cluster).Hw.Params.context_switch;
      (try body th with Killed -> ());
      let kernel_at_exit = current_kernel th in
      unschedule th;
      if K.Task.is_live th.task then
        Thread_group.exit_thread th.cluster kernel_at_exit th.task)

(** Migrate this thread to kernel [dst]; returns the migration cost
    breakdown. On return the thread is running on [dst]. [deadline] is an
    optional end-to-end budget (simulated ns) accounted by the SLO layer. *)
let migrate ?deadline th ~dst =
  check_alive th;
  let kernel = current_kernel th in
  Migration.migrate ?deadline th.cluster kernel ~core:(current_core th)
    th.task ~dst

(** Burn CPU on the thread's current core for the given duration. The end
    of a compute slice is a cooperative migration point: balancer hints
    are honoured here. *)
let compute th dt =
  check_alive th;
  let kernel = current_kernel th in
  K.Sched.compute_on kernel.sched (current_core th) dt;
  check_alive th;
  match Balancer.take_hint kernel ~tid:th.task.K.Task.tid with
  | Some dst when dst <> kernel.kid -> ignore (migrate th ~dst)
  | Some _ | None -> ()

(** Clone a new thread of this group onto [target] (default: this kernel)
    running [body]. Returns the new thread's tid without waiting for the
    body to finish. *)
let spawn th ?target body : K.Ids.tid =
  check_alive th;
  let kernel = current_kernel th in
  let target = match target with Some t -> t | None -> kernel.kid in
  let new_tid =
    Thread_group.spawn th.cluster kernel ~core:(current_core th)
      ~pid:th.proc.pid ~target
  in
  let target_kernel = kernel_of th.cluster target in
  let new_task =
    match Hashtbl.find_opt target_kernel.tasks new_tid with
    | Some t -> t
    | None -> invalid_arg "spawn: created task vanished"
  in
  launch
    { cluster = th.cluster; proc = th.proc; task = new_task }
    ~label:th.cluster.thread_label body;
  new_tid

(* --- memory --- *)

let replica th = replica_exn (current_kernel th) th.proc.pid

let mmap th ~len ~prot =
  check_alive th;
  let kernel = current_kernel th in
  Addr_consistency.mmap th.cluster kernel ~core:(current_core th)
    ~pid:th.proc.pid ~len ~prot

let munmap th ~start ~len =
  check_alive th;
  let kernel = current_kernel th in
  Addr_consistency.munmap th.cluster kernel ~core:(current_core th)
    ~pid:th.proc.pid ~start ~len

let mprotect th ~start ~len ~prot =
  check_alive th;
  let kernel = current_kernel th in
  Addr_consistency.mprotect th.cluster kernel ~core:(current_core th)
    ~pid:th.proc.pid ~start ~len ~prot

(* Touch with the lazy-VMA fill: a miss in the local replica's layout is
   resolved against the origin's master layout before being a segfault. *)
let touch_filling th ~addr ~access =
  check_alive th;
  K.Task.note_touch th.task ~vpn:(K.Page_table.vpn_of_addr addr);
  let kernel = current_kernel th in
  let r = replica th in
  let core = current_core th in
  match Page_coherence.touch th.cluster kernel r ~core ~addr ~access with
  | Error _ when kernel.kid <> th.proc.origin ->
      if
        Addr_consistency.fetch_vma th.cluster kernel ~core
          ~pid:th.proc.pid ~addr
      then Page_coherence.touch th.cluster kernel r ~core ~addr ~access
      else Error "segmentation fault"
  | res -> res

(** Read one word; faults (and replicates the page) as needed. Returns the
    content version visible to this thread — tests use it to check
    coherence; applications treat it as the loaded value. *)
let read th ~addr : (int, string) result =
  match touch_filling th ~addr ~access:K.Fault.Read with
  | Ok _ -> Ok (Page_coherence.read_version (replica th) ~addr)
  | Error e -> Error e

(** Write one word; acquires page ownership as needed and commits a new
    content version. *)
let write th ~addr : (unit, string) result =
  match touch_filling th ~addr ~access:K.Fault.Write with
  | Ok _ ->
      Page_coherence.write_commit (replica th) ~addr;
      Ok ()
  | Error e -> Error e

(* --- futexes --- *)

type wait_result = Dfutex.wait_result = Woken | Timed_out

let futex_wait th ?timeout ~addr () =
  check_alive th;
  let kernel = current_kernel th in
  Dfutex.wait th.cluster kernel ~core:(current_core th) ~pid:th.proc.pid
    ?timeout () ~addr

let futex_wake th ~addr ~count =
  check_alive th;
  let kernel = current_kernel th in
  Dfutex.wake th.cluster kernel ~core:(current_core th) ~pid:th.proc.pid
    ~addr ~count

(* --- files (SSI remote syscalls) --- *)

(** Open (creating if absent) a file; returns the fd, shared group-wide. *)
let open_file th ~path =
  check_alive th;
  let kernel = current_kernel th in
  Vfs.syscall th.cluster kernel ~core:(current_core th) ~pid:th.proc.pid
    (Vfs_open path)

(** Sequential read from the fd's cursor; returns bytes actually read. *)
let file_read th ~fd ~len =
  check_alive th;
  let kernel = current_kernel th in
  Vfs.syscall th.cluster kernel ~core:(current_core th) ~pid:th.proc.pid
    (Vfs_read { fd; len })

(** Sequential write at the fd's cursor; returns bytes written. *)
let file_write th ~fd ~len =
  check_alive th;
  let kernel = current_kernel th in
  Vfs.syscall th.cluster kernel ~core:(current_core th) ~pid:th.proc.pid
    (Vfs_write { fd; len })

(** Reposition the fd's (group-shared) cursor; returns the new offset. *)
let file_seek th ~fd ~pos =
  check_alive th;
  let kernel = current_kernel th in
  Vfs.syscall th.cluster kernel ~core:(current_core th) ~pid:th.proc.pid
    (Vfs_seek { fd; pos })

let close_file th ~fd =
  check_alive th;
  let kernel = current_kernel th in
  Result.map ignore
    (Vfs.syscall th.cluster kernel ~core:(current_core th) ~pid:th.proc.pid
       (Vfs_close fd))

(* --- processes --- *)

(** Start a new process whose initial thread runs [main] on kernel
    [origin]. Must be called from inside the simulation (a fiber). *)
let start_process cluster ~origin main : process =
  let proc, task = Cluster.create_process cluster ~origin_kernel:origin in
  launch { cluster; proc; task } ~label:cluster.main_label main;
  proc

(** Terminate every thread of this group, on every kernel (exit_group).
    Raises {!Killed} in the calling thread after the group is dead. *)
let exit_group th =
  check_alive th;
  let kernel = current_kernel th in
  Thread_group.exit_group th.cluster kernel ~core:(current_core th)
    ~pid:th.proc.pid;
  raise Killed

(** SIGKILL a thread of this group by tid; returns whether it was found
    alive. The victim observes the kill at its next operation. *)
let kill th ~tid =
  check_alive th;
  let kernel = current_kernel th in
  Thread_group.kill th.cluster kernel ~core:(current_core th)
    ~pid:th.proc.pid ~tid

(** fork(): create a child process (homed at this thread's kernel) whose
    initial thread runs [main] with a COW-inherited copy of this process's
    address space. Returns the child's process record. *)
let fork th main : process =
  check_alive th;
  let kernel = current_kernel th in
  let child, task =
    Fork.fork th.cluster kernel ~core:(current_core th) ~pid:th.proc.pid
  in
  launch
    { cluster = th.cluster; proc = child; task }
    ~label:th.cluster.main_label main;
  child

(** Park until every thread of [proc] has exited. *)
let wait_exit cluster proc = Ssi.wait_group_exit cluster proc

(** Global ps-style listing as seen from [kernel]. *)
let global_tasks th =
  Ssi.global_tasks th.cluster (current_kernel th)
