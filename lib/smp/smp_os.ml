(** The SMP Linux baseline: one shared kernel image over all cores.

    Same mechanisms as the Popcorn model (tasks, VMAs, demand faulting,
    futexes) but with the shared-memory structure of a symmetric monolithic
    kernel: one task list under a global lock, one VMA tree per process
    under an [mmap_sem] whose cache line every core hammers, one futex hash
    table with bucket spinlocks, and TLB shootdown IPIs to every core
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

let n_futex_buckets = 64

let boot (machine : Hw.Machine.t) : t =
  let eng = machine.Hw.Machine.eng in
  let params = machine.Hw.Machine.params in
  let topo = machine.Hw.Machine.topo in
  {
    machine;
    sched = K.Sched.create eng params ~cores:(Hw.Topology.all_cores topo) ();
    tasklist_lock = Hw.Spinlock.create eng params topo ~name:"tasklist_lock";
    pid_alloc = K.Ids.make_shared ();
    tid_alloc = K.Ids.make_shared ();
    futex = K.Futex.create eng;
    futex_buckets =
      Array.init n_futex_buckets (fun i ->
          Hw.Spinlock.create eng params topo
            ~name:(Printf.sprintf "futex_bucket.%d" i));
    procs = Hashtbl.create 16;
    tasks = Hashtbl.create 256;
    thread_label = Engine.label eng ~tag:"smp" "smp-thread";
    main_label = Engine.label eng ~tag:"smp" "smp-proc-main";
  }

let eng t = t.machine.Hw.Machine.eng
let params t = t.machine.Hw.Machine.params
let topo t = t.machine.Hw.Machine.topo

let syscall t = Engine.sleep (eng t) (params t).Hw.Params.syscall_overhead

(* Multiplicative hash, like Linux's futex key hashing — page-aligned
   addresses must not all collide into one bucket. *)
let bucket t addr =
  let h = addr * 0x61C88647 land max_int in
  t.futex_buckets.((h lsr 16) mod n_futex_buckets)

(* Same initial layout as the Popcorn model, for like-for-like timing. *)
let initial_layout =
  [
    { K.Vma.start = 0x400000; len = 0x100000; prot = K.Vma.prot_rx; kind = K.Vma.File "a.out" };
    { K.Vma.start = 0x800000; len = 0x400000; prot = K.Vma.prot_rw; kind = K.Vma.Heap };
    { K.Vma.start = 0x7FFD_0000_0000; len = 0x200000; prot = K.Vma.prot_rw; kind = K.Vma.Stack };
  ]

let task_construct_cost = Time.us 12
let clone_bookkeeping_cost = Time.us 2
let vma_op_cost = Time.ns 350
let frame_alloc_cost = Time.ns 300
let zero_page_cost = Time.ns 600
let futex_op_cost = Time.ns 250

let create_process t : process * K.Task.t =
  let pid = K.Ids.next t.pid_alloc in
  let vmas = K.Vma.create () in
  List.iter
    (fun (v : K.Vma.vma) ->
      match
        K.Vma.map vmas ~fixed:v.K.Vma.start ~len:v.K.Vma.len ~prot:v.K.Vma.prot
          ~kind:v.K.Vma.kind ()
      with
      | Ok _ -> ()
      | Error e -> invalid_arg e)
    initial_layout;
  let proc =
    {
      pid;
      vmas;
      pt = K.Page_table.create ();
      page_version = Hashtbl.create 256;
      mmap_sem =
        Rwsem.create (eng t) (params t) (topo t)
          ~name:(Printf.sprintf "mmap_sem.%d" pid);
      mm_line =
        Hw.Cacheline.create (eng t) (params t) (topo t)
          ~name:(Printf.sprintf "mm.%d" pid);
      live_threads = 0;
      threads_per_core = Hashtbl.create 16;
      exit_waiters = Waitq.create ~eng:(eng t) ();
    }
  in
  Hashtbl.replace t.procs pid proc;
  let tid = K.Ids.next t.tid_alloc in
  let ctx = K.Context.fresh (Engine.rng (eng t)) ~use_fpu:false in
  let task = K.Task.create ~tid ~tgid:pid ~kernel:0 ~ctx in
  Hashtbl.replace t.tasks tid task;
  proc.live_threads <- 1;
  (proc, task)

let note_core proc core delta =
  let cur =
    match Hashtbl.find_opt proc.threads_per_core core with
    | Some n -> n
    | None -> 0
  in
  let n = cur + delta in
  if n <= 0 then Hashtbl.remove proc.threads_per_core core
  else Hashtbl.replace proc.threads_per_core core n

(** Cores (other than [core]) currently running threads of [proc]; the TLB
    shootdown victim set. *)
let other_cores proc ~core =
  Hashtbl.fold
    (fun c _ acc -> if c = core then acc else c :: acc)
    proc.threads_per_core []

(* Modelled pthread stack, mmapped at create (never unmapped: glibc's
   stack cache), same size as the Popcorn model uses. *)
let stack_len = 16 * 4096

(** pthread_create: stack mmap under mmap_sem (write), then
    clone(CLONE_VM|CLONE_THREAD) — global task list insertion under the
    tasklist lock plus an atomic on the shared mm counters. *)
let clone t (proc : process) ~core : K.Task.t =
  Hw.Machine.metric_incr t.machine "threads.spawned";
  syscall t;
  Rwsem.with_write proc.mmap_sem ~core (fun () ->
      Engine.sleep (eng t) vma_op_cost;
      match
        K.Vma.map proc.vmas ~len:stack_len ~prot:K.Vma.prot_rw
          ~kind:K.Vma.Stack ()
      with
      | Ok _ -> ()
      | Error e -> failwith ("thread stack allocation failed: " ^ e));
  Engine.sleep (eng t) clone_bookkeeping_cost;
  Hw.Cacheline.access proc.mm_line ~core;
  Hw.Spinlock.with_lock t.tasklist_lock ~core (fun () ->
      Engine.sleep (eng t) (Time.ns 200));
  Engine.sleep (eng t) task_construct_cost;
  let tid = K.Ids.next t.tid_alloc in
  let ctx = K.Context.fresh (Engine.rng (eng t)) ~use_fpu:false in
  let task = K.Task.create ~tid ~tgid:proc.pid ~kernel:0 ~ctx in
  Hashtbl.replace t.tasks tid task;
  proc.live_threads <- proc.live_threads + 1;
  task

let exit_thread t (proc : process) (task : K.Task.t) =
  Hw.Machine.metric_incr t.machine "threads.exited";
  syscall t;
  let core = match task.K.Task.core with Some c -> c | None -> 0 in
  Hw.Cacheline.access proc.mm_line ~core;
  Hw.Spinlock.with_lock t.tasklist_lock ~core (fun () ->
      Engine.sleep (eng t) (Time.ns 200));
  Hashtbl.remove t.tasks task.K.Task.tid;
  K.Task.set_state task (K.Task.Exited 0);
  (match task.K.Task.core with Some c -> note_core proc c (-1) | None -> ());
  proc.live_threads <- proc.live_threads - 1;
  if proc.live_threads = 0 then ignore (Waitq.wake_all proc.exit_waiters ())

(** fork(): new process inheriting the parent's layout COW-style (page
    tables copied; data materialises on first touch). Serialises on the
    global task-list lock and reads the parent's layout under its
    mmap_sem. *)
let fork t (parent : process) ~core : process * K.Task.t =
  Hw.Machine.metric_incr t.machine "process.forks";
  syscall t;
  Engine.sleep (eng t) (Time.us 4);
  let layout =
    Rwsem.with_read parent.mmap_sem ~core (fun () ->
        Engine.sleep (eng t)
          (Time.scale (K.Vma.count parent.vmas) vma_op_cost);
        K.Vma.vmas parent.vmas)
  in
  Engine.sleep (eng t)
    (Time.scale (Hashtbl.length parent.page_version) (Time.ns 150));
  Hw.Spinlock.with_lock t.tasklist_lock ~core (fun () ->
      Engine.sleep (eng t) (Time.ns 200));
  Engine.sleep (eng t) task_construct_cost;
  let pid = K.Ids.next t.pid_alloc in
  let vmas = K.Vma.create () in
  List.iter
    (fun (v : K.Vma.vma) ->
      match
        K.Vma.map vmas ~fixed:v.K.Vma.start ~len:v.K.Vma.len ~prot:v.K.Vma.prot
          ~kind:v.K.Vma.kind ()
      with
      | Ok _ -> ()
      | Error e -> invalid_arg e)
    layout;
  let child =
    {
      pid;
      vmas;
      pt = K.Page_table.create ();
      page_version = Hashtbl.copy parent.page_version;
      mmap_sem =
        Rwsem.create (eng t) (params t) (topo t)
          ~name:(Printf.sprintf "mmap_sem.%d" pid);
      mm_line =
        Hw.Cacheline.create (eng t) (params t) (topo t)
          ~name:(Printf.sprintf "mm.%d" pid);
      live_threads = 1;
      threads_per_core = Hashtbl.create 16;
      exit_waiters = Waitq.create ~eng:(eng t) ();
    }
  in
  Hashtbl.replace t.procs pid child;
  let tid = K.Ids.next t.tid_alloc in
  let ctx = K.Context.fresh (Engine.rng (eng t)) ~use_fpu:false in
  let task = K.Task.create ~tid ~tgid:pid ~kernel:0 ~ctx in
  Hashtbl.replace t.tasks tid task;
  (child, task)

(** Free a dead process's frames (called when its last thread exits). *)
let reap t (proc : process) =
  K.Page_table.iter proc.pt (fun ~vpn:_ pte ->
      Hw.Memory.free t.machine.Hw.Machine.mem pte.K.Page_table.frame);
  Hashtbl.reset proc.page_version;
  Hashtbl.remove t.procs proc.pid

(* --- mm operations --- *)

let mmap t (proc : process) ~core ~len ~prot =
  syscall t;
  Rwsem.with_write proc.mmap_sem ~core (fun () ->
      Engine.sleep (eng t) vma_op_cost;
      K.Vma.map proc.vmas ~len ~prot ~kind:K.Vma.Anon ())

let shootdown t (proc : process) ~core =
  let victims = other_cores proc ~core in
  let p = params t in
  match victims with
  | [] -> Engine.sleep (eng t) p.Hw.Params.tlb_flush_local
  | _ ->
      (* Initiator IPIs every core running this mm and waits for acks. *)
      let cost =
        Time.add p.Hw.Params.ipi_latency
          (Time.scale (List.length victims)
             p.Hw.Params.tlb_shootdown_per_core)
      in
      Engine.sleep (eng t) (Time.add p.Hw.Params.tlb_flush_local cost)

let drop_pages t (proc : process) ~start ~len =
  let removed = K.Page_table.clear_range proc.pt ~start ~len in
  List.iter
    (fun (pte : K.Page_table.pte) ->
      Hw.Memory.free t.machine.Hw.Machine.mem pte.K.Page_table.frame)
    removed;
  let first = K.Page_table.vpn_of_addr start in
  let last = K.Page_table.vpn_of_addr (start + len - 1) in
  for vpn = first to last do
    Hashtbl.remove proc.page_version vpn
  done

let munmap t (proc : process) ~core ~start ~len =
  syscall t;
  Rwsem.with_write proc.mmap_sem ~core (fun () ->
      Engine.sleep (eng t) vma_op_cost;
      match K.Vma.unmap proc.vmas ~start ~len with
      | Error e -> Error e
      | Ok () ->
          drop_pages t proc ~start ~len;
          shootdown t proc ~core;
          Ok ())

let mprotect t (proc : process) ~core ~start ~len ~prot =
  syscall t;
  Rwsem.with_write proc.mmap_sem ~core (fun () ->
      Engine.sleep (eng t) vma_op_cost;
      match K.Vma.protect proc.vmas ~start ~len ~prot with
      | Error e -> Error e
      | Ok () ->
          drop_pages t proc ~start ~len;
          shootdown t proc ~core;
          Ok ())

(* --- memory access with demand faulting --- *)

let latest_version proc vpn =
  match Hashtbl.find_opt proc.page_version vpn with Some v -> v | None -> 0

let touch t (proc : process) ~core ~addr ~access :
    (K.Fault.classification, string) result =
  let p = params t in
  Engine.sleep (eng t) p.Hw.Params.l1_hit;
  match K.Fault.classify proc.vmas proc.pt ~addr ~access with
  | K.Fault.Present -> Ok K.Fault.Present
  | K.Fault.Segv -> Error "segmentation fault"
  | (K.Fault.Minor | K.Fault.Cow_or_upgrade) as c ->
      Hw.Machine.metric_incr t.machine "fault.serviced";
      Engine.sleep (eng t) p.Hw.Params.page_table_walk;
      Rwsem.with_read proc.mmap_sem ~core (fun () ->
          let vpn = K.Page_table.vpn_of_addr addr in
          (match K.Page_table.get proc.pt ~vpn with
          | Some pte ->
              K.Page_table.set proc.pt ~vpn
                { pte with K.Page_table.writable = true }
          | None ->
              Engine.sleep (eng t)
                (Time.add frame_alloc_cost zero_page_cost);
              let node = Hw.Topology.socket_of (topo t) core in
              let frame =
                Hw.Memory.alloc_exn t.machine.Hw.Machine.mem ~node
              in
              K.Page_table.set proc.pt ~vpn
                { K.Page_table.frame; writable = true });
          Engine.sleep (eng t) p.Hw.Params.page_table_walk);
      Ok c

let write t (proc : process) ~core ~addr =
  match touch t proc ~core ~addr ~access:K.Fault.Write with
  | Error e -> Error e
  | Ok _ ->
      let vpn = K.Page_table.vpn_of_addr addr in
      Hashtbl.replace proc.page_version vpn (latest_version proc vpn + 1);
      Ok ()

let read t (proc : process) ~core ~addr =
  match touch t proc ~core ~addr ~access:K.Fault.Read with
  | Error e -> Error e
  | Ok _ -> Ok (latest_version proc (K.Page_table.vpn_of_addr addr))

(* --- futexes --- *)

type wait_result = Woken | Timed_out

let futex_wait t (_proc : process) ~core ?timeout () ~addr : wait_result =
  Hw.Machine.metric_incr t.machine "futex.waits";
  syscall t;
  Hw.Spinlock.with_lock (bucket t addr) ~core (fun () ->
      Engine.sleep (eng t) futex_op_cost);
  match K.Futex.wait t.futex ~addr ?timeout () with
  | K.Futex.Woken -> Woken
  | K.Futex.Timed_out -> Timed_out

let futex_wake t (_proc : process) ~core ~addr ~count : int =
  Hw.Machine.metric_incr t.machine "futex.wakes";
  syscall t;
  Hw.Spinlock.with_lock (bucket t addr) ~core (fun () ->
      Engine.sleep (eng t) futex_op_cost);
  K.Futex.wake t.futex ~addr ~count

let wait_exit t proc =
  if proc.live_threads > 0 then Waitq.wait (eng t) proc.exit_waiters
