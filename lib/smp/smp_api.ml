(** Thread-handle API over {!Smp_os}, mirroring [Popcorn.Api] so workloads
    and benchmarks can drive both OS models through the same shapes. *)

open Sim
module K = Kernelmodel

type thread = { sys : Smp_os.t; proc : Smp_os.process; task : K.Task.t }

let current_core th =
  match th.task.K.Task.core with
  | Some c -> c
  | None -> invalid_arg "smp thread has no core"

let tid th = th.task.K.Task.tid
let pid th = th.proc.Smp_os.pid

let schedule_in th =
  let core = K.Sched.pick_core th.sys.Smp_os.sched in
  K.Sched.assign th.sys.Smp_os.sched core;
  th.task.K.Task.core <- Some core;
  Smp_os.note_core th.proc core 1;
  K.Task.set_state th.task K.Task.Running

let unschedule th =
  match th.task.K.Task.core with
  | Some core -> K.Sched.unassign th.sys.Smp_os.sched core
  | None -> ()

let compute th dt = K.Sched.compute_on th.sys.Smp_os.sched (current_core th) dt

(** Clone a thread running [body]; SMP has no placement targets — the
    scheduler picks the least-loaded core. *)
let spawn th body : K.Ids.tid =
  let task = Smp_os.clone th.sys th.proc ~core:(current_core th) in
  let child = { sys = th.sys; proc = th.proc; task } in
  Engine.spawn_label (Smp_os.eng th.sys) th.sys.Smp_os.thread_label
    (fun () ->
      schedule_in child;
      Engine.sleep (Smp_os.eng th.sys)
        (Smp_os.params th.sys).Hw.Params.context_switch;
      body child;
      unschedule child;
      Smp_os.exit_thread child.sys child.proc child.task);
  task.K.Task.tid

let mmap th ~len ~prot = Smp_os.mmap th.sys th.proc ~core:(current_core th) ~len ~prot

let munmap th ~start ~len =
  Smp_os.munmap th.sys th.proc ~core:(current_core th) ~start ~len

let mprotect th ~start ~len ~prot =
  Smp_os.mprotect th.sys th.proc ~core:(current_core th) ~start ~len ~prot

let read th ~addr = Smp_os.read th.sys th.proc ~core:(current_core th) ~addr
let write th ~addr = Smp_os.write th.sys th.proc ~core:(current_core th) ~addr

type wait_result = Smp_os.wait_result = Woken | Timed_out

let futex_wait th ?timeout ~addr () =
  Smp_os.futex_wait th.sys th.proc ~core:(current_core th) ?timeout () ~addr

let futex_wake th ~addr ~count =
  Smp_os.futex_wake th.sys th.proc ~core:(current_core th) ~addr ~count

(** fork(): child process running [main] with a COW-inherited address
    space. *)
let fork th main : Smp_os.process =
  let child, task = Smp_os.fork th.sys th.proc ~core:(current_core th) in
  let cth = { sys = th.sys; proc = child; task } in
  Engine.spawn_label (Smp_os.eng th.sys) th.sys.Smp_os.main_label
    (fun () ->
      schedule_in cth;
      Engine.sleep (Smp_os.eng th.sys)
        (Smp_os.params th.sys).Hw.Params.context_switch;
      main cth;
      unschedule cth;
      Smp_os.exit_thread cth.sys cth.proc cth.task;
      if child.Smp_os.live_threads = 0 then Smp_os.reap th.sys child);
  child

(** Start a process whose initial thread runs [main]. *)
let start_process sys main : Smp_os.process =
  let proc, task = Smp_os.create_process sys in
  let th = { sys; proc; task } in
  Engine.spawn_label (Smp_os.eng sys) sys.Smp_os.main_label
    (fun () ->
      schedule_in th;
      Engine.sleep (Smp_os.eng sys) (Smp_os.params sys).Hw.Params.context_switch;
      main th;
      unschedule th;
      Smp_os.exit_thread sys proc task);
  proc

let wait_exit sys proc = Smp_os.wait_exit sys proc
