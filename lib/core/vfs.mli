(** Minimal virtual filesystem with remote-syscall forwarding.

    One kernel (kernel 0, modelling the owner of the storage device and
    its page cache) serves every file operation; threads on other kernels
    forward syscalls over the messaging layer, as Popcorn routes
    device-bound syscalls to the owning kernel. File descriptors are
    per-process with server-side cursors, so a group's threads share fds
    wherever they run. *)

open Types

val syscall :
  cluster ->
  kernel ->
  core:Hw.Topology.core ->
  pid:pid ->
  vfs_op ->
  (int, string) result
(** Issue one file syscall from a thread on [kernel]/[core]: served
    locally on the device-owning kernel, forwarded otherwise. The [int]
    result is the fd for open, the byte count for read/write, 0 for
    close. *)

val handle_req :
  cluster -> kernel -> src:int -> ticket:int -> pid:pid -> op:vfs_op -> unit
(** Server-side message handler (wired by [Cluster.dispatch]). *)

val total_ops : cluster -> int
