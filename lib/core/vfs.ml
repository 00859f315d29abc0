(** Minimal virtual filesystem with remote-syscall forwarding.

    Single-system-image file semantics: one kernel (kernel 0, modelling the
    kernel that owns the storage device and its page cache) serves every
    file operation; threads on other kernels forward syscalls over the
    messaging layer, exactly as Popcorn routes device-bound syscalls to the
    owning kernel. File descriptors are per-process with server-side
    cursors, so a group's threads share fds wherever they run. *)

open Types

(* The kernel that owns the device. *)
let server_kernel = 0

(* Server-side cost: dentry/page-cache work plus per-byte copy charged via
   the wire size on remote ops; local ops charge the copy here. *)
let vfs_op_cost = Sim.Time.ns 600

let serve cluster ~pid ~(op : vfs_op) : (int, string) result * int =
  let vfs = cluster.vfs in
  Proto_util.kernel_work cluster vfs_op_cost;
  vfs.vfs_ops <- vfs.vfs_ops + 1;
  match op with
  | Vfs_open path ->
      let file =
        match Hashtbl.find_opt vfs.files path with
        | Some f -> f
        | None ->
            let f = { size = 0; version = 0 } in
            Hashtbl.add vfs.files path f;
            f
      in
      let fd = vfs.next_fd in
      vfs.next_fd <- fd + 1;
      Hashtbl.replace vfs.fds (pid, fd) { file; pos = 0 };
      (Ok fd, 0)
  | Vfs_read { fd; len } -> (
      match Hashtbl.find_opt vfs.fds (pid, fd) with
      | None -> (Error "bad file descriptor", 0)
      | Some e ->
          let n = max 0 (min len (e.file.size - e.pos)) in
          e.pos <- e.pos + n;
          (Ok n, n))
  | Vfs_write { fd; len } -> (
      match Hashtbl.find_opt vfs.fds (pid, fd) with
      | None -> (Error "bad file descriptor", 0)
      | Some e ->
          e.pos <- e.pos + len;
          e.file.size <- max e.file.size e.pos;
          e.file.version <- e.file.version + 1;
          (Ok len, 0))
  | Vfs_seek { fd; pos } -> (
      match Hashtbl.find_opt vfs.fds (pid, fd) with
      | None -> (Error "bad file descriptor", 0)
      | Some e ->
          if pos < 0 then (Error "invalid offset", 0)
          else begin
            e.pos <- pos;
            (Ok pos, 0)
          end)
  | Vfs_close fd ->
      if Hashtbl.mem vfs.fds (pid, fd) then begin
        Hashtbl.remove vfs.fds (pid, fd);
        (Ok 0, 0)
      end
      else (Error "bad file descriptor", 0)

(** Message handler on the server kernel. *)
let handle_req cluster (kernel : kernel) ~src ~ticket ~pid ~op =
  let result, data_bytes = serve cluster ~pid ~op in
  send cluster ~src:kernel.kid ~dst:src (Vfs_resp { ticket; result; data_bytes })

(** Issue one file syscall from a thread on [kernel]/[core]: served
    locally on the device-owning kernel, forwarded otherwise. *)
let syscall cluster (kernel : kernel) ~core ~pid (op : vfs_op) :
    (int, string) result =
  Proto_util.kernel_work cluster
    (params cluster).Hw.Params.syscall_overhead;
  if kernel.kid = server_kernel then begin
    (* Local: charge the data copy the wire would have carried. *)
    let result, data_bytes = serve cluster ~pid ~op in
    let copy_bytes =
      data_bytes + match op with Vfs_write { len; _ } -> len | _ -> 0
    in
    if copy_bytes > 0 then
      Proto_util.kernel_work cluster
        (Hw.Params.copy_cost (params cluster) ~bytes:copy_bytes
           ~cross_socket:false);
    result
  end
  else begin
    match
      Proto_util.call_from cluster ~src:kernel ~src_core:core
        ~dst:server_kernel (fun ~ticket -> Vfs_req { ticket; pid; op })
    with
    | Vfs_resp { result; _ } -> result
    | _ -> assert false
  end

let total_ops cluster = cluster.vfs.vfs_ops
