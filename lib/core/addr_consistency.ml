(** Distributed address-space consistency: the mmap family over replicated
    VMA trees.

    One kernel — the process's origin — owns the authoritative layout.
    Every kernel hosting members keeps a replica. An mmap/munmap/mprotect
    issued anywhere is forwarded to the origin, which serialises it under
    its (locally contended) mm lock, applies it to the master layout,
    pushes the delta to every replica in parallel, waits for acks, and
    replies. A process that lives on a single kernel never sends a message
    — the fast path that keeps Popcorn competitive with SMP Linux at low
    thread counts while avoiding the shared-lock collapse at high counts. *)

open Types
module K = Kernelmodel

(* VMA tree manipulation work per operation (interval-tree update). *)
let vma_op_cost = Sim.Time.ns 350

let other_members (proc : process) ~except =
  List.filter (fun k -> k <> except && k <> proc.origin) proc.member_kernels

(* ------------------------------------------------------------------ *)
(* Replica-side handlers                                               *)
(*                                                                     *)
(* VMA replication is lazy (as in Popcorn): mmap only updates the      *)
(* master layout at the origin; replicas learn about regions on their  *)
(* first fault via Vma_lookup. Destructive operations (munmap,         *)
(* mprotect) are pushed eagerly: each replica drops the affected       *)
(* range — layout and translations — and will refetch lazily.          *)
(* ------------------------------------------------------------------ *)

let drop_replica_range cluster (kernel : kernel) (r : replica) ~start ~len =
  Page_coherence.drop_range_local cluster kernel r ~start ~len;
  match K.Vma.unmap r.vmas ~start ~len with
  | Ok () -> ()
  | Error e -> failwith ("replica vma drop diverged: " ^ e)

let handle_vma_remove cluster (kernel : kernel) ~src ~pid ~start ~len
    ~ack_ticket =
  Proto_util.kernel_work cluster vma_op_cost;
  (match find_replica kernel pid with
  | None -> ()
  | Some r -> drop_replica_range cluster kernel r ~start ~len);
  send cluster ~src:kernel.kid ~dst:src (Vma_ack { ticket = ack_ticket })

let handle_vma_protect cluster (kernel : kernel) ~src ~pid ~start ~len
    ~prot:_ ~ack_ticket =
  Proto_util.kernel_work cluster vma_op_cost;
  (match find_replica kernel pid with
  | None -> ()
  | Some r -> drop_replica_range cluster kernel r ~start ~len);
  send cluster ~src:kernel.kid ~dst:src (Vma_ack { ticket = ack_ticket })

(* ------------------------------------------------------------------ *)
(* Origin-side implementation                                          *)
(* ------------------------------------------------------------------ *)

(** Apply an mmap at the origin. No push: replicas learn lazily on their
    first fault into the region ([requester] applies the RPC response). *)
let origin_mmap cluster (origin : kernel) (proc : process) ~requester:_ ~len
    ~prot =
  let r = replica_exn origin proc.pid in
  trace cluster ~cat:"mm" "k%d mmap pid %d len %d" origin.kid proc.pid len;
  Hw.Spinlock.with_lock origin.mm_lock ~core:origin.home_core (fun () ->
      Proto_util.kernel_work cluster vma_op_cost;
      K.Vma.map r.vmas ~len ~prot ~kind:K.Vma.Anon ())

let origin_munmap cluster (origin : kernel) (proc : process) ~requester
    ~start ~len =
  trace cluster ~cat:"mm" "k%d munmap pid %d %x+%x" origin.kid proc.pid start
    len;
  let r = replica_exn origin proc.pid in
  Hw.Spinlock.with_lock origin.mm_lock ~core:origin.home_core (fun () ->
      Proto_util.kernel_work cluster vma_op_cost;
      match K.Vma.unmap r.vmas ~start ~len with
      | Error e -> Error e
      | Ok () ->
          Page_coherence.drop_range_local cluster origin r ~start ~len;
          Proto_util.broadcast_and_wait cluster ~src:origin
            ~targets:(other_members proc ~except:requester)
            ~make:(fun ~ack_ticket ->
              Vma_remove { pid = proc.pid; start; len; ack_ticket });
          Page_coherence.drop_range_directory cluster origin proc ~start ~len
            ~keep_versions:false;
          Ok ())

let origin_mprotect cluster (origin : kernel) (proc : process) ~requester
    ~start ~len ~prot =
  let r = replica_exn origin proc.pid in
  Hw.Spinlock.with_lock origin.mm_lock ~core:origin.home_core (fun () ->
      Proto_util.kernel_work cluster vma_op_cost;
      match K.Vma.protect r.vmas ~start ~len ~prot with
      | Error e -> Error e
      | Ok () ->
          Page_coherence.drop_range_local cluster origin r ~start ~len;
          Proto_util.broadcast_and_wait cluster ~src:origin
            ~targets:(other_members proc ~except:requester)
            ~make:(fun ~ack_ticket ->
              Vma_protect { pid = proc.pid; start; len; prot; ack_ticket });
          (* Reset directory entries without destroying content versions
             (munmap destroys those too). *)
          Page_coherence.drop_range_directory cluster origin proc ~start ~len
            ~keep_versions:true;
          Ok ())

(* ------------------------------------------------------------------ *)
(* Origin-side message handlers (requests from remote kernels)         *)
(* ------------------------------------------------------------------ *)

let handle_mmap_req cluster (kernel : kernel) ~src ~ticket ~pid ~len ~prot =
  let proc = proc_exn cluster pid in
  let result = origin_mmap cluster kernel proc ~requester:src ~len ~prot in
  send cluster ~src:kernel.kid ~dst:src (Mmap_resp { ticket; result })

let handle_munmap_req cluster (kernel : kernel) ~src ~ticket ~pid ~start ~len
    =
  let proc = proc_exn cluster pid in
  let result =
    origin_munmap cluster kernel proc ~requester:src ~start ~len
  in
  send cluster ~src:kernel.kid ~dst:src (Munmap_resp { ticket; result })

let handle_mprotect_req cluster (kernel : kernel) ~src ~ticket ~pid ~start
    ~len ~prot =
  let proc = proc_exn cluster pid in
  let result =
    origin_mprotect cluster kernel proc ~requester:src ~start ~len ~prot
  in
  send cluster ~src:kernel.kid ~dst:src (Mprotect_resp { ticket; result })

(** A kernel about to host its first member of [pid] fetches the layout.
    Taken under the origin's mm lock so the snapshot is consistent, and the
    requester joins the membership {e before} the snapshot — every later
    layout change will be pushed to it, so snapshot + pushes = the truth. *)
let handle_vma_fetch cluster (kernel : kernel) ~src ~ticket ~pid =
  let r = replica_exn kernel pid in
  let proc = r.proc in
  let vmas =
    Hw.Spinlock.with_lock kernel.mm_lock ~core:kernel.home_core (fun () ->
        Proto_util.kernel_work cluster vma_op_cost;
        Process_model.add_member_kernel proc src;
        Process_model.mark_distributed proc cluster;
        K.Vma.vmas r.vmas)
  in
  send cluster ~src:kernel.kid ~dst:src (Vma_fetch_resp { ticket; vmas })

(** Lazy replication: resolve one address against the master layout. *)
let handle_vma_lookup cluster (kernel : kernel) ~src ~ticket ~pid ~addr =
  Proto_util.kernel_work cluster vma_op_cost;
  let vma =
    match find_replica kernel pid with
    | None -> None
    | Some r -> K.Vma.find r.vmas addr
  in
  send cluster ~src:kernel.kid ~dst:src (Vma_lookup_resp { ticket; vma })

(** Called on a fault whose address has no VMA in the local replica: fetch
    the covering VMA from the origin and install it. Returns whether the
    address turned out to be mapped. Never called on the origin (its
    layout is authoritative). *)
let fetch_vma cluster (kernel : kernel) ~core ~pid ~addr : bool =
  let r = replica_exn kernel pid in
  let proc = r.proc in
  assert (kernel.kid <> proc.origin);
  match
    Proto_util.call_from cluster ~src:kernel ~src_core:core ~dst:proc.origin
      (fun ~ticket -> Vma_lookup_req { ticket; pid; addr })
  with
  | Vma_lookup_resp { vma = None; _ } -> false
  | Vma_lookup_resp { vma = Some vma; _ } ->
      Hw.Spinlock.with_lock kernel.mm_lock ~core (fun () ->
          Proto_util.kernel_work cluster vma_op_cost;
          (* A racing fault may have installed an overlapping VMA; treat
             any overlap as already-present. *)
          match
            K.Vma.map r.vmas ~fixed:vma.K.Vma.start ~len:vma.K.Vma.len
              ~prot:vma.K.Vma.prot ~kind:vma.K.Vma.kind ()
          with
          | Ok _ -> ()
          | Error _ -> ());
      true
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Application-facing entry points (called on the thread's kernel)     *)
(* ------------------------------------------------------------------ *)

let syscall_entry cluster =
  Proto_util.kernel_work cluster (params cluster).Hw.Params.syscall_overhead

let mmap cluster (kernel : kernel) ~core ~pid ~len ~prot =
  syscall_entry cluster;
  let r = replica_exn kernel pid in
  let proc = r.proc in
  if kernel.kid = proc.origin then
    origin_mmap cluster kernel proc ~requester:kernel.kid ~len ~prot
  else begin
    let resp =
      Proto_util.call_from cluster ~src:kernel ~src_core:core
        ~dst:proc.origin (fun ~ticket -> Mmap_req { ticket; pid; len; prot })
    in
    match resp with
    | Mmap_resp { result = Ok vma; _ } ->
        Hw.Spinlock.with_lock kernel.mm_lock ~core (fun () ->
            Proto_util.kernel_work cluster vma_op_cost;
            match
              K.Vma.map r.vmas ~fixed:vma.K.Vma.start ~len:vma.K.Vma.len
                ~prot:vma.K.Vma.prot ~kind:vma.K.Vma.kind ()
            with
            | Ok _ -> Ok vma
            | Error e -> Error ("local replica diverged: " ^ e))
    | Mmap_resp { result = Error e; _ } -> Error e
    | _ -> assert false
  end

let munmap cluster (kernel : kernel) ~core ~pid ~start ~len =
  syscall_entry cluster;
  let r = replica_exn kernel pid in
  let proc = r.proc in
  if kernel.kid = proc.origin then
    origin_munmap cluster kernel proc ~requester:kernel.kid ~start ~len
  else begin
    let resp =
      Proto_util.call_from cluster ~src:kernel ~src_core:core
        ~dst:proc.origin (fun ~ticket ->
          Munmap_req { ticket; pid; start; len })
    in
    match resp with
    | Munmap_resp { result = Ok (); _ } ->
        Hw.Spinlock.with_lock kernel.mm_lock ~core (fun () ->
            Proto_util.kernel_work cluster vma_op_cost;
            Page_coherence.drop_range_local cluster kernel r ~start ~len;
            match K.Vma.unmap r.vmas ~start ~len with
            | Ok () -> Ok ()
            | Error e -> Error ("local replica diverged: " ^ e))
    | Munmap_resp { result = Error e; _ } -> Error e
    | _ -> assert false
  end

let mprotect cluster (kernel : kernel) ~core ~pid ~start ~len ~prot =
  syscall_entry cluster;
  let r = replica_exn kernel pid in
  let proc = r.proc in
  if kernel.kid = proc.origin then
    origin_mprotect cluster kernel proc ~requester:kernel.kid ~start ~len
      ~prot
  else begin
    let resp =
      Proto_util.call_from cluster ~src:kernel ~src_core:core
        ~dst:proc.origin (fun ~ticket ->
          Mprotect_req { ticket; pid; start; len; prot })
    in
    match resp with
    | Mprotect_resp { result = Ok (); _ } ->
        Hw.Spinlock.with_lock kernel.mm_lock ~core (fun () ->
            Proto_util.kernel_work cluster vma_op_cost;
            (* Drop the local range; the re-protected layout is refetched
               lazily on the next fault. *)
            drop_replica_range cluster kernel r ~start ~len;
            Ok ())
    | Mprotect_resp { result = Error e; _ } -> Error e
    | _ -> assert false
  end
