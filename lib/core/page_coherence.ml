(** On-demand page coherence for distributed address spaces.

    Pages of a distributed process follow a single-writer /
    multiple-reader protocol with a directory, the design the paper
    describes for address-space consistency at page granularity:

    - a page is writable on at most one kernel at a time;
    - read-only replicas may exist on several kernels (unless the
      [read_replication] ablation option is off);
    - a write fault pulls the page exclusively: the home revokes the
      current writer, invalidates every reader, then grants ownership;
    - a read fault downgrades the current writer to a reader and
      replicates.

    Content is modelled as a per-page version number: the owning kernel's
    writes bump the version in place (physical memory is shared on this
    machine, so that mutation is "hardware", not kernel state); protocol
    messages carry the version so tests can verify read-after-write
    coherence across kernels.

    The two protocols ([cluster.opts.coherence], fixed at boot) differ only
    in {!home}: which kernel runs the directory service and holds the fault
    lock for a given page. Everything else here is home-agnostic. *)

open Sim
open Types
module K = Kernelmodel
module W = Coherence.Wire
module Stats = Coherence.Stats

let page_size = 4096

(* Cost of allocating a physical frame + zeroing it on first touch. *)
let frame_alloc_cost = Time.ns 300
let zero_page_cost = Time.ns 600

(** Home kernel of [vpn]: the process's origin under [Origin_home] (the
    paper's design), a hash of the vpn under [Sharded_dir]. *)
let home cluster (proc : process) ~vpn =
  Coherence.Protocol.home cluster.opts.coherence ~origin:proc.origin
    ~nkernels:(nkernels cluster) ~vpn

let latest_version (proc : process) vpn =
  match Hashtbl.find_opt proc.page_version vpn with Some v -> v | None -> 0

(* Keep the committed version in sync with what a revoked writer last
   wrote. *)
let commit_version (proc : process) vpn version =
  if version > latest_version proc vpn then
    Hashtbl.replace proc.page_version vpn version

let dir_entry (proc : process) vpn =
  match Hashtbl.find_opt proc.directory vpn with
  | Some e -> e
  | None ->
      let e = { writer = None; readers = [] } in
      Hashtbl.add proc.directory vpn e;
      e

let fault_lock cluster (proc : process) ~vpn =
  match Hashtbl.find_opt proc.fault_locks vpn with
  | Some m -> m
  | None ->
      let m = Mutex.create (eng cluster) in
      Hashtbl.add proc.fault_locks vpn m;
      m

(** Drop the directory entry and fault lock of one page. *)
let drop_dir_vpn (proc : process) vpn =
  Hashtbl.remove proc.directory vpn;
  Hashtbl.remove proc.fault_locks vpn

let alloc_frame cluster (k : kernel) =
  let node =
    Hw.Topology.socket_of cluster.machine.Hw.Machine.topo k.home_core
  in
  Hw.Memory.alloc_exn cluster.machine.Hw.Machine.mem ~node

let free_frame cluster frame =
  Hw.Memory.free cluster.machine.Hw.Machine.mem frame

let reply cluster (kernel : kernel) ~dst resp =
  send cluster ~src:kernel.kid ~dst (Coh (W.Resp resp))

let broadcast cluster (kernel : kernel) ~targets make =
  Proto_util.broadcast_and_wait cluster ~src:kernel ~targets
    ~make:(fun ~ack_ticket -> Coh (W.Req (make ~ack:ack_ticket)))

(* ---------------------------------------------------------------- *)
(* Revocations on a copy-holding kernel, asked by the page's home    *)
(* (by message, or directly when the home holds the copy itself).    *)
(* ---------------------------------------------------------------- *)

(** Unmap [r]'s copy of [vpn], free its frame and return the content
    version it held (0 when it held none). *)
let revoke cluster (r : replica) ~vpn =
  (match K.Page_table.clear r.pt ~vpn with
  | Some pte -> free_frame cluster pte.K.Page_table.frame
  | None -> ());
  match Hashtbl.find_opt r.page_data vpn with
  | Some v ->
      Hashtbl.remove r.page_data vpn;
      v
  | None -> 0

let count_pull cluster (kernel : kernel) =
  let s = cluster.coh_stats in
  s.Stats.pulls <- s.Stats.pulls + 1;
  m_incr cluster ~kernel:kernel.kid "coherence.pulls"

(** Home asked us to give up our writable copy: unmap, flush, free the
    frame, return the content version we had. *)
let handle_pull cluster (kernel : kernel) ~src ~ticket ~pid ~vpn =
  let p = params cluster in
  count_pull cluster kernel;
  Proto_util.kernel_work cluster p.Hw.Params.page_table_walk;
  let version =
    match find_replica kernel pid with
    | None -> 0
    | Some r ->
        Proto_util.kernel_work cluster p.Hw.Params.tlb_flush_local;
        revoke cluster r ~vpn
  in
  reply cluster kernel ~dst:src (W.Pulled { ticket; version })

(** The home pulls its own writable copy. *)
let local_pull cluster (kernel : kernel) ~pid ~vpn =
  let p = params cluster in
  count_pull cluster kernel;
  Proto_util.kernel_work cluster
    (Time.add p.Hw.Params.page_table_walk p.Hw.Params.tlb_flush_local);
  match find_replica kernel pid with
  | None -> 0
  | Some r -> revoke cluster r ~vpn

(** Drop our read-only copy. *)
let invalidate cluster (kernel : kernel) ~pid ~vpn =
  let p = params cluster in
  m_incr cluster ~kernel:kernel.kid "coherence.invalidations";
  Proto_util.kernel_work cluster
    (Time.add p.Hw.Params.page_table_walk p.Hw.Params.tlb_flush_local);
  match find_replica kernel pid with
  | None -> ()
  | Some r -> ignore (revoke cluster r ~vpn)

(** Demote our writable copy to read-only (we keep the frame and become a
    reader). *)
let downgrade cluster (kernel : kernel) ~pid ~vpn =
  let p = params cluster in
  let s = cluster.coh_stats in
  s.Stats.downgrades <- s.Stats.downgrades + 1;
  m_incr cluster ~kernel:kernel.kid "coherence.downgrades";
  Proto_util.kernel_work cluster
    (Time.add p.Hw.Params.page_table_walk p.Hw.Params.tlb_flush_local);
  match find_replica kernel pid with
  | None -> ()
  | Some r -> ignore (K.Page_table.downgrade r.pt ~vpn)

(* ---------------------------------------------------------------- *)
(* Directory service, running on the page's home kernel.             *)
(* ---------------------------------------------------------------- *)

(** Serve one fault against the directory. Must run on the page's home
    kernel {e with the page's fault lock held}; may issue pulls /
    invalidations / downgrades to other kernels. Returns the grant for
    [requester].

    The caller keeps the lock until the requester has {e installed} the
    grant (locally, or signalled by a {!Coherence.Wire.Ack}); releasing
    earlier lets a second writer be granted while the first install is
    still in flight, which the randomized coherence tests catch as a
    dual-writer state. *)
let dir_service_locked cluster (home_k : kernel) (proc : process) ~requester
    ~vpn ~(access : K.Fault.access) : W.grant =
  let s = cluster.coh_stats in
  let home_kid = home_k.kid in
  let pid = proc.pid in
  s.Stats.grants <- s.Stats.grants + 1;
  m_incr cluster ~kernel:home_kid "coherence.grants";
  let entry = dir_entry proc vpn in
  let effective_access =
    if cluster.opts.read_replication then access else K.Fault.Write
  in
  let requester_was_reader = List.mem requester entry.readers in
  match effective_access with
  | K.Fault.Write ->
      (* Revoke the current writer, if any and not the requester. *)
      let pulled_from =
        match entry.writer with
        | Some w when w = home_kid && w <> requester ->
            commit_version proc vpn (local_pull cluster home_k ~pid ~vpn);
            Some w
        | Some w when w <> requester ->
            (match
               Proto_util.call cluster ~src:home_k ~dst:w (fun ~ticket ->
                   Coh (W.Req (W.Pull { ticket; pid; vpn })))
             with
            | Coh (W.Resp (W.Pulled { version; _ })) ->
                commit_version proc vpn version
            | _ -> assert false);
            Some w
        | _ -> None
      in
      (* Invalidate every reader except the requester; the home's own
         replica is revoked locally (broadcast skips self). *)
      let victims = List.filter (fun k -> k <> requester) entry.readers in
      let fanout = List.length victims in
      s.Stats.invalidations <- s.Stats.invalidations + fanout;
      if fanout > s.Stats.max_fanout then s.Stats.max_fanout <- fanout;
      if List.mem home_kid victims && requester <> home_kid then
        invalidate cluster home_k ~pid ~vpn;
      broadcast cluster home_k ~targets:victims (fun ~ack ->
          W.Invalidate { pid; vpn; ack });
      entry.writer <- Some requester;
      entry.readers <- [];
      {
        W.version = latest_version proc vpn;
        writable = true;
        from_kernel = (match pulled_from with Some w -> w | None -> home_kid);
        carries_data = not requester_was_reader;
        ack = 0;
      }
  | K.Fault.Read -> (
      match entry.writer with
      | Some w when w = requester ->
          (* Stale fault: a racing write fault from the same kernel
             already made it the writer. Reconfirm ownership; do NOT
             downgrade it or enrol it as a reader. *)
          {
            W.version = latest_version proc vpn;
            writable = true;
            from_kernel = requester;
            carries_data = false;
            ack = 0;
          }
      | writer ->
          (match writer with
          | Some w when w = home_kid ->
              downgrade cluster home_k ~pid ~vpn;
              entry.writer <- None;
              entry.readers <- [ w ]
          | Some w ->
              broadcast cluster home_k ~targets:[ w ] (fun ~ack ->
                  W.Downgrade { pid; vpn; ack });
              entry.writer <- None;
              entry.readers <- [ w ]
          | None -> ());
          if not (List.mem requester entry.readers) then
            entry.readers <- requester :: entry.readers;
          {
            W.version = latest_version proc vpn;
            writable = false;
            from_kernel = home_kid;
            carries_data = not requester_was_reader;
            ack = 0;
          })

(** Message handler for a remote kernel's fault. Runs at the page's home.
    The fault lock is held from the directory update until the requester
    acks that it installed the grant. *)
let handle_fault cluster (kernel : kernel) ~src ~cause ~ticket ~pid ~vpn
    ~access =
  match Hashtbl.find_opt cluster.procs pid with
  | Some proc when home cluster proc ~vpn = kernel.kid ->
      let sp =
        sp_begin cluster ~cause ~kernel:kernel.kid Obs.Span.Page_fault
      in
      Mutex.with_lock (fault_lock cluster proc ~vpn) (fun () ->
          let grant =
            dir_service_locked cluster kernel proc ~requester:src ~vpn ~access
          in
          let installed = Msg.Gather.create (eng cluster) ~expected:1 in
          let ack =
            Msg.Rpc.register kernel.rpc (fun (_ : payload) ->
                Msg.Gather.ack installed)
          in
          reply cluster kernel ~dst:src
            (W.Grant { ticket; result = Ok { grant with W.ack } });
          Msg.Gather.wait installed);
      sp_end cluster sp
  | _ ->
      reply cluster kernel ~dst:src
        (W.Grant
           { ticket; result = Error "not the directory home of this page" })

(* ---------------------------------------------------------------- *)
(* Fault path on the kernel where the thread runs.                   *)
(* ---------------------------------------------------------------- *)

let install cluster (kernel : kernel) (r : replica) ~vpn ~(grant : W.grant) =
  (match K.Page_table.get r.pt ~vpn with
  | Some pte ->
      (* Keep the copy we hold when the grant brings no data (it only
         changes permission) or when we already write the page (a stale
         fault: our copy is the latest). The grant's version is what the
         home read when it built the grant; a thread here may have
         committed since, and overwriting would roll the page back. *)
      if grant.W.carries_data && not pte.K.Page_table.writable then
        Hashtbl.replace r.page_data vpn grant.W.version;
      K.Page_table.set r.pt ~vpn
        { pte with K.Page_table.writable = grant.W.writable }
  | None ->
      Proto_util.kernel_work cluster frame_alloc_cost;
      let frame = alloc_frame cluster kernel in
      K.Page_table.set r.pt ~vpn
        { K.Page_table.frame; writable = grant.W.writable };
      Hashtbl.replace r.page_data vpn grant.W.version);
  Proto_util.kernel_work cluster (params cluster).Hw.Params.page_table_walk

(** Service a fault for a thread of [r] running on [kernel] at [core]. *)
let service_fault cluster (kernel : kernel) (r : replica) ~core ~addr
    ~access =
  let vpn = K.Page_table.vpn_of_addr addr in
  let proc = r.proc in
  let pid = proc.pid in
  let s = cluster.coh_stats in
  s.Stats.faults <- s.Stats.faults + 1;
  m_incr cluster ~kernel:kernel.kid "fault.serviced";
  (* Guarded: [trace] allocates its format closure even when off. *)
  (match cluster.tracer with
  | None -> ()
  | Some _ ->
      trace cluster ~cat:"fault" "k%d %s fault pid %d vpn %d" kernel.kid
        (match access with K.Fault.Read -> "read" | K.Fault.Write -> "write")
        pid vpn);
  let home_kid = home cluster proc ~vpn in
  if kernel.kid = home_kid then begin
    (* Local directory shard: no messages unless other kernels hold the
       page. Serve and install under the fault lock, like remote grants. *)
    s.Stats.local_faults <- s.Stats.local_faults + 1;
    Mutex.with_lock (fault_lock cluster proc ~vpn) (fun () ->
        let grant =
          dir_service_locked cluster kernel proc ~requester:kernel.kid ~vpn
            ~access
        in
        (* First touch of a fresh anonymous page: demand-zero. *)
        if grant.W.version = 0 && not (Hashtbl.mem proc.page_version vpn)
        then Proto_util.kernel_work cluster zero_page_cost;
        install cluster kernel r ~vpn ~grant)
  end
  else begin
    s.Stats.dir_hops <- s.Stats.dir_hops + 1;
    m_incr cluster ~kernel:kernel.kid "coherence.dir_hops";
    let sp = sp_begin cluster ~kernel:kernel.kid Obs.Span.Page_fault in
    (match
       Proto_util.call_from ?span:sp cluster ~src:kernel ~src_core:core
         ~dst:home_kid (fun ~ticket ->
           Coh (W.Req (W.Fault { ticket; pid; vpn; access })))
     with
    | Coh (W.Resp (W.Grant { result = Ok grant; _ })) ->
        install cluster kernel r ~vpn ~grant;
        (* Tell the home the grant is live; it holds the page's fault lock
           until this lands. *)
        send_from cluster ~src:kernel.kid ~src_core:core ~dst:home_kid
          (Coh (W.Resp (W.Ack { ticket = grant.W.ack })))
    | Coh (W.Resp (W.Grant { result = Error e; _ })) ->
        failwith ("page fault: " ^ e)
    | _ -> assert false);
    sp_end cluster sp
  end

let touch cluster (kernel : kernel) (r : replica) ~core ~addr ~access :
    (K.Fault.classification, string) result =
  let p = params cluster in
  Proto_util.kernel_work cluster p.Hw.Params.l1_hit;
  match K.Fault.classify r.vmas r.pt ~addr ~access with
  | K.Fault.Present -> Ok K.Fault.Present
  | K.Fault.Segv -> Error "segmentation fault"
  | (K.Fault.Minor | K.Fault.Cow_or_upgrade) as c ->
      (* Trap into the kernel and service. *)
      Proto_util.kernel_work cluster p.Hw.Params.page_table_walk;
      service_fault cluster kernel r ~core ~addr ~access;
      Ok c

(** Commit a write on a page the calling kernel owns writable: bumps the
    logical content version (plain memory write on real hardware). *)
let write_commit (r : replica) ~addr =
  let vpn = K.Page_table.vpn_of_addr addr in
  let v = latest_version r.proc vpn + 1 in
  Hashtbl.replace r.proc.page_version vpn v;
  Hashtbl.replace r.page_data vpn v

(** Read the version visible on this kernel (tests compare against the
    committed version to verify coherence). *)
let read_version (r : replica) ~addr =
  let vpn = K.Page_table.vpn_of_addr addr in
  match Hashtbl.find_opt r.page_data vpn with Some v -> v | None -> 0

(* ---------------------------------------------------------------- *)
(* munmap / mprotect support                                         *)
(* ---------------------------------------------------------------- *)

(** Drop local translations and frames for a byte range. Within one
    kernel this is exactly SMP's unmap path: the initiating core flushes
    locally and TLB-shootdown-IPIs every other core running a member of
    the process on this kernel. *)
let drop_range_local cluster (kernel : kernel) (r : replica) ~start ~len =
  let p = params cluster in
  let removed = K.Page_table.clear_range r.pt ~start ~len in
  List.iter
    (fun (pte : K.Page_table.pte) -> free_frame cluster pte.K.Page_table.frame)
    removed;
  let first = K.Page_table.vpn_of_addr start in
  let last = K.Page_table.vpn_of_addr (start + len - 1) in
  for vpn = first to last do
    Hashtbl.remove r.page_data vpn
  done;
  if removed <> [] then begin
    Proto_util.kernel_work cluster p.Hw.Params.tlb_flush_local;
    let victims =
      min (max 0 (List.length r.members - 1)) (List.length kernel.cores - 1)
    in
    if victims > 0 then
      Proto_util.kernel_work cluster
        (Time.add p.Hw.Params.ipi_latency
           (Time.scale victims p.Hw.Params.tlb_shootdown_per_core))
  end

(** Drop the directory entries in a byte range that [kernel] homes, and
    send one {!Coherence.Wire.Drop_range} per other home, waiting for
    every ack. Committed versions are origin bookkeeping and go here,
    never at the shards. Under [Origin_home] every page is homed at the
    initiating origin, so this sends nothing. *)
let drop_range_directory cluster (kernel : kernel) (proc : process) ~start
    ~len ~keep_versions =
  let first = K.Page_table.vpn_of_addr start in
  let last = K.Page_table.vpn_of_addr (start + len - 1) in
  let remote = ref [] in
  for vpn = first to last do
    if not keep_versions then Hashtbl.remove proc.page_version vpn;
    let h = home cluster proc ~vpn in
    if h = kernel.kid then drop_dir_vpn proc vpn
    else if not (List.mem h !remote) then remote := h :: !remote
  done;
  match List.sort compare !remote with
  | [] -> ()
  | targets ->
      let s = cluster.coh_stats in
      s.Stats.drop_msgs <- s.Stats.drop_msgs + List.length targets;
      m_incr cluster ~kernel:kernel.kid "coherence.drop_range_msgs";
      broadcast cluster kernel ~targets (fun ~ack ->
          W.Drop_range { pid = proc.pid; start; len; ack })

(** Handler for a {!Coherence.Wire.Drop_range}: drop every entry in the
    range whose home is this kernel. *)
let handle_drop_range cluster (kernel : kernel) ~src ~pid ~start ~len ~ack =
  Proto_util.kernel_work cluster (params cluster).Hw.Params.page_table_walk;
  (match Hashtbl.find_opt cluster.procs pid with
  | None -> ()
  | Some proc ->
      let first = K.Page_table.vpn_of_addr start in
      let last = K.Page_table.vpn_of_addr (start + len - 1) in
      for vpn = first to last do
        if home cluster proc ~vpn = kernel.kid then drop_dir_vpn proc vpn
      done);
  reply cluster kernel ~dst:src (W.Ack { ticket = ack })

(** Route one coherence request to its handler. *)
let handle cluster (kernel : kernel) ~src ~cause req =
  match req with
  | W.Fault { ticket; pid; vpn; access } ->
      handle_fault cluster kernel ~src ~cause ~ticket ~pid ~vpn ~access
  | W.Pull { ticket; pid; vpn } ->
      handle_pull cluster kernel ~src ~ticket ~pid ~vpn
  | W.Invalidate { pid; vpn; ack } ->
      invalidate cluster kernel ~pid ~vpn;
      reply cluster kernel ~dst:src (W.Ack { ticket = ack })
  | W.Downgrade { pid; vpn; ack } ->
      downgrade cluster kernel ~pid ~vpn;
      reply cluster kernel ~dst:src (W.Ack { ticket = ack })
  | W.Drop_range { pid; start; len; ack } ->
      handle_drop_range cluster kernel ~src ~pid ~start ~len ~ack
