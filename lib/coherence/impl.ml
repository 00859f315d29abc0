(** Shared mechanics of the page-coherence protocols.

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

    The protocols ({!Origin_home}, {!Sharded_dir}) differ only in the
    [home] function they close the state machine over — which kernel runs
    the directory service for a given page — and in how the munmap
    range-drop reaches the entries (locally vs. batched messages to the
    home shards). Everything here is home-agnostic. *)

open Sim
module K = Kernelmodel

let page_size = 4096

(* Cost of allocating a physical frame + zeroing it on first touch. *)
let frame_alloc_cost = Time.ns 300
let zero_page_cost = Time.ns 600

module Shared (Env : Intf.ENV) = struct
  (** Home assignment a protocol closes the state machine over. *)
  type home = Env.process -> vpn:int -> int

  let latest_version proc vpn =
    match Hashtbl.find_opt (Env.versions proc) vpn with
    | Some v -> v
    | None -> 0

  (* ---------------------------------------------------------------- *)
  (* Handlers running on copy-holding kernels (owner / reader side).   *)
  (* ---------------------------------------------------------------- *)

  (** Home asked us to give up our writable copy: unmap, flush, free the
      frame, return the content version we had. *)
  let handle_pull cluster kernel ~src ~ticket ~pid ~vpn =
    let p = Env.params cluster in
    let s = Env.stats cluster in
    s.Stats.pulls <- s.Stats.pulls + 1;
    Env.metric_incr cluster ~kernel:(Env.kid kernel) "coherence.pulls";
    Env.work cluster p.Hw.Params.page_table_walk;
    let version =
      match Env.find_replica kernel ~pid with
      | None -> 0
      | Some r -> (
          Env.work cluster p.Hw.Params.tlb_flush_local;
          (match K.Page_table.clear (Env.pt r) ~vpn with
          | Some pte -> Env.free_frame cluster ~frame:pte.K.Page_table.frame
          | None -> ());
          match Hashtbl.find_opt (Env.page_data r) vpn with
          | Some v ->
              Hashtbl.remove (Env.page_data r) vpn;
              v
          | None -> 0)
    in
    Env.reply cluster ~src:kernel ~dst:src (Wire.Pulled { ticket; version })

  (** Home asked us to drop our read-only copy. *)
  let handle_invalidate cluster kernel ~src ~pid ~vpn ~ack =
    let p = Env.params cluster in
    Env.metric_incr cluster ~kernel:(Env.kid kernel) "coherence.invalidations";
    Env.work cluster
      (Time.add p.Hw.Params.page_table_walk p.Hw.Params.tlb_flush_local);
    (match Env.find_replica kernel ~pid with
    | None -> ()
    | Some r -> (
        Hashtbl.remove (Env.page_data r) vpn;
        match K.Page_table.clear (Env.pt r) ~vpn with
        | Some pte -> Env.free_frame cluster ~frame:pte.K.Page_table.frame
        | None -> ()));
    Env.reply cluster ~src:kernel ~dst:src (Wire.Ack { ticket = ack })

  (** Home asked us to downgrade our writable copy to read-only (we keep
      the frame and become a reader). *)
  let handle_downgrade cluster kernel ~src ~pid ~vpn ~ack =
    let p = Env.params cluster in
    let s = Env.stats cluster in
    s.Stats.downgrades <- s.Stats.downgrades + 1;
    Env.metric_incr cluster ~kernel:(Env.kid kernel) "coherence.downgrades";
    Env.work cluster
      (Time.add p.Hw.Params.page_table_walk p.Hw.Params.tlb_flush_local);
    (match Env.find_replica kernel ~pid with
    | None -> ()
    | Some r -> ignore (K.Page_table.downgrade (Env.pt r) ~vpn));
    Env.reply cluster ~src:kernel ~dst:src (Wire.Ack { ticket = ack })

  (* ---------------------------------------------------------------- *)
  (* Directory service, running on the page's home kernel.             *)
  (* ---------------------------------------------------------------- *)

  (* Local (message-free) counterparts of pull/invalidate/downgrade, used
     when the kernel to revoke is the home itself. *)
  let local_revoke cluster kernel ~pid ~vpn =
    let p = Env.params cluster in
    Env.work cluster
      (Time.add p.Hw.Params.page_table_walk p.Hw.Params.tlb_flush_local);
    match Env.find_replica kernel ~pid with
    | None -> 0
    | Some r -> (
        (match K.Page_table.clear (Env.pt r) ~vpn with
        | Some pte -> Env.free_frame cluster ~frame:pte.K.Page_table.frame
        | None -> ());
        match Hashtbl.find_opt (Env.page_data r) vpn with
        | Some v ->
            Hashtbl.remove (Env.page_data r) vpn;
            v
        | None -> 0)

  let local_pull cluster kernel ~pid ~vpn =
    let s = Env.stats cluster in
    s.Stats.pulls <- s.Stats.pulls + 1;
    Env.metric_incr cluster ~kernel:(Env.kid kernel) "coherence.pulls";
    local_revoke cluster kernel ~pid ~vpn

  let local_invalidate cluster kernel ~pid ~vpn =
    Env.metric_incr cluster ~kernel:(Env.kid kernel) "coherence.invalidations";
    ignore (local_revoke cluster kernel ~pid ~vpn)

  let local_downgrade cluster kernel ~pid ~vpn =
    let p = Env.params cluster in
    let s = Env.stats cluster in
    s.Stats.downgrades <- s.Stats.downgrades + 1;
    Env.metric_incr cluster ~kernel:(Env.kid kernel) "coherence.downgrades";
    Env.work cluster
      (Time.add p.Hw.Params.page_table_walk p.Hw.Params.tlb_flush_local);
    match Env.find_replica kernel ~pid with
    | None -> ()
    | Some r -> ignore (K.Page_table.downgrade (Env.pt r) ~vpn)

  (** Serve one fault against the directory. Must run on the page's home
      kernel {e with the page's fault lock held}; may issue pulls /
      invalidations / downgrades to other kernels. Returns the grant for
      [requester].

      The caller keeps the lock until the requester has {e installed} the
      grant (locally, or signalled by a {!Wire.Ack}); releasing earlier
      lets a second writer be granted while the first install is still in
      flight, which the randomized coherence tests catch as a dual-writer
      state. *)
  let dir_service_locked cluster home_k proc ~requester ~vpn
      ~(access : K.Fault.access) : Wire.grant =
    let s = Env.stats cluster in
    let home_kid = Env.kid home_k in
    let pid = Env.pid proc in
    s.Stats.grants <- s.Stats.grants + 1;
    Env.metric_incr cluster ~kernel:home_kid "coherence.grants";
    let entry = Dir.find_or_create (Env.directory proc) vpn in
    let effective_access =
      if Env.read_replication cluster then access else K.Fault.Write
    in
    let requester_was_reader = List.mem requester entry.Dir.readers in
    match effective_access with
    | K.Fault.Write ->
        (* Revoke the current writer, if any and not the requester. *)
        let pulled_from =
          match entry.Dir.writer with
          | Some w when w = home_kid && w <> requester ->
              let version = local_pull cluster home_k ~pid ~vpn in
              if version > latest_version proc vpn then
                Hashtbl.replace (Env.versions proc) vpn version;
              Some w
          | Some w when w <> requester ->
              (match
                 Env.call cluster ~src:home_k ~dst:w (fun ~ticket ->
                     Wire.Pull { ticket; pid; vpn })
               with
              | Wire.Pulled { version; _ } ->
                  (* Keep the committed version in sync with what the
                     (now revoked) writer last wrote. *)
                  if version > latest_version proc vpn then
                    Hashtbl.replace (Env.versions proc) vpn version
              | _ -> assert false);
              Some w
          | _ -> None
        in
        (* Invalidate every reader except the requester; the home's own
           replica is revoked locally (broadcast skips self). *)
        let victims =
          List.filter (fun k -> k <> requester) entry.Dir.readers
        in
        let fanout = List.length victims in
        s.Stats.invalidations <- s.Stats.invalidations + fanout;
        if fanout > s.Stats.max_fanout then s.Stats.max_fanout <- fanout;
        if List.mem home_kid victims && requester <> home_kid then
          local_invalidate cluster home_k ~pid ~vpn;
        Env.broadcast_and_wait cluster ~src:home_k ~targets:victims
          (fun ~ack -> Wire.Invalidate { pid; vpn; ack });
        entry.Dir.writer <- Some requester;
        entry.Dir.readers <- [];
        {
          Wire.version = latest_version proc vpn;
          writable = true;
          from_kernel =
            (match pulled_from with Some w -> w | None -> home_kid);
          carries_data = not requester_was_reader;
          ack = 0;
        }
    | K.Fault.Read -> (
        match entry.Dir.writer with
        | Some w when w = requester ->
            (* Stale fault: a racing write fault from the same kernel
               already made it the writer. Reconfirm ownership; do NOT
               downgrade it or enrol it as a reader. *)
            {
              Wire.version = latest_version proc vpn;
              writable = true;
              from_kernel = requester;
              carries_data = false;
              ack = 0;
            }
        | writer ->
            (match writer with
            | Some w when w = home_kid ->
                local_downgrade cluster home_k ~pid ~vpn;
                entry.Dir.writer <- None;
                entry.Dir.readers <- [ w ]
            | Some w ->
                Env.broadcast_and_wait cluster ~src:home_k ~targets:[ w ]
                  (fun ~ack -> Wire.Downgrade { pid; vpn; ack });
                entry.Dir.writer <- None;
                entry.Dir.readers <- [ w ]
            | None -> ());
            if not (List.mem requester entry.Dir.readers) then
              entry.Dir.readers <- requester :: entry.Dir.readers;
            {
              Wire.version = latest_version proc vpn;
              writable = false;
              from_kernel = home_kid;
              carries_data = not requester_was_reader;
              ack = 0;
            })

  (** Message handler for a remote kernel's fault. Runs at the page's
      home. The fault lock is held from the directory update until the
      requester acks that it installed the grant. *)
  let handle_fault cluster kernel ~(home : home) ~src ~cause ~ticket ~pid
      ~vpn ~access =
    match Env.find_process cluster ~pid with
    | Some proc when home proc ~vpn = Env.kid kernel ->
        let sp = Env.span_begin cluster ~kernel:(Env.kid kernel) ~cause () in
        Mutex.with_lock
          (Env.fault_lock cluster proc ~vpn)
          (fun () ->
            let grant =
              dir_service_locked cluster kernel proc ~requester:src ~vpn
                ~access
            in
            Env.with_install_ack cluster kernel ~send:(fun ~ack ->
                Env.reply cluster ~src:kernel ~dst:src
                  (Wire.Grant { ticket; result = Ok { grant with Wire.ack } })));
        Env.span_end cluster sp
    | _ ->
        Env.reply cluster ~src:kernel ~dst:src
          (Wire.Grant
             { ticket; result = Error "not the directory home of this page" })

  (* ---------------------------------------------------------------- *)
  (* Fault path on the kernel where the thread runs.                   *)
  (* ---------------------------------------------------------------- *)

  let install cluster kernel r ~vpn ~(grant : Wire.grant) =
    let p = Env.params cluster in
    let pt = Env.pt r in
    (match K.Page_table.get pt ~vpn with
    | Some pte ->
        (* Keep the copy we hold when the grant brings no data (it only
           changes permission) or when we already write the page (a stale
           fault: our copy is the latest). The grant's version is what the
           home read when it built the grant; a thread here may have
           committed since, and overwriting would roll the page back. *)
        if grant.Wire.carries_data && not pte.K.Page_table.writable then
          Hashtbl.replace (Env.page_data r) vpn grant.Wire.version;
        K.Page_table.set pt ~vpn
          { pte with K.Page_table.writable = grant.Wire.writable }
    | None ->
        Env.work cluster frame_alloc_cost;
        let frame = Env.alloc_frame cluster kernel in
        K.Page_table.set pt ~vpn
          { K.Page_table.frame; writable = grant.Wire.writable };
        Hashtbl.replace (Env.page_data r) vpn grant.Wire.version);
    Env.work cluster p.Hw.Params.page_table_walk

  (** Service a fault for a thread of [r] running on [kernel] at [core]. *)
  let service_fault cluster kernel r ~(home : home) ~core ~addr ~access =
    let vpn = K.Page_table.vpn_of_addr addr in
    let proc = Env.proc_of r in
    let pid = Env.pid proc in
    let s = Env.stats cluster in
    s.Stats.faults <- s.Stats.faults + 1;
    Env.metric_incr cluster ~kernel:(Env.kid kernel) "fault.serviced";
    Env.trace cluster (fun () ->
        Printf.sprintf "k%d %s fault pid %d vpn %d" (Env.kid kernel)
          (match access with K.Fault.Read -> "read" | K.Fault.Write -> "write")
          pid vpn);
    let home_kid = home proc ~vpn in
    if Env.kid kernel = home_kid then begin
      (* Local directory shard: no messages unless other kernels hold the
         page. Serve and install under the fault lock, like remote
         grants. *)
      s.Stats.local_faults <- s.Stats.local_faults + 1;
      Mutex.with_lock
        (Env.fault_lock cluster proc ~vpn)
        (fun () ->
          let grant =
            dir_service_locked cluster kernel proc
              ~requester:(Env.kid kernel) ~vpn ~access
          in
          (* First touch of a fresh anonymous page: demand-zero. *)
          if
            grant.Wire.version = 0
            && not (Hashtbl.mem (Env.versions proc) vpn)
          then Env.work cluster zero_page_cost;
          install cluster kernel r ~vpn ~grant)
    end
    else begin
      s.Stats.dir_hops <- s.Stats.dir_hops + 1;
      Env.metric_incr cluster ~kernel:(Env.kid kernel) "coherence.dir_hops";
      let sp = Env.span_begin cluster ~kernel:(Env.kid kernel) () in
      let resp =
        Env.call cluster ~src:kernel ~src_core:core ?span:sp ~dst:home_kid
          (fun ~ticket -> Wire.Fault { ticket; pid; vpn; access })
      in
      (match resp with
      | Wire.Grant { result = Ok grant; _ } ->
          install cluster kernel r ~vpn ~grant;
          (* Tell the home the grant is live; it holds the page's fault
             lock until this lands. *)
          Env.reply cluster ~src:kernel ~src_core:core ~dst:home_kid
            (Wire.Ack { ticket = grant.Wire.ack })
      | Wire.Grant { result = Error e; _ } -> failwith ("page fault: " ^ e)
      | _ -> assert false);
      Env.span_end cluster sp
    end

  let touch cluster kernel r ~(home : home) ~core ~addr ~access :
      (K.Fault.classification, string) result =
    let p = Env.params cluster in
    Env.work cluster p.Hw.Params.l1_hit;
    match K.Fault.classify (Env.vmas r) (Env.pt r) ~addr ~access with
    | K.Fault.Present -> Ok K.Fault.Present
    | K.Fault.Segv -> Error "segmentation fault"
    | (K.Fault.Minor | K.Fault.Cow_or_upgrade) as c ->
        (* Trap into the kernel and service. *)
        Env.work cluster p.Hw.Params.page_table_walk;
        service_fault cluster kernel r ~home ~core ~addr ~access;
        Ok c

  (* ---------------------------------------------------------------- *)
  (* munmap support                                                    *)
  (* ---------------------------------------------------------------- *)

  (** Drop local translations and frames for a byte range (on munmap).
      Within one kernel this is exactly SMP's unmap path: the initiating
      core flushes locally and TLB-shootdown-IPIs every other core running
      a member of the process on this kernel. *)
  let drop_range_local cluster kernel r ~start ~len =
    let p = Env.params cluster in
    let removed = K.Page_table.clear_range (Env.pt r) ~start ~len in
    List.iter
      (fun (pte : K.Page_table.pte) ->
        Env.free_frame cluster ~frame:pte.K.Page_table.frame)
      removed;
    let first = K.Page_table.vpn_of_addr start in
    let last = K.Page_table.vpn_of_addr (start + len - 1) in
    for vpn = first to last do
      Hashtbl.remove (Env.page_data r) vpn
    done;
    if removed <> [] then begin
      Env.work cluster p.Hw.Params.tlb_flush_local;
      let victims =
        min (max 0 (Env.member_count r - 1)) (Env.core_count kernel - 1)
      in
      if victims > 0 then
        Env.work cluster
          (Time.add p.Hw.Params.ipi_latency
             (Time.scale victims p.Hw.Params.tlb_shootdown_per_core))
    end

  (** Drop the directory entry and fault lock of one page; committed
      content goes too unless [keep_versions] (the mprotect reset). *)
  let drop_dir_vpn proc ~keep_versions vpn =
    Hashtbl.remove (Env.directory proc) vpn;
    Env.drop_fault_lock proc ~vpn;
    if not keep_versions then Hashtbl.remove (Env.versions proc) vpn

  (** Handler for a batched {!Wire.Drop_range}: drop every entry in the
      range whose home is this kernel. *)
  let handle_drop_range cluster kernel ~(home : home) ~src ~pid ~start ~len
      ~ack =
    let p = Env.params cluster in
    Env.work cluster p.Hw.Params.page_table_walk;
    (match Env.find_process cluster ~pid with
    | None -> ()
    | Some proc ->
        let self = Env.kid kernel in
        let first = K.Page_table.vpn_of_addr start in
        let last = K.Page_table.vpn_of_addr (start + len - 1) in
        for vpn = first to last do
          if home proc ~vpn = self then
            (* Versions are origin-side bookkeeping, already handled by
               the initiator; only shard state drops here. *)
            drop_dir_vpn proc ~keep_versions:true vpn
        done);
    Env.reply cluster ~src:kernel ~dst:src (Wire.Ack { ticket = ack })

  (** Request dispatcher a protocol exposes as its [handle]. *)
  let handle cluster kernel ~(home : home) ~src ~cause req =
    match req with
    | Wire.Fault { ticket; pid; vpn; access } ->
        handle_fault cluster kernel ~home ~src ~cause ~ticket ~pid ~vpn
          ~access
    | Wire.Pull { ticket; pid; vpn } ->
        handle_pull cluster kernel ~src ~ticket ~pid ~vpn
    | Wire.Invalidate { pid; vpn; ack } ->
        handle_invalidate cluster kernel ~src ~pid ~vpn ~ack
    | Wire.Downgrade { pid; vpn; ack } ->
        handle_downgrade cluster kernel ~src ~pid ~vpn ~ack
    | Wire.Drop_range { pid; start; len; ack } ->
        handle_drop_range cluster kernel ~home ~src ~pid ~start ~len ~ack
end
