(** On-demand page coherence for distributed address spaces.

    Single-writer / multiple-reader protocol with a per-page directory: a
    page is writable on at most one kernel; read-only replicas may exist
    on several (unless the [read_replication] ablation option is off).
    Write faults revoke the writer and invalidate readers; read faults
    downgrade the writer and replicate. The page's home kernel holds a
    per-page fault lock from directory update until the requester
    acknowledges installing the grant (the randomized tests show the
    dual-writer race this prevents).

    Where a page is homed is the protocol choice ([cluster.opts.coherence]),
    and the only thing the two protocols differ in: the process's origin
    kernel under {!Coherence.Protocol.Origin_home} (the paper's design, and
    the default), a hash of the VPN under {!Coherence.Protocol.Sharded_dir}.

    Page contents are modelled as per-page version numbers: the owner's
    writes bump the version in place (shared physical memory — hardware,
    not kernel state); protocol messages carry versions so tests can check
    read-after-write coherence across kernels. *)

open Types

val page_size : int

(** {1 Fault path (thread side)} *)

val touch :
  cluster ->
  kernel ->
  replica ->
  core:Hw.Topology.core ->
  addr:int ->
  access:Kernelmodel.Fault.access ->
  (Kernelmodel.Fault.classification, string) result
(** Memory access by an application thread: classify against the local
    replica, service the fault if needed (locally when this kernel homes
    the page, via the directory protocol otherwise). [Error] is a
    segfault — callers with a lazily-replicated layout should first try
    [Addr_consistency.fetch_vma]. *)

val write_commit : replica -> addr:int -> unit
(** Commit a write on a page this kernel owns writable: bumps the logical
    content version (a plain memory store on real hardware). *)

val read_version : replica -> addr:int -> int
(** Content version visible on this kernel (0 if never written). *)

(** {1 munmap support} *)

val drop_range_local :
  cluster -> kernel -> replica -> start:int -> len:int -> unit
(** Drop local translations, frames and cached content for a byte range. *)

val drop_range_directory :
  cluster ->
  kernel ->
  process ->
  start:int ->
  len:int ->
  keep_versions:bool ->
  unit
(** Directory cleanup for a byte range, initiated at the origin kernel.
    [keep_versions:true] is the mprotect reset (directory entries and
    fault locks go, committed content stays); munmap passes [false].
    Under the sharded protocol, entries homed elsewhere are dropped via
    batched [Drop_range] messages to the remote shards. *)

(** {1 Message handler} (wired by [Cluster.dispatch]) *)

val handle :
  cluster -> kernel -> src:int -> cause:int -> Coherence.Wire.req -> unit
(** Route one coherence request to its handler. [cause] is the
    delivery's message id, linking the handler span into the causal DAG. *)
