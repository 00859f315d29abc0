(** Barrelfish-style multikernel baseline.

    One CPU driver per core; no shared kernel state, no single-system
    image, no transparent thread migration. An application is a {e domain}
    that spans cores by explicitly spawning one dispatcher per core; each
    dispatcher owns a private address space (mm operations are purely
    local and scale perfectly), and dispatchers communicate over explicit
    channels. The comparison point for the paper's claim that a
    replicated-kernel OS "scales as well as a multikernel" while keeping
    the shared-memory programming model. *)

open Sim
module K = Kernelmodel

type payload

type t = private {
  machine : Hw.Machine.t;
  fabric : payload Msg.Transport.t;
  cpus : K.Cpu.t array;
  rpc : payload Msg.Rpc.t array;
  chans : (int, chan) Hashtbl.t;
  mutable next_chan : int;
  mutable next_domain : int;
  domains : (int, domain) Hashtbl.t;
  dispatcher_label : Engine.label;
}

and domain = private {
  sys : t;
  id : int;
  mutable dispatchers : int;
  exit_waiters : unit Waitq.t;
}

and dispatcher = private {
  dom : domain;
  core : Hw.Topology.core;
  vmas : K.Vma.t;
  pt : K.Page_table.t;
}

and chan

val boot : Hw.Machine.t -> t

val compute : dispatcher -> Time.t -> unit

val start_domain : t -> core:Hw.Topology.core -> (dispatcher -> unit) -> domain
(** New domain with its first dispatcher on [core]. *)

val spawn_dispatcher :
  dispatcher -> core:Hw.Topology.core -> (dispatcher -> unit) -> unit
(** Explicitly span the domain onto another core: a spawn request to the
    remote monitor, dispatcher construction there, then the body runs.
    The multikernel's (non-transparent) analogue of remote creation. *)

val mmap :
  dispatcher -> len:int -> prot:K.Vma.prot -> (K.Vma.vma, string) result
(** Private per-dispatcher mapping — no consistency protocol at all. *)

val munmap : dispatcher -> start:int -> len:int -> (unit, string) result

val touch :
  dispatcher -> addr:int -> access:K.Fault.access ->
  (K.Fault.classification, string) result

val make_chan : t -> chan

val chan_send :
  dispatcher -> chan -> dst_core:Hw.Topology.core -> data:int -> bytes:int ->
  unit

val chan_recv : dispatcher -> chan -> int * int
(** Blocking receive; returns (data, bytes). *)

val wait_domain : domain -> unit
(** Park until every dispatcher of the domain has finished. *)
