open Sim

(** The simulated machine: engine, topology, parameters, physical memory and
    IPI fabric bundled together. Every OS model (Popcorn, SMP Linux,
    multikernel) boots on a [Machine.t]. *)

type t = {
  eng : Engine.t;
  params : Params.t;
  topo : Topology.t;
  mem : Memory.t;
  ipi : Ipi.t;
  mutable metrics : Obs.Metrics.t option;
  mutable spans : Obs.Span.t option;
  mutable causal : Obs.Causal.t option;
}

val create :
  ?seed:int ->
  ?params:Params.t ->
  ?frames_per_socket:int ->
  sockets:int ->
  cores_per_socket:int ->
  unit ->
  t
(** Build a machine with a fresh engine seeded by [seed].
    [frames_per_socket] defaults to 65536 (256 MiB of 4 KiB pages per
    socket). *)

val attach_obs : t -> Obs.Sink.t -> unit
(** Attach the sink's metrics registry, span recorder and causal log to
    this machine. The messaging layer and OS models consult them on their
    hot paths; with nothing attached the cost is one [option] check and
    simulated results are bit-identical. Attaching also opens a new run in
    both recorders so repeated boots export to distinct trace tracks. *)

val metric_incr : t -> ?kernel:int -> string -> unit
val metric_add : t -> ?kernel:int -> string -> int -> unit
val metric_observe : t -> ?kernel:int -> string -> float -> unit
(** No-ops when no metrics registry is attached. *)

val causal_send :
  t -> id:int -> src:int -> dst:int -> bytes:int -> from_span:int option -> unit

val causal_deliver : t -> id:int -> dst:int -> unit

val causal_link : t -> id:int -> span:int -> unit
(** Causal-event helpers for the messaging layer and the OS models; no-ops
    when no {!Obs.Causal.t} recorder is attached. *)

val now : t -> Time.t
val compute : t -> Time.t -> unit
(** A task performing pure computation for the given duration. *)

val copy : t -> bytes:int -> src_socket:int -> dst_socket:int -> unit
(** A task performing a memory copy; sleeps for the modelled duration. *)

val line_access : t -> from:Topology.core -> core:Topology.core -> unit
(** A task pulling one cache line last touched by [from] into [core]. *)
