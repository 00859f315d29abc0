open Sim

(** Inter-kernel message transport.

    Models Popcorn's messaging layer: each kernel owns a receive ring in
    shared memory; senders copy the payload into a slot (paying memcpy +
    ring-bookkeeping coherence costs) and kick the destination kernel with an
    IPI doorbell only when its message worker is idle — when the worker is
    already draining the ring, messages are batched doorbell-free, exactly as
    in the real implementation.

    The transport is polymorphic in the payload type; the OS model defines a
    single protocol variant. Handlers run as fresh fibers so a handler may
    itself block (e.g. issue a nested RPC) without stalling the ring. *)

type 'a t

type node = int
(** Kernel identifier. *)

type stats = {
  sent : int;
  delivered : int;
  doorbells : int;
  total_latency : Time.t;  (** summed enqueue-to-handler-start latency. *)
  dropped : int;  (** messages lost to fault injection. *)
  duplicated : int;  (** extra copies enqueued by fault injection. *)
  dup_suppressed : int;
      (** duplicate packets filtered by sequence-number suppression before
          reaching the handler. *)
  doorbells_lost : int;  (** doorbell IPIs lost to fault injection. *)
}

(** {1 Fault injection}

    An installed hook set intercepts every message and doorbell; the
    standard provider is [Inject.Plan] (a seeded, deterministic fault
    schedule). With no hooks installed — or hooks that always answer
    [Pass]/[None]/[0] — the transport behaves exactly as before, paying no
    extra simulated time, so fault-free runs are bit-identical whether or
    not a (zero-rate) plan is attached.

    Every packet carries a per-link (src,dst) sequence number; the receive
    worker suppresses any packet that does not advance the per-source
    high-water mark (links are FIFO), which filters both injected
    duplicates and protocol-level retransmissions that were already
    delivered. *)

type fault_action =
  | Pass  (** deliver normally. *)
  | Drop  (** sender pays its costs but the message is lost. *)
  | Duplicate  (** the message is enqueued twice (same sequence number). *)
  | Delay of Time.t  (** deliver after this much extra latency. *)

type hooks = {
  on_send : src:node -> dst:node -> now:Time.t -> fault_action;
  on_doorbell : src:node -> dst:node -> now:Time.t -> Time.t option;
      (** Consulted only when a doorbell IPI is actually needed (idle
          worker). [None]: the IPI arrives normally. [Some d]: the doorbell
          is lost; the worker notices the ring write only after [d]. *)
  on_deliver : node:node -> now:Time.t -> Time.t;
      (** Extra receiver-side delay before the worker processes the next
          packet (kernel stall windows). Return 0 when healthy. *)
}

val set_hooks : 'a t -> hooks option -> unit
(** Install (or remove) the fault-injection hook set. *)

type delivery = { msg_id : int; from_span : int option }
(** Per-packet wire metadata handed to the handler: the message's unique
    id (keys the delivery into the {!Obs.Causal} event log) and the id of
    the protocol span the sender annotated it with, if any — the trace
    context carried in the message, as in the real implementation's
    per-message header. *)

val create :
  Hw.Machine.t ->
  ring_slots:int ->
  handler:('a t -> dst:node -> src:node -> delivery -> 'a -> unit) ->
  'a t
(** A fabric with no nodes yet; [ring_slots] bounds each receive ring
    (senders block on a full ring). The handler receives every delivered
    message together with its {!delivery} metadata. *)

val add_node : 'a t -> node -> home_core:Hw.Topology.core -> unit
(** Register a kernel and start its message worker. The home core determines
    socket distances for cost modelling. *)

val machine : 'a t -> Hw.Machine.t
val nodes : 'a t -> node list
val home_core : 'a t -> node -> Hw.Topology.core

val send :
  'a t -> ?from_span:int -> src:node -> dst:node -> bytes:int -> 'a -> unit
(** Send; the calling fiber pays the sender-side costs and blocks if the
    destination ring is full. Delivery is asynchronous. Every message gets
    a transport-unique id; when a causal recorder is attached to the
    machine, a [Send] event is emitted (a [Deliver] follows at the
    destination unless the message is lost). [from_span] stamps the
    message with the protocol span it belongs to. *)

val send_from_core :
  'a t ->
  ?from_span:int ->
  src:node ->
  src_core:Hw.Topology.core ->
  dst:node ->
  bytes:int ->
  'a ->
  unit
(** Like {!send} but with an explicit sending core (for threads running on a
    non-home core of the source kernel). Raises [Invalid_argument] when
    [src] or [dst] is not a node of this transport. *)

val set_jitter : 'a t -> max_extra:Time.t -> unit
(** Fault/robustness injection: add a uniformly random extra delay in
    [\[0, max_extra\]] to every delivery (drawn from the engine's seeded
    PRNG, so runs stay deterministic). 0 disables. Used by the protocol
    property tests to stress message interleavings. *)

val stats : 'a t -> stats
val reset_stats : 'a t -> unit
