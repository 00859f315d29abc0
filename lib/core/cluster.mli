(** Booting the replicated-kernel OS and dispatching inter-kernel messages
    to the subsystems. *)

open Types

val dispatch :
  cluster ->
  dst:int ->
  src:int ->
  delivery:Msg.Transport.delivery ->
  payload ->
  unit
(** Route one delivered message to its subsystem handler (installed as the
    transport handler by {!boot}; exposed for tests). [delivery] carries the
    wire metadata of the triggering message; handlers that open a span link
    it to that message in the causal event log ({!Obs.Causal}). *)

val boot :
  ?opts:options -> Hw.Machine.t -> kernels:int -> cores_per_kernel:int ->
  cluster
(** Boot a replicated-kernel OS: one kernel per contiguous block of
    [cores_per_kernel] cores, each with its own scheduler, id-space slice,
    mm lock, futex table and message endpoint. *)

val enable_tracing : cluster -> Sim.Trace.t
(** Start collecting protocol events (migrations, faults, mm ops...);
    returns the trace for inspection or [Sim.Trace.pp]. *)

val observe : cluster -> Obs.Sink.t -> unit
(** Route the cluster-level pieces of a sink: its trace ring becomes the
    protocol-event tracer and its metrics registry gets every kernel's
    rpc.* counters. Called right after {!boot}, on a machine the same sink
    is attached to ({!Hw.Machine.attach_obs}). With nothing attached the
    instrumentation is free and simulated results are bit-identical. *)

val create_process :
  cluster -> origin_kernel:int -> process * Kernelmodel.Task.t
(** Fresh single-threaded process on [origin_kernel] with a conventional
    initial layout (text, heap, stack). Must run inside the simulation.
    Most callers want [Api.start_process] instead. *)
