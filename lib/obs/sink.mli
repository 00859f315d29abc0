(** A sink bundles one of everything the instrumentation can feed: a metrics
    registry, a span recorder, a causal (message send/deliver) event log and
    a bounded trace ring. Create one, attach it to a machine or cluster,
    run, then export ({!Export.chrome_trace}). *)

type t = {
  metrics : Metrics.t;
  spans : Span.t;
  causal : Causal.t;
  trace : Sim.Trace.t;
}

val create : unit -> t
(** The trace ring holds the 4096 most recent events. *)
