type t = {
  metrics : Metrics.t;
  spans : Span.t;
  causal : Causal.t;
  trace : Sim.Trace.t;
}

let create () =
  {
    metrics = Metrics.create ();
    spans = Span.create ();
    causal = Causal.create ();
    trace = Sim.Trace.create ();
  }
