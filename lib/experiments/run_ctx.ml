(** Explicit per-run context for the experiment stack.

    Everything an experiment run needs that used to be ambient — the
    observability sink, the machine seed, the quick flag — plus a private
    output buffer, travels in one value. Threading it explicitly (instead
    of a module-level [ref] in [Common]) makes a run self-contained, which
    is what lets [Registry.run_all] fan independent experiments out over
    [Domain]s: each job owns its context, so jobs share nothing and the
    results are identical to a serial run. *)

type t = {
  sink : Obs.Sink.t option;
      (** When set (the CLI [--json] / [--trace-out] /
          [--baseline-out] paths), every machine the run boots gets the
          sink's metrics registry and span recorder attached, and Popcorn
          clusters additionally get the trace ring and per-kernel [rpc.*]
          routing. One experiment may boot many machines; they share the
          run's sink (the span recorder separates them by run index). *)
  seed : int;  (** Machine/PRNG seed for every machine the run boots. *)
  quick : bool;  (** Shrink parameter sweeps for a fast run. *)
  coherence : Coherence.Protocol.t;
      (** Page-coherence protocol every Popcorn cluster of the run boots
          with (the CLI [--coherence] flag), unless an experiment pins its
          own options explicitly. *)
  prof : Obs.Prof.t option;
      (** When set (the [popcornsim profile] path), every machine the run
          boots gets the profiler attached as its engine observer, so host
          self-time, GC deltas and scheduler telemetry accumulate across
          the whole run. Host-side only: simulated results are
          bit-identical with or without it. *)
  out : Buffer.t;
      (** Private output buffer: anything an experiment wants to narrate
          goes here, never to stdout, so concurrent runs cannot interleave.
          [Registry.run_one] folds it into the outcome's rendered output. *)
  mutable engines : Sim.Engine.t list;
      (** Every engine the run booted (pushed by [Common.machine]), so
          [Registry.run_one] can total [Engine.events_processed] after the
          body finishes — the events/sec throughput metric. *)
}

(** The historical default; previously hard-coded in [Common.machine]. *)
let default_seed = 42

let create ?sink ?prof ?(seed = default_seed) ?(quick = false)
    ?(coherence = Coherence.Protocol.Origin_home) () =
  {
    sink;
    seed;
    quick;
    coherence;
    prof;
    out = Buffer.create 1024;
    engines = [];
  }

let printf t fmt = Printf.ksprintf (Buffer.add_string t.out) fmt
let output t = Buffer.contents t.out

(** Total simulator events executed by every machine this run booted. *)
let total_events t =
  List.fold_left (fun acc e -> acc + Sim.Engine.events_processed e) 0 t.engines
