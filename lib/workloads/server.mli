(** Open-loop server workload over the Popcorn cluster.

    Requests arrive at a configured rate {e regardless of completion} — the
    open-loop discipline of serious latency benchmarking: a closed loop
    (next request only after the previous answer) self-throttles under
    stress and hides exactly the collapse this workload exists to measure.
    Each arrival is handed to a {!Popcorn.Placement} dispatcher (admission
    control, health-aware kernel choice, bounded retry) and its fate is
    recorded: completed with a latency sample, shed ([Rejected]), or failed
    (every placement attempt timed out).

    Compose with [Inject.Plan] fault plans on the cluster's transport to
    measure behaviour under kernel crash / slowness / message loss. *)

(** Arrival process and per-request cost. *)
type config = {
  requests : int;  (** total arrivals. *)
  interarrival : int -> Sim.Time.t;
      (** gap before arrival [i] (1-based): constant for a steady rate, or
          vary by index for bursts. *)
  cost_ns : int;  (** CPU cost of serving one request. *)
  deadline_ns : Sim.Time.t option;
      (** optional per-request SLO: arrival-to-response budget. Passed to
          {!Popcorn.Placement.dispatch} (which accounts
          [slo.dispatch.met] / [slo.dispatch.violations]) and used for
          the {!field-within_deadline} / {!goodput_within} report.
          Accounting only — never changes scheduling. *)
}

type stats = {
  offered : int;  (** arrivals (= [config.requests]). *)
  completed : int;  (** got a response. *)
  rejected : int;  (** shed by admission control. *)
  failed : int;  (** exhausted every placement attempt. *)
  retried : int;  (** completed, but needed more than one attempt. *)
  within_deadline : int;
      (** completed within [deadline_ns] (0 when no deadline was set). *)
  latency : Stats.Histogram.t;
      (** arrival-to-response latency (ns) of completed requests. *)
  elapsed : Sim.Time.t;  (** first arrival to last outcome (drain included). *)
}

val goodput : stats -> float
(** Completed fraction of offered, in [0,1]. *)

val shed_rate : stats -> float
(** Rejected fraction of offered, in [0,1]. *)

val goodput_within : stats -> float
(** Fraction of offered requests that completed {e within their
    deadline}, in [0,1] — the SLO-aware goodput. 0 when the config
    carried no deadline. *)

val run : Popcorn.Types.cluster -> Popcorn.Placement.t -> config -> stats
(** Run the workload to completion (spawns its own fibers; call from a
    fiber, returns once every request has an outcome). Each completion also
    feeds the [server.latency_ns] metric when observability is attached. *)
