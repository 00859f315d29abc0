(** Worst-case latency and SLO accounting over the critical-path DAG.

    The rest of the observability stack reports {e distributions}
    (p50/p99/p999/max of metric histograms). This module graduates it
    into a {e bound}: for each protocol root kind (migrations, remote
    thread creations) it computes the worst-case end-to-end latency of a
    run from the same happens-before index {!Critpath} builds — not a
    percentile estimate but the exact slowest root — together with the
    per-phase partition of that worst path (where the budget went), and
    folds in the deadline counters the protocol layer records when
    migrations or placement dispatches carry deadlines
    ([slo.met] / [slo.violations] / [slo.dispatch.*]).

    Everything here is a pure function of spans + causal events +
    counters, so summaries are deterministic and byte-stable across
    runs — which is what lets `popcornsim diff` compare them and the R4
    experiment assert bit-identity under [--jobs 4]. *)

type phase = {
  ph_label : string;
      (** span kind of the segment owner ("context_capture", "transfer",
          "import", …), or ["wire"] for in-flight message time. *)
  ph_ns : int;
}
(** One phase's share of the worst root's critical path. *)

type kind_summary = {
  ks_kind : string;  (** {!Span.kind_name} of the root ("migration", …). *)
  ks_roots : int;
  ks_mean_ns : int;
  ks_p99_ns : int;
      (** exact 99th percentile over the root latencies (no bucket error:
          computed from the full sorted list, not a histogram). *)
  ks_worst_ns : int;  (** the slowest root's end-to-end latency. *)
  ks_worst_sid : int;
  ks_worst_run : int;
  ks_worst_kernel : int;
  ks_phases : phase list;
      (** critical-path partition of the worst root, merged by phase
          label, descending time; durations sum exactly to
          [ks_worst_ns]. *)
}

(** Deadline accounting counters, as recorded by the protocol layer. *)
type counters = {
  met : int;  (** migrations that met their deadline. *)
  violations : int;  (** migrations that missed (or failed outright). *)
  dispatch_met : int;  (** placement dispatches within deadline. *)
  dispatch_violations : int;
}

val no_counters : counters

val counters_of_registry : Metrics.t -> counters
(** Read the [slo.met] / [slo.violations] / [slo.dispatch.met] /
    [slo.dispatch.violations] counters (global scope). *)

val counters_of_json : Json.t -> counters
(** Same, from an exported "metrics" section (sums kernel scopes);
    tolerant — missing pieces read as zero. *)

type t = { kinds : kind_summary list; counters : counters }

val kinds_analyzed : string list
(** Root kinds summarized, in report order (migration first). *)

val summarize : ?counters:counters -> Critpath.t -> t
(** Analyze one dataset's index. Kinds with no roots are omitted. A
    root's latency is its {!Critpath.duration}, so the only critical path
    computed is the worst root's, for its phase budget. *)

val worst_path : Critpath.t -> kind_summary -> Critpath.path option
(** The critical path of the worst root [kind_summary] names, from the
    index it was summarized from; [None] when the index holds no such
    root. *)

val record : t -> Metrics.t -> unit
(** Write [slo.<kind>.worst_case_ns] and [slo.<kind>.mean_ns] gauges for
    every summarized kind into a registry, so exported metrics (and the
    committed baselines) carry the bound and `popcornsim diff`'s
    time-metric rule flags regressions of the worst case itself. *)

val to_json : t -> Json.t
(** The [popcornsim-slo-v1] section of a results document. *)

val of_json : Json.t -> t option
(** Tolerant inverse of {!to_json}; [None] if the schema tag is absent. *)

val render : t -> string
(** The "worst-case & SLO" report block of [popcornsim analyze]:
    per-kind roots/mean/p99/worst rows, the worst path's phase budget,
    and the deadline counters when any deadline was carried. *)
