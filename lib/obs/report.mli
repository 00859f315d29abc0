(** Deterministic ASCII reports over exported observability documents:
    the back end of [popcornsim analyze] and [popcornsim diff].

    Accepts either a results document ([popcornsim-bench-v2], whose
    experiments carry "spans" and "causal" sections) or a Chrome trace
    file written by {!Export.chrome_trace}, whose span and causal events
    carry the same objects as [args]; both decode with {!Span.of_json}
    and {!Causal.event_of_json}. All output is a pure function of the
    document contents — no wall clock, no randomness — so reports diff
    cleanly across runs. *)

type dataset = {
  label : string;  (** experiment id, or ["trace"] for a Chrome trace *)
  spans : Span.span list;
  causal : Causal.event list;
  slo_counters : Slo.counters;
      (** deadline accounting parsed from the experiment's metrics
          section; {!Slo.no_counters} when the document carries none. *)
}

val datasets_of_doc : Json.t -> dataset list
(** Extract analyzable datasets from a parsed document. Results documents
    yield one dataset per experiment that recorded spans; Chrome traces
    yield a single dataset. Unrecognized documents yield []. *)

val analyze_doc : Json.t -> (string, string) result
(** Full report over every dataset in the document; [Error] when the
    document contains nothing analyzable. *)

val diff :
  ?fail_pct:float -> old_doc:Json.t -> new_doc:Json.t -> unit -> string * int
(** Metric-by-metric comparison of two results documents (v1 or v2).
    Time metrics (name containing ["_ns"], including histogram
    mean/p99/p999/max projections — max so pure tail regressions gate
    too, and the [slo.*.worst_case_ns] gauges so the certified bound
    itself gates) regress when they grow by more than [fail_pct] percent
    (default 10); failure-ish counters (.failed / .dropped / .gave_up /
    .dup_suppressed / .unclosed / .violations / doorbells_lost) regress
    on any increase. Improvements, disappearances and new metrics are reported
    as info. Returns the rendered report and the number of regressions;
    [host_ms] is never compared (host wall-clock is nondeterministic). *)
