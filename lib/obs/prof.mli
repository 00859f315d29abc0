(** Host-time profiling and engine telemetry.

    Where the rest of [lib/obs] attributes {e simulated} nanoseconds to
    protocol phases, [Prof] answers the other question: where does a {e
    host} second go while the simulator runs? It plugs into the engine's
    observer hook ({!Sim.Engine.set_observer}) and, per event, attributes
    monotonic wall-clock self-time, an event count and GC minor/major-word
    deltas to the event's label — the fiber's name, which names a kind of
    fiber ("thread", "req"; see {!Sim.Engine.label}), plus the spawn
    site's subsystem tag. It also samples scheduler-introspection series
    over virtual time: event-heap depth (current and high-water), fiber
    park/resume totals, dead wait-queue entries and buffered channel
    items.

    Profiling is off by default and provably inert when off: with no
    observer installed the engine pays one [option] check per event, and
    with one installed the observer only reads host clocks and engine
    counters — it cannot schedule events, advance time or touch the RNG, so
    simulated results are bit-identical either way (enforced by
    [test_prof.ml]).

    One [Prof.t] may be attached to many engines in sequence (an experiment
    boots a fresh machine per data point); stats accumulate across all of
    them and samples carry the boot index. *)

type t

val create : ?sample_every:Sim.Time.t -> unit -> t
(** [sample_every] is the virtual-time interval between introspection
    samples (default 100us). The sample buffer is bounded: when it fills,
    the interval doubles and every other retained sample is dropped, so
    long runs keep coarse coverage instead of failing. *)

val attach : t -> Sim.Engine.t -> unit
(** Install this profiler as [eng]'s observer and start a new boot
    (sampling restarts at virtual time zero). *)

val detach : Sim.Engine.t -> unit
(** Remove any observer from [eng]. *)

val boots : t -> int
(** How many engines this profiler has been attached to. *)

(** Accumulated per-label totals. [self_ns] is host monotonic self-time;
    [minor_words]/[major_words] are GC allocation deltas attributed to the
    label's events (the profiler's own bookkeeping allocates a few words
    per event, which is included — use [popcornsim profile --overhead] to
    bound it). *)
type row = {
  name : string;  (** the fiber's label name, as spawned *)
  tag : string option;  (** subsystem tag from the spawn site *)
  events : int;
  self_ns : int;
  minor_words : float;
  major_words : float;
}

val rows : t -> row list
(** All labels, hottest (largest [self_ns]) first; ties break by name so
    the order is deterministic. *)

val total_events : t -> int

val attributed_ns : t -> int
(** Sum of [self_ns] over all labels. *)

val sched_ns : t -> int
(** Host time spent inside [Engine.run] but between events: heap pops,
    dispatch, the observer itself. [attributed_ns + sched_ns] is the host
    time of everything under [Engine.run]; the remainder of an experiment's
    [host_ms] is harness code outside the engine. *)

(** One scheduler-introspection sample. *)
type sample = {
  boot : int;  (** which engine attachment this sample belongs to *)
  at : Sim.Time.t;  (** virtual time *)
  s_events : int;  (** events processed by that engine so far *)
  queue_len : int;
  queue_max : int;
  s_parks : int;
  s_resumes : int;
  s_waitq_dead : int;
  s_chan_queued : int;
}

val samples : t -> sample list
(** Chronological (boot, then virtual time). *)

val report : t -> host_ms:float -> top:int -> string
(** The hot-label table: top-[top] labels by host self-time with events,
    ns/event and allocated words/event, then aggregate rows for the
    remaining labels, engine dispatch ({!sched_ns}) and unattributed
    harness time, summing to [host_ms]; followed by a scheduler-telemetry
    summary. *)

val folded : t -> string
(** Flamegraph-compatible folded stacks, one line per label:
    ["popcornsim;<tag>;<name> <self_ns>"] (plus a line for engine
    dispatch). Feed to [flamegraph.pl] or speedscope. *)

val to_json : t -> host_ms:float -> Json.t
(** Machine-readable dump: totals, per-label rows and the sampled
    introspection series. *)
