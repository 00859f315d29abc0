(** Deterministic discrete-event simulation engine with lightweight fibers.

    An engine owns a virtual clock and an event queue. Simulated activities
    are {e fibers}: ordinary OCaml functions that may call {!sleep},
    {!suspend} and the synchronisation primitives built on them. Fibers are
    implemented with effect handlers, so simulation code reads like direct
    style ("compute for 3us, then take the lock") while the engine
    single-steps events in virtual-time order.

    Determinism: given the same seed and the same program, every run produces
    the identical event interleaving. Events scheduled for the same instant
    fire in scheduling order: the queue is an {!Eheap} keyed by
    (time, scheduling sequence). *)

type t

exception Fiber_failure of string * exn
(** Raised out of {!run} when a fiber terminates with an uncaught exception.
    The string is the name of the fiber's label, which names its kind
    (see {!label}). *)

val create : ?seed:int -> unit -> t
(** Fresh engine with clock at zero. [seed] (default 42) seeds {!rng}. *)

val now : t -> Time.t
(** Current virtual time. *)

val rng : t -> Prng.t
(** The engine's deterministic random stream. *)

val seed : t -> int
(** The seed this engine was created with. Components that need their own
    independent random stream (e.g. fault injection) derive one from this
    without advancing {!rng} — which would perturb the simulation. *)

val events_processed : t -> int
(** Total events executed so far; a cheap progress/complexity metric. *)

(** {1 Interned labels}

    Every event is labelled with the (name, subsystem tag) of the fiber it
    belongs to, interned per engine into a dense int id. Hot paths — the
    scheduler, the profiling observer — carry only the id; the strings are
    resolved on demand. Ids are engine-local: never mix labels across
    engines.

    A label names a {e kind} of fiber ("req", "thread", "msg-handler"),
    never an instance: no request number, tid or node id in the name. An
    engine keeps every label it interned until it is dropped, so a
    per-instance name would grow its table with every fiber started.
    Profiles aggregate by label, and {!Fiber_failure} names the kind. *)

type label = private int

val label : t -> ?tag:string -> string -> label
(** Intern (or look up) the id for [(name, tag)]. A site that spawns per
    request or per thread calls this once and reuses the result
    ({!spawn_label}). *)

val label_name : t -> label -> string
val label_tag : t -> label -> string option

(** {1 Scheduler introspection}

    All counters below are maintained unconditionally — plain integer
    updates in simulated-deterministic order, so reading (or ignoring) them
    can never change a run. *)

val queue_length : t -> int
(** Events currently in the event queue. *)

val queue_max_length : t -> int
(** High-water mark of {!queue_length} over the engine's lifetime. *)

val parks : t -> int
(** Fibers parked so far (every {!suspend}, including the ones behind the
    blocking primitives). *)

val resumes : t -> int
(** Parked fibers resumed so far; [parks t - resumes t] fibers are currently
    parked (or were abandoned without a wake-up). *)

val waitq_dead : t -> int
(** Dead (cancelled-but-not-yet-purged) entries across every {!Waitq}
    created with this engine; see {!Waitq.dead_count}. *)

val waitq_dead_max : t -> int

val chan_queued : t -> int
(** Items buffered across every {!Channel} of this engine. *)

val chan_queued_max : t -> int

(**/**)

(** Maintenance hooks for the aggregate counters above; called by [Waitq]
    and [Channel], not by simulation code. *)
module Introspect : sig
  val waitq_dead_add : t -> int -> unit
  val chan_queued_add : t -> int -> unit
end

(**/**)

(** {1 Scheduling} *)

val schedule : t -> after:Time.t -> (unit -> unit) -> unit
(** Run a plain callback [after] nanoseconds from now.

    {b Contract}: the callback runs outside any fiber, so it must not
    sleep or suspend; if it does, {!run} raises [Effect.Unhandled]. It
    may spawn fibers, resume parked ones and schedule further events.
    Code that blocks is started with {!spawn} (and {!sleep}s first to
    start later). An exception a callback raises propagates out of {!run}
    unchanged. Every callback carries the one label ["callback"],
    interned at the engine's first [schedule]. *)

val spawn : t -> ?name:string -> ?tag:string -> (unit -> unit) -> unit
(** Start a new fiber at the current instant. [name] (default ["fiber"])
    appears in {!Fiber_failure} and labels the fiber's events for the
    profiling observer; [tag] is an optional subsystem tag (e.g. ["msg"],
    ["popcorn"]) that groups labels in profile reports. *)

val spawn_label : t -> label -> (unit -> unit) -> unit
(** {!spawn} with a pre-interned label: the form for sites that start the
    same kind of fiber per message, request or thread, which must not
    re-hash its name each time. *)

val run : ?until:Time.t -> t -> unit
(** Execute events until the queue is empty, or until the clock would pass
    [until]. Events sharing an instant are drained as one cohort in a
    single dispatch iteration, in exact scheduling ([seq]) order — the
    interleaving is identical to one-event-per-iteration dispatch.
    Re-raises {!Fiber_failure} if any fiber died. *)

(** {1 Fiber operations}

    These must be called from inside a fiber (i.e. from code started via
    {!spawn}), never from a {!schedule}d callback. *)

val sleep : t -> Time.t -> unit
(** Advance this fiber's virtual time by the given duration. *)

val yield : t -> unit
(** Re-schedule at the current instant, after already-queued events. *)

val suspend : t -> (('a -> unit) -> unit) -> 'a
(** [suspend t register] parks the fiber and calls [register resume].
    Whoever calls [resume v] (later, from any fiber or callback) reschedules
    the fiber, which then returns [v] from [suspend]. [resume] is idempotent:
    calls after the first are ignored, so racing wake-ups (e.g. a signal and
    a timeout) are safe.

    {b Contract}: [register] runs in the scheduler's context, outside any
    fiber, so it must not itself sleep or suspend — it should only record
    [resume] somewhere (a wait queue, a ticket table) and/or schedule plain
    events. Do the effectful work (sending messages, charging costs) in the
    fiber before calling [suspend]. *)

(** {1 Profiling observer} *)

(** Host-side hooks invoked by {!run} around each event execution. The
    engine calls [on_event] (with the event's interned fiber label and the
    virtual time it fires at) immediately before running the event and
    [on_event_done] immediately after; [on_run_start] / [on_run_stop]
    bracket each {!run} call so an observer can separate in-run scheduler
    time from time the host spends outside the engine entirely. Resolve
    the label with {!label_name} / {!label_tag} (cheap array reads).

    The observer runs on the host clock only: it is invoked in a fixed,
    deterministic order, is given no way to schedule events or touch the
    RNG, and the engine never inspects its behaviour — so simulated results
    are bit-identical with or without one installed. *)
type observer = {
  on_run_start : now:Time.t -> unit;
  on_event : label:label -> now:Time.t -> unit;
  on_event_done : unit -> unit;
  on_run_stop : now:Time.t -> unit;
}

val set_observer : t -> observer option -> unit
(** Install (or remove) the profiling observer. When none is installed the
    per-event cost is a single [option] check. *)
