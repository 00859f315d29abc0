(** Happens-before reconstruction and critical-path analysis.

    Combines a span forest ({!Span}) with the messaging layer's causal
    event log ({!Causal}) into the cross-kernel happens-before DAG of a
    run, then answers two questions about it:

    - {b critical path}: for a root protocol span (e.g. one migration),
      the chain of span / wire segments that accounts for every nanosecond
      of its end-to-end latency. Segments partition the root's window
      exactly: their durations sum to the root's duration.
    - {b self time}: flamegraph-style attribution of each span's own time
      (duration minus nested children and in-flight wire time), rolled up
      per subsystem.

    Analysis reads {!Span.span} records, whether they come from a live
    recorder or were decoded with {!Span.of_json} from a results document
    or a Chrome trace; it alone clamps spans left open. *)

(** {1 The happens-before index} *)

type t
(** The happens-before index of one dataset: every span by (run, id), the
    parent -> children edges, each message's first send and first
    delivery, its {!Causal.Link}ed spans, the messages each span sent, and
    each run's latest timestamp (where open spans are clamped). Every
    query below reads this one value, so a report builds it once per
    dataset, not once per root. Everything is keyed by (run, id), because
    message ids restart per machine boot. *)

val build : spans:Span.span list -> causal:Causal.event list -> t
(** Index a dataset in one pass over [spans] and one over [causal]: time
    and space linear in their lengths. The first [Send] and the first
    [Deliver] of a message id win, so duplicate deliveries are ignored;
    a [Send] without a [Deliver] is a lost message. *)

val duration : t -> Span.span -> int
(** A span's latency: its stop (or, while open, the latest timestamp of
    its run) minus its start. For a root this is the [total_ns] of its
    {!critical_path}, without computing the path. *)

(** {1 Critical path} *)

type seg = {
  label : string;
      (** ["kind\@k<kernel>"] for span segments, ["wire k<src>->k<dst>"]
          for time a message was in flight. *)
  on_wire : bool;
  seg_start : int;
  seg_stop : int;
}

type path = { root : Span.span; total_ns : int; segs : seg list }
(** [total_ns] equals the root span's (clamped) duration and equals the
    sum of all segment durations — the partition is exact. *)

val critical_path : t -> root:Span.span -> path
(** Critical path through the happens-before component reachable from
    [root]: children via parent edges, messages via their sending span,
    remote spans via the message that caused them ({!Causal.Link}).
    Every elementary time slice of the root's window is attributed to the
    innermost active interval (latest start wins; wire beats its sender),
    and consecutive slices with the same owner merge into one segment.
    The work depends on the size of that component, not of the
    dataset. *)

val roots : t -> kind:string -> Span.span list
(** Top-level spans (no parent) whose {!Span.kind_name} is [kind], in
    creation order. *)

(** {1 Self time} *)

val subsystem : string -> string
(** Map a span-kind name to its owning subsystem: migration phases to
    ["migration"], page faults to ["coherence"], futexes to ["futex"],
    thread-group create/import to ["thread_group"], task listing to
    ["ssi"]; unknown kinds map to themselves, wire time to ["msg"]. *)

val self_times : t -> (string * int) list
(** Per-subsystem self time over every run in the dataset: each span's
    duration minus its children and its own messages' wire time (clipped
    to the span), plus all delivered messages' wire time under ["msg"].
    Sorted by descending time, then name; concurrent spans each count
    their own self time in full. *)
