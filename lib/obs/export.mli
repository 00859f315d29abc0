(** Exporters for recorded observability data. *)

val chrome_trace : Sink.t list -> Json.t
(** Chrome [trace_event] JSON (load in {{:https://ui.perfetto.dev}Perfetto}
    or [chrome://tracing]). Each span becomes a complete ("X") event on a
    process track named after its (run, kernel) pair, with simulated
    nanoseconds mapped to trace microseconds; its [args] are
    {!Span.to_json}. Causal events become flow events ("s"/"f", cat
    "causal") linking the sending track to the delivering track, with link
    records as instants; their [args] are {!Causal.event_to_json}. So
    [popcornsim analyze] reads a trace with the same decoders as a results
    document. A span left open keeps [stop = -1] in its args; only its
    [dur] draws it to the end of its run ({!Critpath.duration}), for
    display. Trace-ring entries and link records, which belong to no
    kernel, become instant ("i") events on pid 0, which no (run, kernel)
    track takes. Every track is named by one [process_name] metadata
    event, emitted before its first event. Each sink gets its own run
    range, one past the largest run of its spans and causal events, and
    every run number (tracks and args alike) is offset into that range,
    so runs of different sinks never collide. *)
