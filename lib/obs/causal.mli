(** Typed causal events of the messaging layer.

    Every [Msg.Transport] message carries a unique id within its (transport,
    run); three event kinds record the cross-kernel happens-before edges:

    - [Send]: a message left a kernel, optionally annotated with the id of
      the protocol span it was sent from (the span "carried" on the wire);
    - [Deliver]: the destination worker handed it to the handler;
    - [Link]: a span on the destination was opened to process it.

    Chaining [span --Send--> message --Deliver/Link--> span] reconstructs
    the happens-before DAG of a run; {!Critpath} walks it. Recording never
    sleeps and never touches the engine RNG, so instrumented runs are
    bit-identical in simulated time to uninstrumented ones. *)

type event =
  | Send of {
      id : int;
      run : int;
      src : int;
      dst : int;
      at : Sim.Time.t;
      bytes : int;
      from_span : int option;
    }
  | Deliver of { id : int; run : int; dst : int; at : Sim.Time.t }
  | Link of { id : int; run : int; span : int }

type t

val create : unit -> t

val new_run : t -> unit
(** Call once per machine boot sharing this recorder (mirrors
    [Span.new_run]); events from different runs never share message ids. *)

val emit_send :
  t ->
  id:int ->
  src:int ->
  dst:int ->
  at:Sim.Time.t ->
  bytes:int ->
  from_span:int option ->
  unit

val emit_deliver : t -> id:int -> dst:int -> at:Sim.Time.t -> unit

val link : t -> id:int -> span:int -> unit
(** Message [id] caused the opening of span [span] on the receiving
    kernel. *)

val events : t -> event list
(** All events in emission order. *)

val count : t -> int

val event_to_json : ?run_offset:int -> event -> Json.t
(** One event object ([{"ev":"send"|"deliver"|"link", ...}]): an entry of
    a results document's ["causal"] section and the [args] of a
    Chrome-trace flow event alike. [run_offset] (default 0) is added to
    [run], so events of several recorders merged into one document keep
    distinct runs. *)

val to_json : t -> Json.t
(** Array of {!event_to_json} objects, in emission order. *)

val event_of_json : Json.t -> event option
(** Inverse of {!event_to_json}; [None] on anything malformed. *)

val events_of_json : Json.t -> event list
(** Tolerant inverse of {!to_json}: malformed or unknown entries are
    skipped, so truncated documents still decode. *)
