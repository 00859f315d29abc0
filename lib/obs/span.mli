(** Typed spans over simulated time for the migration protocol and friends.

    A recorder accumulates closed intervals ([start ..stop] in simulated
    nanoseconds) tagged with a protocol phase, the kernel they ran on and an
    optional thread id. Spans may nest via [?parent], which the Chrome-trace
    exporter preserves as stack depth. Recording never sleeps and never
    touches the engine RNG, so an instrumented run is bit-identical in
    simulated time to an uninstrumented one. *)

type kind =
  | Migration  (** whole [Api.migrate] round trip, recorded at the source *)
  | Context_capture  (** saving registers + FPU state before transfer *)
  | Transfer  (** RPC to the destination kernel, including retries *)
  | Import  (** destination-side address-space consistency import *)
  | Resume  (** destination scheduling the thread back in *)
  | Thread_group_create
  | Page_fault
  | Futex
  | Custom of string

val kind_name : kind -> string

val kind_of_name : string -> kind
(** Inverse of {!kind_name}; a name it does not produce decodes as
    [Custom]. *)

type span = {
  id : int;
  parent : int option;
  kind : kind;
  kernel : int;
  tid : int option;
  run : int;  (** which machine boot this span belongs to *)
  start : Sim.Time.t;
  mutable stop : Sim.Time.t;  (** -1 while the span is still open *)
}

type t

val create : unit -> t

val new_run : t -> unit
(** Call once per machine/cluster boot sharing this recorder; spans from
    different runs export to different Chrome-trace process tracks. *)

val start :
  t -> ?parent:int -> ?tid:int -> kernel:int -> at:Sim.Time.t -> kind -> span
(** Open a span at simulated time [at]. [?parent] is the id of an enclosing
    span. *)

val finish : span -> at:Sim.Time.t -> unit

val spans : t -> span list
(** All spans in creation order. *)

(** {1 JSON}

    One shape serves both an entry of a results document's ["spans"]
    section and the [args] of a Chrome-trace span event:
    [{"id","kind","kernel","run","start","stop"}], then ["parent"] and
    ["tid"] when present. An open span keeps [stop = -1]; only the analysis
    ({!Critpath}) clamps it. *)

val to_json : ?run_offset:int -> span -> Json.t
(** [run_offset] (default 0) is added to [run], so spans of several
    recorders merged into one document keep distinct runs. *)

val of_json : Json.t -> span option
(** Tolerant inverse of {!to_json}: [None] unless [id], [kind], [kernel]
    and [start] are present; [run] defaults to 0 and [stop] to -1. *)
