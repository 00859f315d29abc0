(** Physical memory: per-socket frame pools.

    Frames are integers numbered node-major, so [node_of_frame] is a pure
    division. Double frees are detected eagerly. *)

type t

type frame = int

val create : Topology.t -> frames_per_socket:int -> t

val frames_per_socket : t -> int
val total_frames : t -> int

val alloc : t -> node:int -> frame option
(** Allocate preferring [node], falling back to other sockets in ascending
    node order; [None] when physical memory is exhausted. *)

val alloc_exn : t -> node:int -> frame
(** @raise Failure when out of memory. *)

val free : t -> frame -> unit
(** @raise Invalid_argument on double free or out-of-range frame. *)

val node_of_frame : t -> frame -> int

val used_count : t -> int
