(** Task (thread) control block, the analogue of Linux's [task_struct]
    restricted to what thread migration needs. *)

type state =
  | Ready
  | Running
  | Blocked of string  (** why, e.g. "futex" or "migration" *)
  | Exited of int

type t = {
  tid : Ids.tid;
  tgid : Ids.pid;  (** thread group (process) id. *)
  origin_kernel : int;  (** kernel where the thread was created. *)
  mutable kernel : int;  (** kernel currently hosting the thread. *)
  mutable core : Hw.Topology.core option;
  mutable state : state;
  mutable ctx : Context.t;
  mutable migrations : int;  (** how many times it has migrated. *)
  mutable recent_vpns : int list;
      (** small MRU ring of recently-touched virtual pages — the working
          set shipped ahead by migration prefetch. *)
}

val create :
  tid:Ids.tid -> tgid:Ids.pid -> kernel:int -> ctx:Context.t -> t

val is_live : t -> bool

val note_touch : t -> vpn:int -> unit
(** Record a memory touch in the MRU ring (bounded, most recent first). *)

val set_state : t -> state -> unit

val pp : Format.formatter -> t -> unit
