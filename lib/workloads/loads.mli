(** Workload generators, parametric over the OS model (see {!Os_intf.S}).

    These are the programs the evaluation runs on both Popcorn and SMP
    Linux; workers spread round-robin across placement targets (kernels)
    on Popcorn, while SMP ignores placement. *)

module Make (Os : Os_intf.S) : sig
  val spawn_storm :
    Sim.Engine.t -> Os.thread -> spawners:int -> per_spawner:int -> unit
  (** F2: concurrent thread-creation storm. *)

  val mmap_stress :
    Sim.Engine.t -> Os.thread -> workers:int -> ops:int -> pages:int -> unit
  (** F3: concurrent map-touch-unmap churn. *)

  val futex_pingpong :
    Sim.Engine.t -> Os.thread -> pairs:int -> rounds:int -> unit
  (** F5: futex round trips between thread pairs. *)

  val app_cpu_bound :
    Sim.Engine.t -> Os.thread -> workers:int -> iters:int -> unit
  (** F6: embarrassingly parallel compute (NPB EP-like). *)

  val app_mm_bound :
    Sim.Engine.t -> Os.thread -> workers:int -> iters:int -> unit
  (** F6: allocation churn (mmap/touch/munmap per iteration). *)

  val app_comm_bound :
    Sim.Engine.t -> Os.thread -> workers:int -> iters:int -> unit
  (** F6: stencil-style neighbour sharing (true data sharing). *)

  val app_sync_bound :
    Sim.Engine.t -> Os.thread -> workers:int -> iters:int -> unit
  (** F6: futex ping-pong pipeline with light compute. *)
end
