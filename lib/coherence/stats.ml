(** Per-cluster coherence traffic counters. Unlike the observability
    metrics registry (optional, attached per run), these are always on:
    they are plain mutable fields, cost nothing in simulated time, and are
    what experiment R3 reads to report directory load per protocol. *)

type t = {
  mutable faults : int;  (** faults serviced (local + remote). *)
  mutable local_faults : int;  (** serviced without leaving the kernel. *)
  mutable dir_hops : int;  (** fault requests sent to a remote home. *)
  mutable grants : int;  (** directory decisions taken. *)
  mutable invalidations : int;  (** reader copies revoked by writes. *)
  mutable max_fanout : int;  (** largest single invalidation set. *)
  mutable pulls : int;  (** writable copies revoked by the directory. *)
  mutable downgrades : int;  (** writable copies demoted to read-only. *)
  mutable drop_msgs : int;  (** batched directory-drop messages (munmap). *)
}

let create () =
  {
    faults = 0;
    local_faults = 0;
    dir_hops = 0;
    grants = 0;
    invalidations = 0;
    max_fanout = 0;
    pulls = 0;
    downgrades = 0;
    drop_msgs = 0;
  }
