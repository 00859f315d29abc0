(** Inter-kernel load balancing.

    Per-kernel balancer fibers periodically exchange run-queue weights over
    the messaging layer; an overloaded kernel leaves migration hints that
    its threads consume at cooperative migration points ([Api.compute]
    boundaries) — how Popcorn migrates: the kernel proposes, the thread's
    next safe point disposes.

    Load queries are individually timed (a crashed peer costs a timeout,
    not a wedged balancer) and their outcomes feed an optional {!Health}
    tracker; drained peers are skipped, and a kernel that is itself
    drained self-quarantines — it skips its own rounds, because a node
    that cannot reach its peers would otherwise report the healthy
    majority as dead. Destinations come from {!Placement.choose}. Hints
    nothing consumes are expired (the
    [balancer.hints_stale] metric counts them). *)

open Types

type t

val start :
  ?period:Sim.Time.t ->
  ?threshold:int ->
  ?health:Health.t ->
  ?hint_ttl:Sim.Time.t ->
  ?query_timeout:Sim.Time.t ->
  cluster ->
  t
(** Start balancer fibers on every kernel. [period] defaults to 1 ms;
    [threshold] (default 2) is how far above the cluster average a
    kernel's load must be before it sheds a thread; [health] (when given) is
    fed every load-query outcome and masks drained peers; [hint_ttl]
    (default 2 periods) expires unconsumed hints; [query_timeout] (default
    100 us) bounds each per-peer load query. *)

val stop : t -> unit
(** Stop all balancer fibers (at their next period boundary). *)

val hints_issued : t -> int

val hints_stale : t -> int
(** Hints expired unconsumed (thread exited, migrated on its own, or never
    reached a migration point within [hint_ttl]). *)

val take_hint : kernel -> tid:tid -> int option
(** Consume the pending migration hint for [tid], if any (API layer). *)

val handle_load_query : cluster -> kernel -> src:int -> ticket:int -> unit
(** Message handler (wired by [Cluster.dispatch]). *)
