(** Cluster-wide placement: one pure function deciding which kernel
    should host work, plus a dispatcher with admission control and bounded
    retry-on-other-kernel.

    {!choose} scores a candidate list and picks a kernel, so the balancer
    (thread re-placement hints) and the request dispatcher (initial
    placement of incoming work) share it. The dispatcher is the
    nginx-upstream shape transplanted to kernels: passive health checks
    ({!Health}) mark kernels down, a failed placement retries on the next
    candidate under a capped exponential per-attempt deadline (the
    [Rpc.call_retry] shape), and once cluster-wide in-flight load crosses
    a high-water mark new work is shed with an explicit {!Rejected}
    outcome instead of queueing to collapse. *)

open Types

(** One kernel as a placement candidate. *)
type candidate = {
  ck : int;  (** kernel id. *)
  ck_load : int;  (** current load (dispatcher in-flight or runqueue). *)
  ck_weight : int;  (** capacity weight (its core count). *)
}

val choose : candidate list -> int option
(** The candidate with the least load per unit of weight (nginx's
    weighted least-conn); equal scores break towards the lowest kernel id.
    [None] iff the list is empty. *)

(** {1 Dispatcher} *)

(** Bounded retry-on-other-kernel: attempt [n] (1-based) waits
    [base_deadline * backoff_factor^(n-1)] (capped at [max_deadline]) on
    top of the request's service cost before declaring a miss and moving
    to the next candidate — capped exponential backoff in the
    [Rpc.retry_policy] shape. *)
type retry = {
  max_attempts : int;  (** distinct kernels tried per request (>= 1). *)
  base_deadline : Sim.Time.t;
  backoff_factor : int;
  max_deadline : Sim.Time.t;
}

val default_retry : retry
(** 3 attempts, 60us base deadline, doubling, capped at 400us. *)

type t

val create :
  ?health:Health.t ->
  ?retry:retry ->
  ?high_water:int ->
  frontend:int ->
  cluster ->
  t
(** A dispatcher living on kernel [frontend]. [health] (when given) masks
    drained kernels
    out of the candidate set and is fed every dispatch outcome;
    [high_water] is the cluster-wide in-flight cap above which new work is
    shed (default: the cluster's total core count). *)

val inflight : t -> int
(** Cluster-wide requests currently dispatched and unanswered. *)

val pick : t -> ?exclude:int list -> unit -> int option
(** {!choose}'s current pick among available (healthy/suspect, not
    excluded) kernels. When health has drained {e every} kernel — a
    fabric-wide fault looks like unanimous sickness — falls back to
    ignoring health rather than refusing to place (the L7-balancer panic
    mode: with no live upstream, pass traffic anyway). [None] only when
    every non-frontend kernel is excluded. *)

type outcome =
  | Placed of { kernel : int; attempts : int }
  | Rejected  (** shed by admission control before any attempt. *)
  | Failed of { attempts : int }
      (** every attempt missed its deadline (or no kernel was available). *)

val dispatch : ?deadline:Sim.Time.t -> t -> cost_ns:int -> outcome
(** Place one request costing [cost_ns] of CPU and wait for its response
    (must run in a fiber). Feeds {!Health} with the outcome of every
    attempt and bumps [placement.*] metrics when observability is on.
    When [deadline] (end-to-end budget in simulated ns, spanning every
    retry) is given, each [Placed] outcome additionally counts towards
    [slo.dispatch.met] or [slo.dispatch.violations]. Accounting only —
    a late response is still returned, never cancelled. *)

val observe_health : cluster -> Health.t -> unit
(** Wire a health tracker into the cluster's observability: every
    transition bumps [health.*] metrics and emits a protocol-trace event,
    and each drained interval is recorded as a [health_drained] span on
    the drained kernel — so [popcornsim analyze] attributes degraded-mode
    time per kernel. Call at most once per (cluster, tracker). *)

val handle_work_req :
  cluster -> kernel -> src:int -> ticket:int -> cost_ns:int -> unit
(** Server side of a dispatched request (wired by [Cluster.dispatch]):
    occupy a core of this kernel for [cost_ns] (timeshared, so overload
    shows up as latency), then respond. *)
