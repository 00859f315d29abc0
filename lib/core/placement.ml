(** Health-aware cluster placement (see the interface for the model). *)

open Sim
open Types
module K = Kernelmodel

type candidate = { ck : int; ck_load : int; ck_weight : int }

(* Least load per unit of weight; equal scores break towards the lowest
   kernel id. Scores are scaled integers (1024 = one load unit) so the
   choice stays float-free and bit-stable. *)
let choose candidates =
  List.fold_left
    (fun acc c ->
      let s = c.ck_load * 1024 / max 1 c.ck_weight in
      match acc with
      | Some (bs, bk) when bs < s || (bs = s && bk < c.ck) -> acc
      | _ -> Some (s, c.ck))
    None candidates
  |> Option.map snd

(* --- dispatcher --- *)

type retry = {
  max_attempts : int;
  base_deadline : Time.t;
  backoff_factor : int;
  max_deadline : Time.t;
}

let default_retry =
  {
    max_attempts = 3;
    base_deadline = Time.us 60;
    backoff_factor = 2;
    max_deadline = Time.us 400;
  }

type t = {
  cluster : cluster;
  health : Health.t option;
  retry : retry;
  high_water : int;
  frontend : int;
  per_kernel : int array;  (** dispatcher's view of in-flight per kernel. *)
  mutable total : int;
}

let create ?health ?retry ?high_water ~frontend cluster =
  let retry = Option.value retry ~default:default_retry in
  if retry.max_attempts < 1 then
    invalid_arg "Placement.create: max_attempts must be >= 1";
  let high_water =
    match high_water with
    | Some h -> h
    | None ->
        Hw.Topology.total_cores cluster.machine.Hw.Machine.topo
  in
  {
    cluster;
    health;
    retry;
    high_water;
    frontend;
    per_kernel = Array.make (nkernels cluster) 0;
    total = 0;
  }

let inflight t = t.total

(* A kernel on probation (readmitted by a probe, not yet proven) takes at
   most one request at a time: a just-recovered kernel gets trial traffic,
   not the flood its empty load counter would otherwise attract — and a
   still-dead one burns one request per probe cycle, not fifty. *)
let available t k =
  k <> t.frontend
  &&
  match t.health with
  | None -> true
  | Some h ->
      Health.available h k
      && not (Health.probation h k && t.per_kernel.(k) > 0)

let candidates t ~exclude ~ignore_health =
  Array.to_list t.cluster.kernels
  |> List.filter_map (fun (k : kernel) ->
         let ok =
           if ignore_health then k.kid <> t.frontend
           else available t k.kid
         in
         if ok && not (List.mem k.kid exclude) then
           Some
             {
               ck = k.kid;
               ck_load = t.per_kernel.(k.kid);
               ck_weight = List.length k.cores;
             }
         else None)

let pick t ?(exclude = []) () =
  let cs =
    match candidates t ~exclude ~ignore_health:false with
    | [] ->
        (* Panic mode: a fabric-wide fault can drain every kernel at once,
           and refusing to place is then strictly worse than trying one —
           the L7-balancer rule that when no upstream is live, traffic is
           passed anyway. *)
        candidates t ~exclude ~ignore_health:true
    | cs -> cs
  in
  choose cs

type outcome =
  | Placed of { kernel : int; attempts : int }
  | Rejected
  | Failed of { attempts : int }

(* Attempt [n] (1-based) waits the service cost plus a backed-off slack. *)
let deadline t ~attempt ~cost_ns =
  let slack = ref t.retry.base_deadline in
  for _ = 2 to attempt do
    slack := !slack * t.retry.backoff_factor
  done;
  cost_ns + min !slack t.retry.max_deadline

let note_outcome t ~kernel ok =
  match t.health with
  | None -> ()
  | Some h ->
      if ok then Health.note_success h ~kernel
      else Health.note_failure h ~kernel

let dispatch ?deadline:slo_deadline t ~cost_ns =
  let cluster = t.cluster in
  let fk = kernel_of cluster t.frontend in
  let t0 = Engine.now (eng cluster) in
  (* Deadline accounting for dispatches that do land (rejections and
     failures are already first-class outcomes with their own counters;
     the deadline question is about the latency of the successes). *)
  let slo_placed () =
    match slo_deadline with
    | None -> ()
    | Some d ->
        if Time.sub (Engine.now (eng cluster)) t0 <= d then
          m_incr cluster "slo.dispatch.met"
        else m_incr cluster "slo.dispatch.violations"
  in
  m_incr cluster ~kernel:t.frontend "placement.requests";
  if t.total >= t.high_water then begin
    m_incr cluster ~kernel:t.frontend "placement.rejected";
    Rejected
  end
  else
    let rec attempt n tried =
      if n > t.retry.max_attempts then begin
        m_incr cluster ~kernel:t.frontend "placement.failed";
        Failed { attempts = n - 1 }
      end
      else
        match pick t ~exclude:tried () with
        | None ->
            (* Every kernel is drained or already tried: give up early. *)
            m_incr cluster ~kernel:t.frontend "placement.failed";
            Failed { attempts = n - 1 }
        | Some dst ->
            t.per_kernel.(dst) <- t.per_kernel.(dst) + 1;
            t.total <- t.total + 1;
            let resp =
              Msg.Rpc.call_timeout fk.rpc
                ~timeout:(deadline t ~attempt:n ~cost_ns)
                (fun ticket ->
                  send_from cluster ~src:t.frontend ~src_core:fk.home_core
                    ~dst
                    (Work_req { ticket; cost_ns }))
            in
            t.per_kernel.(dst) <- t.per_kernel.(dst) - 1;
            t.total <- t.total - 1;
            (match resp with
            | Some _ ->
                note_outcome t ~kernel:dst true;
                m_incr cluster ~kernel:t.frontend "placement.placed";
                if n > 1 then
                  m_incr cluster ~kernel:t.frontend "placement.recovered"
            | None ->
                note_outcome t ~kernel:dst false;
                m_incr cluster ~kernel:t.frontend "placement.attempt_timeout");
            if resp <> None then begin
              slo_placed ();
              Placed { kernel = dst; attempts = n }
            end
            else attempt (n + 1) (dst :: tried)
    in
    attempt 1 []

(* Server side: occupy a core for the request's cost. Timesharing via
   [K.Cpu.compute] is what makes overload visible as latency rather than
   unbounded queueing. Idempotent under retries: attempts are independent
   work items, so re-execution only re-charges CPU. *)
let handle_work_req cluster (kernel : kernel) ~src ~ticket ~cost_ns =
  let core = K.Sched.pick_core kernel.sched in
  K.Sched.assign kernel.sched core;
  K.Sched.compute_on kernel.sched core cost_ns;
  K.Sched.unassign kernel.sched core;
  m_incr cluster ~kernel:kernel.kid "placement.served";
  send_from cluster ~src:kernel.kid ~src_core:core ~dst:src
    (Work_resp { ticket })

(* --- health observability --- *)

let observe_health cluster health =
  let open_drain = Array.make (nkernels cluster) None in
  Health.on_transition health (fun (tr : Health.transition) ->
      trace cluster ~cat:"health" "k%d health %s -> %s" tr.tr_kernel
        (Health.state_name tr.tr_from)
        (Health.state_name tr.tr_to);
      m_incr cluster ~kernel:tr.tr_kernel "health.transitions";
      (match tr.tr_to with
      | Health.Drained ->
          m_incr cluster ~kernel:tr.tr_kernel "health.drained";
          open_drain.(tr.tr_kernel) <-
            Some
              (sp_begin cluster ~kernel:tr.tr_kernel
                 (Obs.Span.Custom "health_drained"))
      | Health.Suspect when tr.tr_from = Health.Drained ->
          m_incr cluster ~kernel:tr.tr_kernel "health.readmitted"
      | _ -> ());
      match (tr.tr_from, open_drain.(tr.tr_kernel)) with
      | Health.Drained, Some sp ->
          sp_end cluster sp;
          open_drain.(tr.tr_kernel) <- None
      | _ -> ())
