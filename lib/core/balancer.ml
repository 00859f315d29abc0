(** Inter-kernel load balancing.

    A per-kernel balancer fiber periodically queries the other kernels'
    run-queue weights over the messaging layer, and when its own kernel is
    overloaded relative to the cluster it leaves a migration hint for one
    of its threads. Threads consume hints at cooperative migration points
    (the [Api.compute] boundary), which is how Popcorn migrates: the kernel
    proposes, the thread's next safe point disposes.

    This recovers the work-spreading that SMP Linux gets for free from its
    shared runqueues — one of the paper's "cost of the design" discussion
    points — and is exercised by the load_balancer example and tests.

    Load queries are per-peer timed calls (never a barrier), so a crashed
    peer costs one timeout per round instead of wedging the balancer; each
    query outcome feeds the optional {!Health} tracker, and drained peers
    are neither queried nor chosen. The destination comes from
    {!Placement.choose}. Hints that nothing consumes — the thread exited,
    migrated on its own, or never reached a migration point — are expired
    after [hint_ttl] (the stale-hint leak: a dead tid's hint used to live
    forever). *)

open Types
module K = Kernelmodel

type t = {
  period : Sim.Time.t;
  threshold : int;  (** hint only if local load exceeds average by this. *)
  hint_ttl : Sim.Time.t;
  query_timeout : Sim.Time.t;
  health : Health.t option;
  mutable hints_issued : int;
  mutable hints_stale : int;
  mutable running : bool;
}

let handle_load_query cluster (kernel : kernel) ~src ~ticket =
  Proto_util.kernel_work cluster (Sim.Time.ns 200);
  let load =
    List.fold_left
      (fun acc core -> acc + K.Cpu.assigned (K.Sched.cpu kernel.sched core))
      0 (K.Sched.cores kernel.sched)
  in
  send cluster ~src:kernel.kid ~dst:src (Load_info { ticket; load })

let local_load (kernel : kernel) =
  List.fold_left
    (fun acc core -> acc + K.Cpu.assigned (K.Sched.cpu kernel.sched core))
    0 (K.Sched.cores kernel.sched)

(* Expire hints nothing will consume: the thread is gone (exited or
   migrated away, taking its tid with it) or the hint outlived [hint_ttl]
   without the thread reaching a migration point. *)
let expire_hints t cluster (kernel : kernel) ~now =
  let stale =
    Hashtbl.fold
      (fun tid (h : migrate_hint) acc ->
        let live =
          match Hashtbl.find_opt kernel.tasks tid with
          | Some task -> K.Task.is_live task
          | None -> false
        in
        if (not live) || Sim.Time.sub now h.hint_at > t.hint_ttl then
          tid :: acc
        else acc)
      kernel.migrate_hints []
  in
  List.iter
    (fun tid ->
      Hashtbl.remove kernel.migrate_hints tid;
      t.hints_stale <- t.hints_stale + 1;
      m_incr cluster ~kernel:kernel.kid "balancer.hints_stale")
    stale

let peer_available t k =
  match t.health with None -> true | Some h -> Health.available h k

(* One balancing round on [kernel]: expire stale hints, gather loads, hint
   one thread away if overloaded. Self-quarantine: a kernel the cluster
   has drained skips its rounds — it cannot reach its peers, so every
   observation it would feed the shared health tracker is a spurious miss
   that would drain the healthy majority too. *)
let round t cluster (kernel : kernel) =
  let eng = eng cluster in
  expire_hints t cluster kernel ~now:(Sim.Engine.now eng);
  if peer_available t kernel.kid then begin
  let others =
    List.filter
      (fun k -> k <> kernel.kid && peer_available t k)
      (List.init (nkernels cluster) Fun.id)
  in
  let loads = Hashtbl.create 8 in
  List.iter
    (fun dst ->
      match
        Msg.Rpc.call_timeout kernel.rpc ~timeout:t.query_timeout
          (fun ticket ->
            send cluster ~src:kernel.kid ~dst (Load_query { ticket }))
      with
      | Some (Load_info { load; _ }) ->
          Hashtbl.replace loads dst load;
          Option.iter (fun h -> Health.note_success h ~kernel:dst) t.health
      | Some _ -> ()
      | None ->
          Option.iter (fun h -> Health.note_failure h ~kernel:dst) t.health)
    others;
  let mine = local_load kernel in
  let total = Hashtbl.fold (fun _ l acc -> acc + l) loads mine in
  let responders = Hashtbl.length loads + 1 in
  let avg = total / responders in
  if mine > avg + t.threshold then begin
    let candidates =
      Hashtbl.fold
        (fun dst load acc ->
          let peer = kernel_of cluster dst in
          {
            Placement.ck = dst;
            ck_load = load;
            ck_weight = List.length peer.cores;
          }
          :: acc)
        loads []
    in
    match Placement.choose candidates with
    | Some target
      when target <> kernel.kid
           && Hashtbl.find_opt loads target |> Option.value ~default:mine
              < mine -> begin
        (* First hint-free live local task. *)
        let candidate =
          Hashtbl.fold
            (fun tid (task : K.Task.t) acc ->
              match acc with
              | Some _ -> acc
              | None ->
                  if
                    K.Task.is_live task
                    && not (Hashtbl.mem kernel.migrate_hints tid)
                  then Some tid
                  else None)
            kernel.tasks None
        in
        match candidate with
        | Some tid ->
            Hashtbl.replace kernel.migrate_hints tid
              { hint_dst = target; hint_at = Sim.Engine.now eng };
            t.hints_issued <- t.hints_issued + 1;
            m_incr cluster ~kernel:kernel.kid "balancer.hints_issued"
        | None -> ()
      end
    | _ -> ()
  end
  end

(** Start balancer fibers on every kernel. They run until [stop]. *)
let start ?(period = Sim.Time.ms 1) ?(threshold = 2) ?health ?hint_ttl
    ?(query_timeout = Sim.Time.us 100) cluster : t =
  let hint_ttl = Option.value hint_ttl ~default:(2 * period) in
  let t =
    {
      period;
      threshold;
      hint_ttl;
      query_timeout;
      health;
      hints_issued = 0;
      hints_stale = 0;
      running = true;
    }
  in
  Array.iter
    (fun kernel ->
      Sim.Engine.spawn (eng cluster) ~tag:"popcorn" ~name:"balancer"
        (fun () ->
          let rec loop () =
            if t.running then begin
              Sim.Engine.sleep (eng cluster) t.period;
              if t.running then begin
                round t cluster kernel;
                loop ()
              end
            end
          in
          loop ()))
    cluster.kernels;
  t

let stop t = t.running <- false
let hints_issued t = t.hints_issued
let hints_stale t = t.hints_stale

(** Cooperative migration point: called by the API layer after compute
    slices. Returns the destination if this thread was asked to move. *)
let take_hint (kernel : kernel) ~tid =
  match Hashtbl.find_opt kernel.migrate_hints tid with
  | Some { hint_dst; _ } ->
      Hashtbl.remove kernel.migrate_hints tid;
      Some hint_dst
  | None -> None
