open Sim

type node = int

type 'a packet = {
  src : node;
  src_core : Hw.Topology.core;
  payload : 'a;
  bytes : int;
  seq : int;  (** per-(src,dst) sequence number, for duplicate suppression. *)
  msg_id : int;  (** unique per transport; keyed into causal events. *)
  from_span : int option;
      (** id of the protocol span this message was sent from (trace
          context carried on the wire), when the sender annotated it. *)
  enqueued_at : Time.t;
  doorbell : Time.t;
      (** IPI delivery latency to charge before processing; non-zero only
          when the receive worker was idle at send time. *)
  extra_delay : Time.t;
      (** injected per-message delivery latency (fault injection). *)
}

(* This kernel's msg.* metric cells, resolved once instead of a by-name
   registry probe on every message (several updates per delivery — the
   hottest instrumentation in the simulator). *)
type ep_metrics = {
  em_sent : Obs.Metrics.counter_handle;
  em_bytes : Obs.Metrics.counter_handle;
  em_dropped : Obs.Metrics.counter_handle;
  em_duplicated : Obs.Metrics.counter_handle;
  em_delivered : Obs.Metrics.counter_handle;
  em_dup_suppressed : Obs.Metrics.counter_handle;
  em_doorbells : Obs.Metrics.counter_handle;
  em_doorbells_lost : Obs.Metrics.counter_handle;
  em_latency : Obs.Metrics.hist_handle;
}

type 'a endpoint = {
  node : node;
  core : Hw.Topology.core;
  inbox : 'a packet Channel.t;
  mutable last_seq : int array;
      (** per-source highest delivered sequence number, indexed by source
          node (grown on demand; 0 = nothing delivered); rings are FIFO per
          link, so a packet at or below it is a duplicate. *)
  mutable tx_seq : int array;
      (** last sent sequence number per destination node, indexed by
          destination (grown on demand): the sender-side twin of
          [last_seq]. *)
  mutable worker_idle : bool;
  mutable em : (Obs.Metrics.t * ep_metrics) option;
      (** handles + the registry they were resolved against (observability
          can be attached after the endpoint exists, so resolution is
          lazy; the registry is re-checked by physical equality). *)
}

type stats = {
  sent : int;
  delivered : int;
  doorbells : int;
  total_latency : Time.t;
  dropped : int;  (** messages lost to fault injection. *)
  duplicated : int;  (** extra copies enqueued by fault injection. *)
  dup_suppressed : int;  (** duplicates filtered before the handler. *)
  doorbells_lost : int;  (** doorbell IPIs lost to fault injection. *)
}

(* Fault-injection interface: an installed hook set sees every message and
   doorbell and may perturb it. [Inject.Plan] is the standard provider; the
   indirection keeps this library free of a dependency on it. *)
type fault_action = Pass | Drop | Duplicate | Delay of Time.t

type hooks = {
  on_send : src:node -> dst:node -> now:Time.t -> fault_action;
  on_doorbell : src:node -> dst:node -> now:Time.t -> Time.t option;
      (** [None]: the IPI arrives normally. [Some d]: the doorbell is lost
          and the idle worker only notices the ring after [d] (the receive
          path's recovery poll). *)
  on_deliver : node:node -> now:Time.t -> Time.t;
      (** Extra receiver-side delay before the worker processes the next
          packet (kernel stall windows). 0 when the kernel is healthy. *)
}

(** What the handler learns about the packet beyond src/dst/payload; the
    msg id keys the delivery into the causal-event log so protocol handlers
    can link the spans they open back to the message that caused them. *)
type delivery = { msg_id : int; from_span : int option }

type 'a t = {
  machine : Hw.Machine.t;
  ring_slots : int;
  handler : 'a t -> dst:node -> src:node -> delivery -> 'a -> unit;
  endpoints : (node, 'a endpoint) Hashtbl.t;
  handler_label : Engine.label;
      (** interned once at [create]: a worker spawns one handler fiber per
          delivered message, so the label must cost nothing per message *)
  worker_label : Engine.label;
  mutable next_msg_id : int;
  mutable hooks : hooks option;
  mutable st_sent : int;
  mutable st_delivered : int;
  mutable st_doorbells : int;
  mutable st_latency : Time.t;
  mutable st_dropped : int;
  mutable st_duplicated : int;
  mutable st_dup_suppressed : int;
  mutable st_doorbells_lost : int;
  mutable jitter : Time.t;
}

let create machine ~ring_slots ~handler =
  assert (ring_slots >= 1);
  {
    machine;
    ring_slots;
    handler;
    endpoints = Hashtbl.create 16;
    handler_label =
      Engine.label machine.Hw.Machine.eng ~tag:"msg" "msg-handler";
    worker_label = Engine.label machine.Hw.Machine.eng ~tag:"msg" "msg-worker";
    next_msg_id = 0;
    hooks = None;
    st_sent = 0;
    st_delivered = 0;
    st_doorbells = 0;
    st_latency = Time.zero;
    st_dropped = 0;
    st_duplicated = 0;
    st_dup_suppressed = 0;
    st_doorbells_lost = 0;
    jitter = Time.zero;
  }

let machine t = t.machine

let endpoint t node =
  match Hashtbl.find_opt t.endpoints node with
  | Some ep -> ep
  | None -> invalid_arg (Printf.sprintf "Transport: unknown node %d" node)

let nodes t =
  Hashtbl.fold (fun n _ acc -> n :: acc) t.endpoints [] |> List.sort compare

let home_core t node = (endpoint t node).core

let set_hooks t hooks = t.hooks <- hooks

(* One [option] check when observability is off; one pointer compare on the
   cached-handle hit path. *)
let ep_metrics t ep =
  match t.machine.Hw.Machine.metrics with
  | None -> None
  | Some reg -> (
      match ep.em with
      | Some (r, h) when r == reg -> Some h
      | _ ->
          let kernel = ep.node in
          let c name = Obs.Metrics.counter_handle reg ~kernel name in
          let h =
            {
              em_sent = c "msg.sent";
              em_bytes = c "msg.bytes";
              em_dropped = c "msg.dropped";
              em_duplicated = c "msg.duplicated";
              em_delivered = c "msg.delivered";
              em_dup_suppressed = c "msg.dup_suppressed";
              em_doorbells = c "msg.doorbells";
              em_doorbells_lost = c "msg.doorbells_lost";
              em_latency = Obs.Metrics.hist_handle reg ~kernel "msg.latency_ns";
            }
          in
          ep.em <- Some (reg, h);
          Some h)

let ep_incr t ep field =
  match ep_metrics t ep with
  | None -> ()
  | Some h -> Obs.Metrics.handle_incr (field h)

(* Receiver-side cost to pull a message out of the ring and enter the
   handler: payload copy plus a little dispatch work. *)
let receive_cost t ep (pkt : 'a packet) =
  let m = t.machine in
  let cross =
    not (Hw.Topology.same_socket m.Hw.Machine.topo ep.core pkt.src_core)
  in
  let copy =
    Hw.Params.copy_cost m.Hw.Machine.params ~bytes:pkt.bytes
      ~cross_socket:cross
  in
  Time.add copy (Time.ns 150)

let worker_loop t ep =
  let m = t.machine in
  let eng = m.Hw.Machine.eng in
  let process (pkt : 'a packet) =
    (* A doorbell wake-up: the IPI takes this long to reach us. *)
    Engine.sleep eng pkt.doorbell;
    (* Injected per-message delivery latency. *)
    Engine.sleep eng pkt.extra_delay;
    (* Injected kernel stall: this kernel stops draining its ring. *)
    (match t.hooks with
    | Some h ->
        let stall = h.on_deliver ~node:ep.node ~now:(Engine.now eng) in
        if stall > 0 then Engine.sleep eng stall
    | None -> ());
    Engine.sleep eng (receive_cost t ep pkt);
    (* Robustness-testing jitter: a per-message processing delay. It keeps
       each ring FIFO (as real shared-memory rings are) while perturbing
       interleavings across kernels. *)
    if t.jitter > 0 then
      Engine.sleep eng (Sim.Prng.int (Engine.rng eng) (t.jitter + 1));
    (* Duplicate suppression: links are FIFO, so any packet whose sequence
       number does not advance the per-source high-water mark has already
       been delivered (a retransmission or an injected duplicate). *)
    let last =
      if pkt.src < Array.length ep.last_seq then ep.last_seq.(pkt.src) else 0
    in
    if pkt.seq <= last then begin
      t.st_dup_suppressed <- t.st_dup_suppressed + 1;
      ep_incr t ep (fun h -> h.em_dup_suppressed)
    end
    else begin
      if pkt.src >= Array.length ep.last_seq then begin
        let a = Array.make (max 16 (2 * (pkt.src + 1))) 0 in
        Array.blit ep.last_seq 0 a 0 (Array.length ep.last_seq);
        ep.last_seq <- a
      end;
      ep.last_seq.(pkt.src) <- pkt.seq;
      t.st_delivered <- t.st_delivered + 1;
      let latency = Time.sub (Engine.now eng) pkt.enqueued_at in
      t.st_latency <- Time.add t.st_latency latency;
      (match ep_metrics t ep with
      | None -> ()
      | Some h ->
          Obs.Metrics.handle_incr h.em_delivered;
          Obs.Metrics.handle_observe h.em_latency (float_of_int latency));
      Hw.Machine.causal_deliver m ~id:pkt.msg_id ~dst:ep.node;
      let src = pkt.src and payload = pkt.payload in
      let d = { msg_id = pkt.msg_id; from_span = pkt.from_span } in
      (* Fresh fiber per message: handlers may block on nested RPCs. *)
      Engine.spawn_label eng t.handler_label (fun () ->
          t.handler t ~dst:ep.node ~src d payload)
    end
  in
  let rec loop () =
    ep.worker_idle <- true;
    (* Drain every packet already rung into the inbox and process the
       burst in FIFO order. The drain is slot-accurate: packets after the
       first keep their ring slot reserved until [release_slot] frees it
       at the instant their item-at-a-time [recv] would have run, so
       sender backpressure, doorbell accounting and every latency are
       bit-identical to the unbatched loop. *)
    match Channel.recv_batch ep.inbox with
    | [] -> assert false
    | first :: rest ->
        ep.worker_idle <- false;
        process first;
        List.iter
          (fun pkt ->
            Channel.release_slot ep.inbox;
            process pkt)
          rest;
        loop ()
  in
  loop ()

let add_node t node ~home_core =
  if Hashtbl.mem t.endpoints node then
    invalid_arg (Printf.sprintf "Transport.add_node: duplicate node %d" node);
  let eng = t.machine.Hw.Machine.eng in
  let ep =
    {
      node;
      core = home_core;
      inbox = Channel.create eng ~capacity:t.ring_slots;
      last_seq = [||];
      tx_seq = [||];
      worker_idle = true;
      em = None;
    }
  in
  Hashtbl.add t.endpoints node ep;
  Engine.spawn_label eng t.worker_label (fun () -> worker_loop t ep)

(* Per-destination tx sequence, from the source endpoint's flat array (no
   tuple key, no hashing). *)
let next_seq ep ~dst =
  if dst >= Array.length ep.tx_seq then begin
    let a = Array.make (max 16 (2 * (dst + 1))) 0 in
    Array.blit ep.tx_seq 0 a 0 (Array.length ep.tx_seq);
    ep.tx_seq <- a
  end;
  let seq = ep.tx_seq.(dst) + 1 in
  ep.tx_seq.(dst) <- seq;
  seq

(* Ring write + (conditional) doorbell for one packet copy. *)
let enqueue t ep ~src ~src_core ~bytes ~seq ~msg_id ~from_span ~extra_delay
    payload =
  let m = t.machine in
  let eng = m.Hw.Machine.eng in
  let was_idle = ep.worker_idle && Channel.is_empty ep.inbox in
  let doorbell =
    if was_idle then begin
      t.st_doorbells <- t.st_doorbells + 1;
      ep_incr t ep (fun h -> h.em_doorbells);
      let latency =
        Hw.Ipi.delivery_latency m.Hw.Machine.ipi ~src:src_core ~dst:ep.core
      in
      match t.hooks with
      | None -> latency
      | Some h -> (
          match h.on_doorbell ~src ~dst:ep.node ~now:(Engine.now eng) with
          | None -> latency
          | Some recovery ->
              (* Doorbell lost: the worker only notices the ring write at
                 its next recovery poll. *)
              t.st_doorbells_lost <- t.st_doorbells_lost + 1;
              ep_incr t ep (fun h -> h.em_doorbells_lost);
              recovery)
    end
    else Time.zero
  in
  Channel.send ep.inbox
    {
      src;
      src_core;
      payload;
      bytes;
      seq;
      msg_id;
      from_span;
      enqueued_at = Engine.now eng;
      doorbell;
      extra_delay;
    }

let send_from_core t ?from_span ~src ~src_core ~dst ~bytes payload =
  let m = t.machine in
  let eng = m.Hw.Machine.eng in
  let src_ep = endpoint t src in
  let ep = endpoint t dst in
  let cross = not (Hw.Topology.same_socket m.Hw.Machine.topo src_core ep.core) in
  (* Sender cost: reserve a slot (one atomic fetch-add on a possibly-remote
     cache line) + copy the payload into shared memory. *)
  let reserve =
    Hw.Params.line_transfer m.Hw.Machine.params ~same_core:false
      ~same_socket:(not cross)
  in
  let copy = Hw.Params.copy_cost m.Hw.Machine.params ~bytes ~cross_socket:cross in
  Engine.sleep eng (Time.add reserve copy);
  t.st_sent <- t.st_sent + 1;
  (* Sender-side metrics are scoped to [src]; its endpoint caches the
     handles. *)
  (match ep_metrics t src_ep with
  | None -> ()
  | Some h ->
      Obs.Metrics.handle_incr h.em_sent;
      Obs.Metrics.handle_add h.em_bytes bytes);
  let seq = next_seq src_ep ~dst in
  let msg_id = t.next_msg_id in
  t.next_msg_id <- msg_id + 1;
  (* The send event fires even for messages the fault plan then drops: a
     Send with no matching Deliver is exactly how a loss appears in the
     causal DAG. *)
  Hw.Machine.causal_send m ~id:msg_id ~src ~dst ~bytes ~from_span;
  let action =
    match t.hooks with
    | None -> Pass
    | Some h -> h.on_send ~src ~dst ~now:(Engine.now eng)
  in
  match action with
  | Drop ->
      (* The sender paid the full send cost, but the message never makes it
         out of the ring (modelling a corrupted/lost slot). *)
      t.st_dropped <- t.st_dropped + 1;
      ep_incr t src_ep (fun h -> h.em_dropped)
  | Pass | Duplicate | Delay _ ->
      let extra_delay = match action with Delay d -> d | _ -> Time.zero in
      enqueue t ep ~src ~src_core ~bytes ~seq ~msg_id ~from_span ~extra_delay
        payload;
      if action = Duplicate then begin
        t.st_duplicated <- t.st_duplicated + 1;
        ep_incr t src_ep (fun h -> h.em_duplicated);
        enqueue t ep ~src ~src_core ~bytes ~seq ~msg_id ~from_span
          ~extra_delay payload
      end

let send t ?from_span ~src ~dst ~bytes payload =
  send_from_core t ?from_span ~src ~src_core:(endpoint t src).core ~dst ~bytes
    payload

let stats t =
  {
    sent = t.st_sent;
    delivered = t.st_delivered;
    doorbells = t.st_doorbells;
    total_latency = t.st_latency;
    dropped = t.st_dropped;
    duplicated = t.st_duplicated;
    dup_suppressed = t.st_dup_suppressed;
    doorbells_lost = t.st_doorbells_lost;
  }

let set_jitter t ~max_extra =
  assert (max_extra >= 0);
  t.jitter <- max_extra

let reset_stats t =
  t.st_sent <- 0;
  t.st_delivered <- 0;
  t.st_doorbells <- 0;
  t.st_latency <- Time.zero;
  t.st_dropped <- 0;
  t.st_duplicated <- 0;
  t.st_dup_suppressed <- 0;
  t.st_doorbells_lost <- 0
