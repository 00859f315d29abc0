type 'a t = {
  eng : Engine.t;
  capacity : int;
  items : 'a Queue.t;
  senders : unit Waitq.t; (* parked when full; each wake = one free slot *)
  receivers : 'a Waitq.t; (* parked when empty; direct handoff *)
  mutable reserved : int;
      (** Slots held by items a {!recv_batch} drained but whose consumer
          has not yet called {!release_slot}: they still count against
          [capacity], so batching is invisible to senders — a slot frees
          (and wakes one sender) at exactly the instant an item-at-a-time
          [recv] of that item would have freed it. *)
}

let create eng ~capacity =
  assert (capacity >= 1);
  {
    eng;
    capacity;
    items = Queue.create ();
    senders = Waitq.create ~eng ();
    receivers = Waitq.create ~eng ();
    reserved = 0;
  }

(* Ring occupancy as senders experience it: buffered + drained-but-not-
   yet-released. *)
let occupancy t = Queue.length t.items + t.reserved

(* Buffered-item accounting feeds the engine-wide aggregate the profiler
   samples; a direct handoff to a parked receiver never buffers, so it is
   not counted. *)
let buffer t v =
  Queue.push v t.items;
  Engine.Introspect.chan_queued_add t.eng 1

let unbuffer t =
  match Queue.take_opt t.items with
  | None -> None
  | Some v ->
      Engine.Introspect.chan_queued_add t.eng (-1);
      Some v

let send t v =
  if Waitq.wake_one t.receivers v then ()
  else if occupancy t < t.capacity then buffer t v
  else begin
    (* Park until a recv frees a slot; exactly one sender is woken per
       dequeue, so the slot is reserved for us. *)
    Waitq.wait t.eng t.senders;
    buffer t v
  end

let recv t =
  match unbuffer t with
  | Some v ->
      ignore (Waitq.wake_one t.senders ());
      v
  | None -> Waitq.wait t.eng t.receivers

(* Batched receive, slot-accurate. The first item's slot frees now (wake
   probe included), exactly like [recv]; every further drained item keeps
   its slot [reserved] until the consumer calls [release_slot] at the
   moment it starts consuming that item — the same instant an
   item-at-a-time [recv] would have dequeued it. Senders therefore see an
   occupancy trajectory, park/wake timing and gauge accounting that are
   bit-identical to the unbatched loop; the batch only removes the
   per-item queue/wake round-trips from the consumer's hot path. *)
let recv_batch t =
  match unbuffer t with
  | None -> [ Waitq.wait t.eng t.receivers ]
  | Some v ->
      ignore (Waitq.wake_one t.senders ());
      let rec drain acc n =
        match Queue.take_opt t.items with
        | None ->
            t.reserved <- t.reserved + n;
            List.rev acc
        | Some v -> drain (v :: acc) (n + 1)
      in
      v :: drain [] 0

let release_slot t =
  if t.reserved <= 0 then invalid_arg "Channel.release_slot: none reserved";
  t.reserved <- t.reserved - 1;
  Engine.Introspect.chan_queued_add t.eng (-1);
  ignore (Waitq.wake_one t.senders ())

let recv_timeout t ~timeout =
  match unbuffer t with
  | Some v ->
      ignore (Waitq.wake_one t.senders ());
      Some v
  | None -> (
      match Waitq.wait_timeout t.eng t.receivers ~timeout with
      | Waitq.Signalled v -> Some v
      | Waitq.Timed_out -> None)

let length t = occupancy t
let is_empty t = occupancy t = 0
