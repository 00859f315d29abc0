open Sim

type waiter = { core : Topology.core; enqueued_at : Time.t; resume : unit -> unit }

type stats = {
  acquisitions : int;
  contended : int;
  total_wait : Time.t;
  total_hold : Time.t;
  max_waiters : int;
}

type t = {
  eng : Engine.t;
  params : Params.t;
  topo : Topology.t;
  name : string;
  mutable holder : Topology.core option;
  mutable last_holder : Topology.core;
  mutable acquired_at : Time.t;
  waiters : waiter Queue.t;
  mutable st_acq : int;
  mutable st_contended : int;
  mutable st_wait : Time.t;
  mutable st_hold : Time.t;
  mutable st_max_waiters : int;
}

let create eng params topo ~name =
  {
    eng;
    params;
    topo;
    name;
    holder = None;
    last_holder = 0;
    acquired_at = Time.zero;
    waiters = Queue.create ();
    st_acq = 0;
    st_contended = 0;
    st_wait = Time.zero;
    st_hold = Time.zero;
    st_max_waiters = 0;
  }

let transfer_cost t ~from ~core =
  let same_core = from = core in
  let same_socket = Topology.same_socket t.topo from core in
  Params.line_transfer t.params ~same_core ~same_socket

let note_acquired t core =
  t.holder <- Some core;
  t.last_holder <- core;
  t.acquired_at <- Engine.now t.eng;
  t.st_acq <- t.st_acq + 1

let acquire t ~core =
  match t.holder with
  | None ->
      (* Uncontended: pay the cost of pulling the lock line exclusive. *)
      Engine.sleep t.eng (transfer_cost t ~from:t.last_holder ~core);
      (* A same-instant racer may have taken the lock while we slept. *)
      if t.holder = None then note_acquired t core
      else begin
        t.st_contended <- t.st_contended + 1;
        let t0 = Engine.now t.eng in
        Engine.suspend t.eng (fun resume ->
            Queue.push { core; enqueued_at = t0; resume } t.waiters;
            t.st_max_waiters <-
              max t.st_max_waiters (Queue.length t.waiters));
        t.st_wait <- Time.add t.st_wait (Time.sub (Engine.now t.eng) t0);
        note_acquired t core
      end
  | Some _ ->
      t.st_contended <- t.st_contended + 1;
      let t0 = Engine.now t.eng in
      Engine.suspend t.eng (fun resume ->
          Queue.push { core; enqueued_at = t0; resume } t.waiters;
          t.st_max_waiters <- max t.st_max_waiters (Queue.length t.waiters));
      t.st_wait <- Time.add t.st_wait (Time.sub (Engine.now t.eng) t0);
      note_acquired t core

let release t =
  match t.holder with
  | None -> invalid_arg ("Spinlock.release (" ^ t.name ^ "): not held")
  | Some from ->
      t.st_hold <-
        Time.add t.st_hold (Time.sub (Engine.now t.eng) t.acquired_at);
      t.holder <- None;
      (match Queue.take_opt t.waiters with
      | None -> ()
      | Some w ->
          (* Handoff: line transfer to the winner plus one coherence bounce
             per remaining spinner re-reading the now-invalid line. *)
          let remaining = Queue.length t.waiters in
          let cost =
            Time.add
              (transfer_cost t ~from ~core:w.core)
              (Time.scale remaining t.params.Params.spin_bounce)
          in
          (* Mark as in-handoff so arriving acquirers queue behind. *)
          t.holder <- Some w.core;
          Engine.schedule t.eng ~after:cost w.resume)

let waiters t = Queue.length t.waiters

let stats t =
  {
    acquisitions = t.st_acq;
    contended = t.st_contended;
    total_wait = t.st_wait;
    total_hold = t.st_hold;
    max_waiters = t.st_max_waiters;
  }

let with_lock t ~core f =
  acquire t ~core;
  match f () with
  | v ->
      release t;
      v
  | exception e ->
      release t;
      raise e
