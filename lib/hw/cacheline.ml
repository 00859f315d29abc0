open Sim

type t = {
  eng : Engine.t;
  params : Params.t;
  topo : Topology.t;
  name : string;
  mutable busy : bool;
  mutable last_core : Topology.core;
  waiters : unit Waitq.t; (* pending ops, FIFO *)
  mutable ops : int;
}

let create eng params topo ~name =
  {
    eng;
    params;
    topo;
    name;
    busy = false;
    last_core = 0;
    waiters = Waitq.create ~eng ();
    ops = 0;
  }

let transfer t ~core =
  Params.line_transfer t.params ~same_core:(t.last_core = core)
    ~same_socket:(Topology.same_socket t.topo t.last_core core)

let access t ~core =
  if t.busy then Waitq.wait t.eng t.waiters else t.busy <- true;
  (* We now own the line's service slot; pay the transfer. *)
  Engine.sleep t.eng (transfer t ~core);
  t.last_core <- core;
  t.ops <- t.ops + 1;
  (* Hand the slot to the next queued op, or free it. *)
  if not (Waitq.wake_one t.waiters ()) then t.busy <- false

let ops t = t.ops
