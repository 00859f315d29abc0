open Sim

type t = {
  eng : Engine.t;
  params : Hw.Params.t;
  core : Hw.Topology.core;
  quantum : Time.t;
  runq : unit Waitq.t;
  mutable occupied : bool;
  mutable busy : Time.t;
  mutable assigned : int;
}

let create eng params ~core ~quantum =
  assert (quantum > 0);
  {
    eng;
    params;
    core;
    quantum;
    runq = Waitq.create ~eng ();
    occupied = false;
    busy = Time.zero;
    assigned = 0;
  }

let core t = t.core

let acquire t =
  if not t.occupied then t.occupied <- true
  else begin
    Waitq.wait t.eng t.runq;
    (* Ownership was handed off to us; pay the switch-in cost. *)
    Engine.sleep t.eng t.params.Hw.Params.context_switch
  end

let release t = if not (Waitq.wake_one t.runq ()) then t.occupied <- false

let compute t dt =
  assert (dt >= 0);
  acquire t;
  let rec go remaining =
    let slice = Time.min remaining t.quantum in
    Engine.sleep t.eng slice;
    t.busy <- Time.add t.busy slice;
    let remaining = Time.sub remaining slice in
    if remaining > 0 then begin
      (* Quantum expired: yield to queued fibers, if any, then requeue. *)
      if Waitq.length t.runq > 0 then begin
        release t;
        acquire t
      end;
      go remaining
    end
  in
  go dt;
  release t

let assign t = t.assigned <- t.assigned + 1
let unassign t = t.assigned <- max 0 (t.assigned - 1)
let assigned t = t.assigned
let load t = (if t.occupied then 1 else 0) + Waitq.length t.runq
let busy_time t = t.busy
