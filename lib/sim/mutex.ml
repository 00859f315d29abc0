type t = {
  eng : Engine.t;
  mutable locked : bool;
  waiters : unit Waitq.t;
}

let create eng = { eng; locked = false; waiters = Waitq.create ~eng () }

let lock t =
  if not t.locked then t.locked <- true
  else begin
    (* FIFO handoff: unlock passes ownership directly to the woken waiter,
       so the lock stays [locked] across the handoff. *)
    Waitq.wait t.eng t.waiters
  end

let unlock t =
  if not t.locked then invalid_arg "Mutex.unlock: not locked";
  if not (Waitq.wake_one t.waiters ()) then t.locked <- false

let waiters t = Waitq.length t.waiters

let with_lock t f =
  lock t;
  match f () with
  | v ->
      unlock t;
      v
  | exception e ->
      unlock t;
      raise e
