(** Reader-writer semaphore in the style of Linux's [mmap_sem].

    Every down/up performs one atomic on the semaphore's cache line (the
    scalability cost: even uncontended read acquisitions bounce the line
    between sockets), plus sleeping exclusion between readers and writers
    with FIFO fairness (writers are not starved: a queued writer blocks
    later readers). *)

open Sim

type waiter = Reader of (unit -> unit) | Writer of (unit -> unit)

type t = {
  eng : Engine.t;
  line : Hw.Cacheline.t;
  mutable readers : int;
  mutable writer : bool;
  queue : waiter Queue.t;
}

let create eng params topo ~name =
  {
    eng;
    line = Hw.Cacheline.create eng params topo ~name;
    readers = 0;
    writer = false;
    queue = Queue.create ();
  }

let down_read t ~core =
  Hw.Cacheline.access t.line ~core;
  if t.writer || not (Queue.is_empty t.queue) then
    Engine.suspend t.eng (fun resume -> Queue.push (Reader resume) t.queue)
  else t.readers <- t.readers + 1

let down_write t ~core =
  Hw.Cacheline.access t.line ~core;
  if t.writer || t.readers > 0 || not (Queue.is_empty t.queue) then
    Engine.suspend t.eng (fun resume -> Queue.push (Writer resume) t.queue)
  else t.writer <- true

(* Grant as much of the queue head as possible: one writer, or a maximal
   batch of consecutive readers. Ownership transfers directly. *)
let grant t =
  match Queue.peek_opt t.queue with
  | None -> ()
  | Some (Writer _) -> (
      match Queue.pop t.queue with
      | Writer resume ->
          t.writer <- true;
          resume ()
      | Reader _ -> assert false)
  | Some (Reader _) ->
      let rec batch () =
        match Queue.peek_opt t.queue with
        | Some (Reader _) -> (
            match Queue.pop t.queue with
            | Reader resume ->
                t.readers <- t.readers + 1;
                resume ();
                batch ()
            | Writer _ -> assert false)
        | Some (Writer _) | None -> ()
      in
      batch ()

let up_read t ~core =
  Hw.Cacheline.access t.line ~core;
  assert (t.readers > 0);
  t.readers <- t.readers - 1;
  if t.readers = 0 && not t.writer then grant t

let up_write t ~core =
  Hw.Cacheline.access t.line ~core;
  assert t.writer;
  t.writer <- false;
  grant t

let with_read t ~core f =
  down_read t ~core;
  match f () with
  | v ->
      up_read t ~core;
      v
  | exception e ->
      up_read t ~core;
      raise e

let with_write t ~core f =
  down_write t ~core;
  match f () with
  | v ->
      up_write t ~core;
      v
  | exception e ->
      up_write t ~core;
      raise e
