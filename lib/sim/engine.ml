(* Each queued event carries an interned label: the id of its fiber's
   (name, subsystem tag) pair in this engine's label table. Labels never
   influence ordering, so simulated behaviour is identical whether or not
   anyone reads them; they exist for error messages and the profiling
   observer below. A label names a kind of fiber, so a table holds a few
   dozen entries however many fibers a run starts.

   An event is what the dispatcher does next: run a thunk (a callback, or
   a spawned fiber's entry, which installs the fiber handler), or continue
   a parked fiber's continuation. Queueing the continuation itself saves
   the closure a resume would otherwise build around it. *)

type label = int

type event =
  | Run of label * (unit -> unit)
  | Wake of label * (unit, unit) Effect.Deep.continuation
  | Resume : label * ('a, unit) Effect.Deep.continuation * 'a -> event

(** Host-side hooks invoked around event execution; see the .mli. *)
type observer = {
  on_run_start : now:Time.t -> unit;
  on_event : label:label -> now:Time.t -> unit;
  on_event_done : unit -> unit;
  on_run_stop : now:Time.t -> unit;
}

type t = {
  mutable now : Time.t;
  queue : event Eheap.t;
  mutable seq : int;
  seed : int;
  rng : Prng.t;
  mutable processed : int;
  mutable observer : observer option;
  (* Label interner: ids are dense, per-engine, minted at spawn time; the
     reverse arrays resolve them for error messages and profiling
     reports. *)
  labels : (string * string option, label) Hashtbl.t;
  mutable label_names : string array;
  mutable label_tags : string option array;
  mutable nlabels : int;
  mutable cur : label;  (** label of the event being executed *)
  mutable callback_label : label;
      (** the label of every {!schedule}d callback; -1 until the first
          one, so a boot that schedules none interns nothing *)
  mutable handler : (unit, unit) Effect.Deep.handler;
      (** the fiber handler, shared by every fiber of this engine: it
          reads the fiber's label from [cur] *)
  (* Scheduler introspection, maintained unconditionally (plain integer
     arithmetic in simulated-deterministic order, so it can never perturb a
     run): fiber park/resume totals, aggregate dead wait-queue entries and
     aggregate buffered channel items across this engine's primitives. *)
  mutable parks : int;
  mutable resumes : int;
  mutable waitq_dead : int;
  mutable waitq_dead_max : int;
  mutable chan_queued : int;
  mutable chan_queued_max : int;
}

exception Fiber_failure of string * exn

type _ Effect.t +=
  | Sleep : t * Time.t -> unit Effect.t
  | Suspend : t * (('a -> unit) -> unit) -> 'a Effect.t

let label t ?tag name =
  let key = (name, tag) in
  match Hashtbl.find_opt t.labels key with
  | Some id -> id
  | None ->
      let id = t.nlabels in
      if id = Array.length t.label_names then begin
        let ncap = max 16 (2 * id) in
        let names' = Array.make ncap "" in
        Array.blit t.label_names 0 names' 0 id;
        t.label_names <- names';
        let tags' = Array.make ncap None in
        Array.blit t.label_tags 0 tags' 0 id;
        t.label_tags <- tags'
      end;
      t.label_names.(id) <- name;
      t.label_tags.(id) <- tag;
      t.nlabels <- id + 1;
      Hashtbl.add t.labels key id;
      id

let label_name t id = t.label_names.(id)
let label_tag t id = t.label_tags.(id)

let push_event t ~after ev =
  assert (after >= 0);
  let seq = t.seq in
  t.seq <- seq + 1;
  Eheap.push t.queue ~at:(Time.add t.now after) ~seq ev

(* The handler that turns Sleep/Suspend into engine events. A fiber is
   wrapped once, at its entry point; the continuation keeps the handler,
   and its events inherit the fiber's label (read from [cur] when the
   fiber parks), which is what lets the profiler attribute every host
   nanosecond of a fiber's life to its name, not just its first slice. *)
let fiber_handler t : (unit, unit) Effect.Deep.handler =
  {
    retc = ignore;
    exnc = (fun e -> raise (Fiber_failure (label_name t t.cur, e)));
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Sleep (eng, dt) ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                push_event eng ~after:dt (Wake (eng.cur, k)))
        | Suspend (eng, register) ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                eng.parks <- eng.parks + 1;
                let lbl = eng.cur in
                let fired = ref false in
                register (fun v ->
                    if not !fired then begin
                      fired := true;
                      eng.resumes <- eng.resumes + 1;
                      push_event eng ~after:0 (Resume (lbl, k, v))
                    end))
        | _ -> None);
  }

let create ?(seed = 42) () =
  let t =
    {
      now = Time.zero;
      (* The dummy lets the queue clear vacated slots: an executed event
         holds its closure or continuation, which can pin the whole object
         graph the fiber touches (machine, cluster) long after it ran. *)
      queue = Eheap.create ~dummy:(Run (0, ignore)) ();
      seq = 0;
      seed;
      rng = Prng.create ~seed;
      processed = 0;
      observer = None;
      labels = Hashtbl.create 16;
      label_names = [||];
      label_tags = [||];
      nlabels = 0;
      cur = 0;
      callback_label = -1;
      handler = { retc = ignore; exnc = raise; effc = (fun _ -> None) };
      parks = 0;
      resumes = 0;
      waitq_dead = 0;
      waitq_dead_max = 0;
      chan_queued = 0;
      chan_queued_max = 0;
    }
  in
  t.handler <- fiber_handler t;
  t

let now t = t.now
let rng t = t.rng
let seed t = t.seed
let events_processed t = t.processed
let queue_length t = Eheap.length t.queue
let queue_max_length t = Eheap.max_length t.queue
let parks t = t.parks
let resumes t = t.resumes
let waitq_dead t = t.waitq_dead
let waitq_dead_max t = t.waitq_dead_max
let chan_queued t = t.chan_queued
let chan_queued_max t = t.chan_queued_max

module Introspect = struct
  let waitq_dead_add t n =
    t.waitq_dead <- t.waitq_dead + n;
    if t.waitq_dead > t.waitq_dead_max then t.waitq_dead_max <- t.waitq_dead

  let chan_queued_add t n =
    t.chan_queued <- t.chan_queued + n;
    if t.chan_queued > t.chan_queued_max then
      t.chan_queued_max <- t.chan_queued
end

let spawn_label t lbl f =
  push_event t ~after:0
    (Run (lbl, fun () -> Effect.Deep.match_with f () t.handler))

let spawn t ?(name = "fiber") ?tag f = spawn_label t (label t ?tag name) f

let schedule t ~after f =
  if t.callback_label < 0 then t.callback_label <- label t "callback";
  push_event t ~after (Run (t.callback_label, f))

let set_observer t ob = t.observer <- ob

let event_label = function Run (l, _) | Wake (l, _) | Resume (l, _, _) -> l

let exec t = function
  | Run (l, f) ->
      t.cur <- l;
      f ()
  | Wake (l, k) ->
      t.cur <- l;
      Effect.Deep.continue k ()
  | Resume (l, k, v) ->
      t.cur <- l;
      Effect.Deep.continue k v

let run ?until t =
  (match t.observer with
  | None -> ()
  | Some ob -> ob.on_run_start ~now:t.now);
  let limit = match until with Some l -> l | None -> max_int in
  let continue = ref true in
  while !continue do
    let at = Eheap.next_at t.queue in
    if at < 0 then continue := false
    else if at > limit then begin
      t.now <- limit;
      continue := false
    end
    else begin
      t.now <- at;
      (* Drain the whole same-instant cohort in one dispatch iteration:
         every queued event with this timestamp, including ones pushed by
         the cohort itself (a resume at [now] lands here with a larger
         seq, exactly where the one-event-per-iteration loop would run
         it). Order is identical; the queue is consulted once per event
         instead of twice (peek + pop), and nothing is allocated. *)
      match t.observer with
      | None ->
          while Eheap.next_at t.queue = at do
            let ev = Eheap.pop_exn t.queue in
            t.processed <- t.processed + 1;
            exec t ev
          done
      | Some ob ->
          while Eheap.next_at t.queue = at do
            let ev = Eheap.pop_exn t.queue in
            t.processed <- t.processed + 1;
            ob.on_event ~label:(event_label ev) ~now:at;
            exec t ev;
            ob.on_event_done ()
          done
    end
  done;
  match t.observer with
  | None -> ()
  | Some ob -> ob.on_run_stop ~now:t.now

let sleep t dt = if dt <= 0 then () else Effect.perform (Sleep (t, dt))
let yield t = Effect.perform (Sleep (t, 0))
let suspend t register = Effect.perform (Suspend (t, register))
