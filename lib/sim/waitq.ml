type 'a entry = { mutable active : bool; resume : 'a -> unit; owner : 'a t }

and 'a t = {
  q : 'a entry Queue.t;
  eng : Engine.t option;
      (** When known (every creation site in the tree passes it), dead-entry
          occupancy is also folded into the engine-wide aggregate the
          profiler samples ([Engine.waitq_dead]). *)
  mutable dead : int;
      (** Cancelled entries still queued: they occupy slots (and memory)
          until they reach the head and are purged. *)
}

let create ?eng () = { q = Queue.create (); eng; dead = 0 }

let push t resume =
  let e = { active = true; resume; owner = t } in
  Queue.push e t.q;
  e

let note_dead t n =
  t.dead <- t.dead + n;
  match t.eng with
  | None -> ()
  | Some eng -> Engine.Introspect.waitq_dead_add eng n

(* Rebuild the queue keeping only live entries, in order. Entries never
   consume a wake-up once inactive, so dropping them early is observable
   only through [dead_count] and memory — never through wake order. *)
let compact t =
  if t.dead > 0 then begin
    let keep = Queue.create () in
    Queue.iter (fun e -> if e.active then Queue.push e keep) t.q;
    Queue.clear t.q;
    Queue.transfer keep t.q;
    note_dead t (-t.dead)
  end

let cancel e =
  if e.active then begin
    e.active <- false;
    let t = e.owner in
    note_dead t 1;
    (* Compact lazily once dead entries dominate: without this, a storm of
       timeouts on a rarely-woken queue accumulates dead slots without
       bound (they are otherwise purged only when they reach the head). *)
    if 2 * t.dead > Queue.length t.q then compact t
  end

let is_active e = e.active

let dead_count t = t.dead

(* Dead (cancelled or already-woken) entries stay queued until they reach the
   head; popping purges them so they never consume a wake-up. *)
let rec pop_active t =
  match Queue.take_opt t.q with
  | None -> None
  | Some e ->
      if e.active then Some e
      else begin
        note_dead t (-1);
        pop_active t
      end

let wake_one t v =
  match pop_active t with
  | None -> false
  | Some e ->
      e.active <- false;
      e.resume v;
      true

let wake_all t v =
  let rec loop n =
    match pop_active t with
    | None -> n
    | Some e ->
        e.active <- false;
        e.resume v;
        loop (n + 1)
  in
  loop 0

let take t =
  match pop_active t with
  | None -> None
  | Some e ->
      e.active <- false;
      Some e.resume

(* Inactive entries stay queued only via [cancel] (wake/take remove before
   deactivating), and [cancel]/purge maintain [dead] exactly — so the
   active count is a subtraction, not a fold. *)
let length t = Queue.length t.q - t.dead
let is_empty t = length t = 0

let wait eng t = Engine.suspend eng (fun resume -> ignore (push t resume))

type 'a timed = Signalled of 'a | Timed_out

let wait_timeout eng t ~timeout =
  Engine.suspend eng (fun resume ->
      let entry = push t (fun v -> resume (Signalled v)) in
      Engine.schedule eng ~after:timeout (fun () ->
          if is_active entry then begin
            cancel entry;
            resume Timed_out
          end))
