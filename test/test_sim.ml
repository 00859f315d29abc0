(* Unit and property tests for the simulation engine. *)

open Sim

let test_time_pp () =
  Alcotest.(check string) "ns" "500ns" (Time.to_string (Time.ns 500));
  Alcotest.(check string) "us" "2.50us" (Time.to_string (Time.ns 2500));
  Alcotest.(check string) "ms" "1.500ms" (Time.to_string (Time.us 1500));
  Alcotest.(check string) "s" "2.000s" (Time.to_string (Time.s 2))

let test_engine_ordering () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.schedule eng ~after:30 (fun () -> log := 3 :: !log);
  Engine.schedule eng ~after:10 (fun () -> log := 1 :: !log);
  Engine.schedule eng ~after:20 (fun () -> log := 2 :: !log);
  Engine.run eng;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log)

let test_engine_fifo_same_instant () =
  let eng = Engine.create () in
  let log = ref [] in
  for i = 1 to 10 do
    Engine.schedule eng ~after:5 (fun () -> log := i :: !log)
  done;
  Engine.run eng;
  Alcotest.(check (list int))
    "fifo at same instant"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.rev !log)

let test_sleep_advances_clock () =
  let eng = Engine.create () in
  let seen = ref (-1) in
  Engine.spawn eng (fun () ->
      Engine.sleep eng (Time.us 5);
      Engine.sleep eng (Time.us 7);
      seen := Engine.now eng);
  Engine.run eng;
  Alcotest.(check int) "now" (Time.us 12) !seen

let test_run_until () =
  let eng = Engine.create () in
  let fired = ref 0 in
  Engine.schedule eng ~after:100 (fun () -> incr fired);
  Engine.schedule eng ~after:200 (fun () -> incr fired);
  Engine.run ~until:150 eng;
  Alcotest.(check int) "only first" 1 !fired;
  Alcotest.(check int) "clock clamped" 150 (Engine.now eng);
  Engine.run eng;
  Alcotest.(check int) "rest runs" 2 !fired

let test_suspend_resume () =
  let eng = Engine.create () in
  let resume_cell = ref None in
  let got = ref 0 in
  Engine.spawn eng (fun () ->
      let v = Engine.suspend eng (fun r -> resume_cell := Some r) in
      got := v);
  Engine.schedule eng ~after:50 (fun () ->
      match !resume_cell with Some r -> r 42 | None -> ());
  Engine.run eng;
  Alcotest.(check int) "value" 42 !got

let test_suspend_idempotent_resume () =
  let eng = Engine.create () in
  let resume_cell = ref None in
  let count = ref 0 in
  Engine.spawn eng (fun () ->
      let _ = Engine.suspend eng (fun r -> resume_cell := Some r) in
      incr count);
  Engine.schedule eng ~after:10 (fun () ->
      match !resume_cell with
      | Some r ->
          r 1;
          r 2;
          r 3
      | None -> ());
  Engine.run eng;
  Alcotest.(check int) "resumed once" 1 !count

let test_fiber_failure_propagates () =
  let eng = Engine.create () in
  Engine.spawn eng ~name:"boom" (fun () -> failwith "bang");
  Alcotest.check_raises "fiber failure"
    (Engine.Fiber_failure ("boom", Failure "bang"))
    (fun () -> Engine.run eng)

(* A scheduled callback runs outside any fiber: blocking in it is a bug
   the engine reports rather than a fiber it silently starts. *)
let test_callback_cannot_block () =
  let eng = Engine.create () in
  Engine.schedule eng ~after:10 (fun () -> Engine.sleep eng 5);
  match Engine.run eng with
  | () -> Alcotest.fail "a scheduled callback slept"
  | exception Effect.Unhandled _ -> ()

let test_determinism () =
  let run_once () =
    let eng = Engine.create ~seed:7 () in
    let trace = Buffer.create 64 in
    for i = 1 to 5 do
      Engine.spawn eng (fun () ->
          Engine.sleep eng (Prng.int (Engine.rng eng) 100);
          Buffer.add_string trace (string_of_int i))
    done;
    Engine.run eng;
    Buffer.contents trace
  in
  Alcotest.(check string) "identical runs" (run_once ()) (run_once ())

let test_mutex_exclusion () =
  let eng = Engine.create () in
  let m = Mutex.create eng in
  let inside = ref 0 and max_inside = ref 0 and done_count = ref 0 in
  for _ = 1 to 8 do
    Engine.spawn eng (fun () ->
        Mutex.lock m;
        incr inside;
        max_inside := max !max_inside !inside;
        Engine.sleep eng (Time.us 10);
        decr inside;
        Mutex.unlock m;
        incr done_count)
  done;
  Engine.run eng;
  Alcotest.(check int) "mutual exclusion" 1 !max_inside;
  Alcotest.(check int) "all finished" 8 !done_count

let test_mutex_fifo () =
  let eng = Engine.create () in
  let m = Mutex.create eng in
  let order = ref [] in
  Engine.spawn eng (fun () ->
      Mutex.lock m;
      Engine.sleep eng (Time.us 50);
      Mutex.unlock m);
  for i = 1 to 5 do
    Engine.spawn eng (fun () ->
        Engine.sleep eng i;
        Mutex.lock m;
        order := i :: !order;
        Mutex.unlock m)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "fifo handoff" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_channel_fifo () =
  let eng = Engine.create () in
  let ch = Channel.create eng ~capacity:4 in
  let received = ref [] in
  Engine.spawn eng (fun () ->
      for i = 1 to 10 do
        Channel.send ch i
      done);
  Engine.spawn eng (fun () ->
      for _ = 1 to 10 do
        let v = Channel.recv ch in
        received := v :: !received;
        Engine.sleep eng (Time.us 1)
      done);
  Engine.run eng;
  Alcotest.(check (list int))
    "in order"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.rev !received)

let test_channel_backpressure () =
  let eng = Engine.create () in
  let ch = Channel.create eng ~capacity:2 in
  let sent = ref 0 in
  Engine.spawn eng (fun () ->
      for _ = 1 to 5 do
        Channel.send ch ();
        incr sent
      done);
  (* Before any recv, only [capacity] sends complete. *)
  Engine.run ~until:(Time.us 1) eng;
  Alcotest.(check int) "blocked at capacity" 2 !sent;
  Engine.spawn eng (fun () ->
      for _ = 1 to 5 do
        ignore (Channel.recv ch)
      done);
  Engine.run eng;
  Alcotest.(check int) "all sent" 5 !sent

let test_channel_recv_timeout () =
  let eng = Engine.create () in
  let ch : int Channel.t = Channel.create eng ~capacity:1 in
  let got = ref (Some 0) in
  Engine.spawn eng (fun () -> got := Channel.recv_timeout ch ~timeout:(Time.us 3));
  Engine.run eng;
  Alcotest.(check bool) "timeout" true (!got = None)

let test_waitq_cancel () =
  let eng = Engine.create () in
  let q : unit Waitq.t = Waitq.create () in
  let woken = ref [] in
  let entries = ref [] in
  Engine.spawn eng (fun () ->
      ignore q;
      ());
  for i = 1 to 3 do
    Engine.spawn eng (fun () ->
        Engine.suspend eng (fun resume ->
            entries := (i, Waitq.push q (fun () -> resume ())) :: !entries);
        woken := i :: !woken)
  done;
  Engine.schedule eng ~after:10 (fun () ->
      (* Cancel waiter 2, wake one: waiter 1 gets it; wake again: 3. *)
      (match List.assoc_opt 2 !entries with
      | Some e -> Waitq.cancel e
      | None -> ());
      ignore (Waitq.wake_one q ());
      ignore (Waitq.wake_one q ()));
  Engine.run eng;
  Alcotest.(check (list int)) "cancelled skipped" [ 1; 3 ] (List.rev !woken)

let test_barrier_rounds () =
  let eng = Engine.create () in
  let b = Barrier.create eng ~parties:4 in
  let leaders = ref 0 and released = ref 0 in
  for i = 1 to 8 do
    Engine.spawn eng (fun () ->
        Engine.sleep eng (i * 10);
        (match Barrier.wait b with
        | `Leader -> incr leaders
        | `Follower -> ());
        incr released)
  done;
  Engine.run eng;
  Alcotest.(check int) "two rounds" 2 (Barrier.rounds b);
  Alcotest.(check int) "one leader per round" 2 !leaders;
  Alcotest.(check int) "all released" 8 !released

let test_barrier_blocks_until_full () =
  let eng = Engine.create () in
  let b = Barrier.create eng ~parties:3 in
  let through = ref 0 in
  for _ = 1 to 2 do
    Engine.spawn eng (fun () ->
        ignore (Barrier.wait b);
        incr through)
  done;
  Engine.run eng;
  Alcotest.(check int) "held at 2/3" 0 !through;
  Engine.spawn eng (fun () -> ignore (Barrier.wait b));
  Engine.run eng;
  Alcotest.(check int) "released" 2 !through

let test_trace_ring () =
  let tr = Trace.create ~capacity:4 () in
  for i = 1 to 6 do
    Trace.emit tr ~at:(i * 10) ~cat:(if i mod 2 = 0 then "even" else "odd")
      (string_of_int i)
  done;
  Alcotest.(check int) "retained" 4 (Trace.count tr);
  Alcotest.(check int) "total" 6 (Trace.total tr);
  let msgs = List.map (fun e -> e.Trace.msg) (Trace.events tr) in
  Alcotest.(check (list string)) "oldest dropped" [ "3"; "4"; "5"; "6" ] msgs;
  let evens = Trace.events ~cat:"even" tr in
  Alcotest.(check (list string)) "filter" [ "4"; "6" ]
    (List.map (fun e -> e.Trace.msg) evens);
  Trace.clear tr;
  Alcotest.(check int) "cleared" 0 (Trace.count tr)

let test_trace_prefix () =
  let tr = Trace.create () in
  Trace.emit tr ~at:10 ~cat:"migration.save" "a";
  Trace.emit tr ~at:20 ~cat:"migration.send" "b";
  Trace.emit tr ~at:30 ~cat:"futex.wait" "c";
  Trace.emit tr ~at:40 ~cat:"migration.send" "d";
  let msgs ?cat ?prefix () =
    List.map (fun e -> e.Trace.msg) (Trace.events ?cat ?prefix tr)
  in
  Alcotest.(check (list string)) "prefix filter" [ "a"; "b"; "d" ]
    (msgs ~prefix:"migration." ());
  Alcotest.(check (list string)) "prefix misses exact-only cats" [ "c" ]
    (msgs ~prefix:"futex" ());
  Alcotest.(check (list string)) "empty prefix keeps all" [ "a"; "b"; "c"; "d" ]
    (msgs ~prefix:"" ());
  Alcotest.(check (list string)) "no match" [] (msgs ~prefix:"zzz" ());
  (* Both filters compose: exact category AND prefix. *)
  Alcotest.(check (list string)) "cat + prefix" [ "b"; "d" ]
    (msgs ~cat:"migration.send" ~prefix:"migration." ());
  Alcotest.(check (list string)) "cat + contradictory prefix" []
    (msgs ~cat:"migration.send" ~prefix:"futex" ())

let test_trace_overflow () =
  (* Many wraparounds: [total] keeps counting while [count]/[events] stay
     bounded by the capacity and hold exactly the newest events. *)
  let cap = 8 in
  let n = 1000 in
  let tr = Trace.create ~capacity:cap () in
  for i = 1 to n do
    Trace.emit tr ~at:i ~cat:"c" (string_of_int i);
    (* Mid-stream invariants: total is exactly monotone (one per emit)
       while count saturates at the ring capacity. *)
    assert (Trace.total tr = i);
    assert (Trace.count tr = min i cap)
  done;
  Alcotest.(check int) "total counts every emit" n (Trace.total tr);
  Alcotest.(check int) "count bounded by capacity" cap (Trace.count tr);
  let msgs = List.map (fun e -> e.Trace.msg) (Trace.events tr) in
  Alcotest.(check int) "events bounded by capacity" cap (List.length msgs);
  Alcotest.(check (list string))
    "exactly the newest events survive"
    (List.init cap (fun i -> string_of_int (n - cap + 1 + i)))
    msgs;
  (* Overflow then clear: counters reset, ring reusable. *)
  Trace.clear tr;
  Alcotest.(check int) "cleared count" 0 (Trace.count tr);
  Trace.emit tr ~at:(n + 1) ~cat:"c" "again";
  Alcotest.(check int) "usable after clear" 1 (Trace.count tr)

let test_trace_chronological () =
  let tr = Trace.create () in
  Trace.emit tr ~at:30 ~cat:"c" "late";
  Trace.emit tr ~at:10 ~cat:"c" "early";
  (* Insertion order is preserved (the engine only moves forward, so
     insertion order is time order in practice). *)
  Alcotest.(check (list string)) "insertion order" [ "late"; "early" ]
    (List.map (fun e -> e.Trace.msg) (Trace.events tr))

(* Event-heap contract: pop order is the total order (at, seq), checked
   against a sorted-list reference model. *)

module Model = struct
  (* Events ordered by (at, seq); both keys strictly increase along the
     list, making every pop unambiguous. *)
  type 'a t = { mutable items : (int * int * 'a) list }

  let create () = { items = [] }

  let push t ~at ~seq v =
    let rec ins = function
      | [] -> [ (at, seq, v) ]
      | (a, s, _) :: _ as rest when at < a || (at = a && seq < s) ->
          (at, seq, v) :: rest
      | hd :: rest -> hd :: ins rest
    in
    t.items <- ins t.items

  let pop t =
    match t.items with
    | [] -> None
    | hd :: rest ->
        t.items <- rest;
        Some hd
end

(* Op sequences mix pushes ([Some at]) and pops ([None]). *)
let apply_ops ops =
  let q = Eheap.create () in
  let model = Model.create () in
  let seq = ref 0 in
  let ok = ref true in
  List.iter
    (fun op ->
      match op with
      | Some at ->
          Eheap.push q ~at ~seq:!seq !seq;
          Model.push model ~at ~seq:!seq !seq;
          incr seq
      | None -> if Eheap.pop q <> Model.pop model then ok := false)
    ops;
  (* Drain both to the end: the tail must agree too, and the heap must
     report empty exactly when the model does. *)
  let rec drain () =
    let a = Eheap.pop q and b = Model.pop model in
    if a <> b then ok := false else if a <> None then drain ()
  in
  drain ();
  !ok && Eheap.is_empty q

let show_ops ops =
  String.concat "; "
    (List.map
       (function Some at -> Printf.sprintf "push@%d" at | None -> "pop")
       ops)

let test_same_instant_fifo () =
  let q = Eheap.create () in
  for seq = 0 to 99 do
    Eheap.push q ~at:42 ~seq seq
  done;
  for expect = 0 to 99 do
    match Eheap.pop q with
    | Some (42, s, v) when s = expect && v = expect -> ()
    | got ->
        Alcotest.failf "same-instant pop %d mismatch: %s" expect
          (match got with
          | None -> "empty"
          | Some (a, s, _) -> Printf.sprintf "(%d,%d)" a s)
  done

let test_horizon_clamp () =
  (* Timestamps at and next to max_int must keep their order. The second
     input is the sequence that once overflowed a bucketed queue's window
     arithmetic: after popping an event at max_int, max_int + 1 wrapped
     negative and the next push indexed out of bounds. *)
  List.iter
    (fun ops -> Alcotest.(check bool) (show_ops ops) true (apply_ops ops))
    [
      List.map Option.some [ max_int - 1; 5; max_int; 0; max_int - 7; 3 ];
      [ Some max_int; None; Some 0 ];
    ]

let test_interleaved_rewindow () =
  (* Pop partway, then push both behind the consumed front and far beyond
     everything queued: the pop stream must stay globally sorted. *)
  let q = Eheap.create () in
  let seq = ref 0 in
  let push at =
    Eheap.push q ~at ~seq:!seq ();
    incr seq
  in
  List.iter push [ 10; 20; 30; 40_000; 50_000 ];
  (match Eheap.pop q with
  | Some (10, _, _) -> ()
  | _ -> Alcotest.fail "first pop");
  List.iter push [ 11; 15; 9_000_000; 25 ];
  let rec drain acc =
    match Eheap.pop q with
    | None -> List.rev acc
    | Some (at, _, _) -> drain (at :: acc)
  in
  Alcotest.(check (list int))
    "global order"
    [ 11; 15; 20; 25; 30; 40_000; 50_000; 9_000_000 ]
    (drain [])

let test_dummy_slot_clearing () =
  (* Payloads popped from a heap created with ~dummy must be collectable
     immediately: no slot may retain them. This is what keeps executed
     engine closures from pinning machine graphs. *)
  let n = 64 in
  let weak = Weak.create n in
  let q = Eheap.create ~dummy:(Bytes.create 0) () in
  for i = 0 to n - 1 do
    let payload = Bytes.make 16 'p' in
    Weak.set weak i (Some payload);
    Eheap.push q ~at:(i * 1_000_003) ~seq:i payload
  done;
  for _ = 1 to n do
    ignore (Eheap.pop_exn q)
  done;
  Alcotest.(check bool) "drained" true (Eheap.is_empty q);
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check weak i then incr live
  done;
  Alcotest.(check int) "retained payloads" 0 !live

let test_next_at_sentinel () =
  let q = Eheap.create () in
  Alcotest.(check int) "empty sentinel" (-1) (Eheap.next_at q);
  Eheap.push q ~at:17 ~seq:0 ();
  Eheap.push q ~at:5 ~seq:1 ();
  Alcotest.(check int) "min" 5 (Eheap.next_at q);
  ignore (Eheap.pop_exn q);
  Alcotest.(check int) "after pop" 17 (Eheap.next_at q);
  ignore (Eheap.pop_exn q);
  Alcotest.(check int) "drained sentinel" (-1) (Eheap.next_at q)

(* Scheduler introspection: the counters the profiler samples. All of them
   are maintained unconditionally, so these tests need no observer. *)

let test_eheap_high_water () =
  let h = Eheap.create () in
  Alcotest.(check int) "empty" 0 (Eheap.length h);
  for i = 1 to 5 do
    Eheap.push h ~at:i ~seq:i i
  done;
  Alcotest.(check int) "length tracks pushes" 5 (Eheap.length h);
  ignore (Eheap.pop h);
  ignore (Eheap.pop h);
  Alcotest.(check int) "length tracks pops" 3 (Eheap.length h);
  Alcotest.(check int) "high-water survives pops" 5 (Eheap.max_length h);
  for i = 6 to 12 do
    Eheap.push h ~at:i ~seq:i i
  done;
  (* 3 remaining + 7 new = 10, a new high-water mark. *)
  Alcotest.(check int) "high-water advances" 10 (Eheap.max_length h)

let test_engine_queue_depth () =
  let eng = Engine.create () in
  Engine.schedule eng ~after:10 (fun () -> ());
  Engine.schedule eng ~after:20 (fun () -> ());
  Engine.schedule eng ~after:30 (fun () -> ());
  Alcotest.(check int) "depth before run" 3 (Engine.queue_length eng);
  Engine.run eng;
  Alcotest.(check int) "drained" 0 (Engine.queue_length eng);
  Alcotest.(check int) "high-water survives the run" 3
    (Engine.queue_max_length eng);
  Alcotest.(check int) "events processed" 3 (Engine.events_processed eng)

let test_park_resume_counters () =
  let eng = Engine.create () in
  let resume_cell = ref None in
  Engine.spawn eng (fun () ->
      (* Sleeping is not parking: only [suspend] counts. *)
      Engine.sleep eng (Time.us 1);
      ignore (Engine.suspend eng (fun r -> resume_cell := Some r)));
  Engine.schedule eng ~after:(Time.us 10) (fun () ->
      match !resume_cell with
      | Some r ->
          r 1;
          (* Extra fires are idempotent and must not double-count. *)
          r 2
      | None -> ());
  Engine.run eng;
  Alcotest.(check int) "one park" 1 (Engine.parks eng);
  Alcotest.(check int) "one resume" 1 (Engine.resumes eng)

let test_waitq_dead_occupancy () =
  let eng = Engine.create () in
  let q : unit Waitq.t = Waitq.create ~eng () in
  let entries = ref [] in
  for i = 1 to 3 do
    Engine.spawn eng (fun () ->
        Engine.suspend eng (fun resume ->
            entries := (i, Waitq.push q (fun () -> resume ())) :: !entries))
  done;
  Engine.schedule eng ~after:10 (fun () ->
      (match List.assoc_opt 2 !entries with
      | Some e ->
          Waitq.cancel e;
          (* Cancelling twice counts once. *)
          Waitq.cancel e
      | None -> ());
      Alcotest.(check int) "queue-level dead count" 1 (Waitq.dead_count q);
      Alcotest.(check int) "engine aggregate" 1 (Engine.waitq_dead eng);
      (* Waking drains past the dead entry, reclaiming it. *)
      ignore (Waitq.wake_one q ());
      ignore (Waitq.wake_one q ());
      Alcotest.(check int) "dead entry purged" 0 (Waitq.dead_count q);
      Alcotest.(check int) "engine aggregate drops" 0 (Engine.waitq_dead eng);
      Alcotest.(check int) "high-water survives" 1 (Engine.waitq_dead_max eng));
  Engine.run eng

let test_waitq_compaction () =
  (* Dead entries must not accumulate: once they outnumber the live
     waiters, cancel itself compacts the queue — dead_count drops without
     any wake having drained past the corpses. *)
  let eng = Engine.create () in
  let q : unit Waitq.t = Waitq.create ~eng () in
  let entries = ref [] in
  for i = 1 to 3 do
    Engine.spawn eng (fun () ->
        Engine.suspend eng (fun resume ->
            entries := (i, Waitq.push q (fun () -> resume ())) :: !entries))
  done;
  Engine.schedule eng ~after:10 (fun () ->
      let cancel i = Waitq.cancel (List.assoc i !entries) in
      cancel 1;
      (* 1 dead of 3 slots: below the threshold, still lazily retained. *)
      Alcotest.(check int) "one dead retained" 1 (Waitq.dead_count q);
      cancel 3;
      (* 2 dead of 3 slots trips 2*dead > slots: compacted on the spot. *)
      Alcotest.(check int) "compaction ran" 0 (Waitq.dead_count q);
      Alcotest.(check int) "engine aggregate dropped" 0
        (Engine.waitq_dead eng);
      Alcotest.(check int) "live waiter survives" 1 (Waitq.length q);
      (* The surviving waiter is intact and wakeable. *)
      Alcotest.(check bool) "wake survivor" true (Waitq.wake_one q ());
      Alcotest.(check bool) "queue empty" true (Waitq.is_empty q));
  Engine.run eng;
  (* The second cancel counts before compaction reclaims both corpses,
     so the high-water saw 2. *)
  Alcotest.(check int) "dead high-water survives" 2
    (Engine.waitq_dead_max eng)

let test_chan_queued_gauge () =
  let eng = Engine.create () in
  let ch = Channel.create eng ~capacity:4 in
  Engine.spawn eng (fun () ->
      for i = 1 to 3 do
        Channel.send ch i
      done);
  Engine.run eng;
  Alcotest.(check int) "buffered items" 3 (Engine.chan_queued eng);
  Alcotest.(check int) "high-water" 3 (Engine.chan_queued_max eng);
  Engine.spawn eng (fun () ->
      for _ = 1 to 3 do
        ignore (Channel.recv ch)
      done);
  Engine.run eng;
  Alcotest.(check int) "drained" 0 (Engine.chan_queued eng);
  Alcotest.(check int) "high-water survives drain" 3
    (Engine.chan_queued_max eng)

(* Property tests *)

let prop_heap_ordering =
  QCheck.Test.make ~name:"eheap pops in (time, seq) order" ~count:200
    QCheck.(list (int_bound 1000))
    (fun times ->
      let h = Eheap.create () in
      List.iteri (fun i at -> Eheap.push h ~at ~seq:i i) times;
      let rec drain prev acc =
        match Eheap.pop h with
        | None -> List.rev acc
        | Some (at, seq, _) ->
            (match prev with
            | Some (pat, pseq) ->
                if at < pat || (at = pat && seq < pseq) then
                  QCheck.Test.fail_report "heap order violated"
            | None -> ());
            drain (Some (at, seq)) ((at, seq) :: acc)
      in
      let order = drain None [] in
      List.length order = List.length times)

(* Time generator:mostly small values with far-future and
   max_int-adjacent outliers. *)
let gen_time =
  QCheck.Gen.(
    frequency
      [
        (8, int_bound 1_000);
        (3, map (fun x -> x * 1009) (int_bound 10_000));
        (2, map (fun x -> x * 1_000_003) (int_bound 100_000));
        (1, map (fun x -> max_int - x) (int_bound 1_000));
      ])

let prop_heap_vs_model =
  QCheck.Test.make ~name:"heap vs sorted-list model" ~count:300
    (QCheck.make ~print:show_ops
       QCheck.Gen.(
         list (frequency [ (3, map Option.some gen_time); (2, return None) ])))
    apply_ops

let prop_prng_deterministic =
  QCheck.Test.make ~name:"prng deterministic from seed" ~count:100
    QCheck.int (fun seed ->
      let a = Prng.create ~seed and b = Prng.create ~seed in
      List.init 20 (fun _ -> Prng.bits64 a)
      = List.init 20 (fun _ -> Prng.bits64 b))

let prop_prng_bounds =
  QCheck.Test.make ~name:"prng int_in bounds" ~count:500
    QCheck.(pair small_int small_int)
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      let rng = Prng.create ~seed:(a + b) in
      let v = Prng.int_in rng lo hi in
      lo <= v && v <= hi)

let prop_shuffle_permutes =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(list int)
    (fun l ->
      let rng = Prng.create ~seed:17 in
      let a = Array.of_list l in
      Prng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let () =
  Alcotest.run "sim"
    [
      ( "time",
        [ Alcotest.test_case "pretty printing" `Quick test_time_pp ] );
      ( "engine",
        [
          Alcotest.test_case "event ordering" `Quick test_engine_ordering;
          Alcotest.test_case "same-instant fifo" `Quick
            test_engine_fifo_same_instant;
          Alcotest.test_case "sleep advances clock" `Quick
            test_sleep_advances_clock;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "suspend/resume" `Quick test_suspend_resume;
          Alcotest.test_case "resume idempotent" `Quick
            test_suspend_idempotent_resume;
          Alcotest.test_case "fiber failure propagates" `Quick
            test_fiber_failure_propagates;
          Alcotest.test_case "callback cannot block" `Quick
            test_callback_cannot_block;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "sync",
        [
          Alcotest.test_case "mutex exclusion" `Quick test_mutex_exclusion;
          Alcotest.test_case "mutex fifo" `Quick test_mutex_fifo;
          Alcotest.test_case "waitq cancel" `Quick test_waitq_cancel;
        ] );
      ( "barrier",
        [
          Alcotest.test_case "rounds + leader" `Quick test_barrier_rounds;
          Alcotest.test_case "blocks until full" `Quick
            test_barrier_blocks_until_full;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring + filter" `Quick test_trace_ring;
          Alcotest.test_case "prefix filter" `Quick test_trace_prefix;
          Alcotest.test_case "overflow keeps newest" `Quick
            test_trace_overflow;
          Alcotest.test_case "order" `Quick test_trace_chronological;
        ] );
      ( "channel",
        [
          Alcotest.test_case "fifo" `Quick test_channel_fifo;
          Alcotest.test_case "backpressure" `Quick test_channel_backpressure;
          Alcotest.test_case "recv timeout" `Quick test_channel_recv_timeout;
        ] );
      ( "contract",
        [
          Alcotest.test_case "same-instant fifo" `Quick
            test_same_instant_fifo;
          Alcotest.test_case "horizon clamp near max_int" `Quick
            test_horizon_clamp;
          Alcotest.test_case "interleaved rewindow" `Quick
            test_interleaved_rewindow;
          Alcotest.test_case "dummy-slot clearing" `Quick
            test_dummy_slot_clearing;
          Alcotest.test_case "next_at -1 sentinel" `Quick
            test_next_at_sentinel;
        ] );
      ( "introspection",
        [
          Alcotest.test_case "eheap high-water" `Quick test_eheap_high_water;
          Alcotest.test_case "engine queue depth" `Quick
            test_engine_queue_depth;
          Alcotest.test_case "park/resume counters" `Quick
            test_park_resume_counters;
          Alcotest.test_case "waitq dead occupancy" `Quick
            test_waitq_dead_occupancy;
          Alcotest.test_case "waitq compaction" `Quick
            test_waitq_compaction;
          Alcotest.test_case "channel queued gauge" `Quick
            test_chan_queued_gauge;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_heap_ordering;
            prop_heap_vs_model;
            prop_prng_deterministic;
            prop_prng_bounds;
            prop_shuffle_permutes;
          ] );
    ]
