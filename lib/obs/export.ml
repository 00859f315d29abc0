(* Chrome trace_event ("catapult") JSON, loadable in Perfetto / about:tracing.
   Simulated time is nanoseconds; trace_event wants microseconds in [ts]/
   [dur], so we divide by 1e3 and keep the fraction. Tracks: one "process"
   per (run, kernel) pair so repeated boots sharing a recorder don't overlap,
   one "thread" row per simulated tid (row 0 for kernel-level spans), and
   pid 0 for the trace ring's instants and the causal link records, which
   belong to no kernel. Each track is named once, before its first event.

   The [args] of every span event are the span's results-document object
   ({!Span.to_json}), and those of every causal flow event the causal
   entry ({!Causal.event_to_json}), so `popcornsim analyze` decodes a trace
   exactly as it decodes a results document. *)

let us ns = float_of_int ns /. 1_000.

(* From 1 up: pid 0 is the ring's track. *)
let pid_of_kernel ~run ~kernel = 1 + (run * 100) + kernel

let span_event ~run_offset ~pid ~dur (s : Span.span) =
  Json.Obj
    [
      ("name", Json.Str (Span.kind_name s.kind));
      ("cat", Json.Str "span");
      ("ph", Json.Str "X");
      ("ts", Json.Float (us s.start));
      ("dur", Json.Float (us dur));
      ("pid", Json.Int pid);
      ("tid", Json.Int (match s.tid with None -> 0 | Some t -> t + 1));
      ("args", Span.to_json ~run_offset s);
    ]

let process_meta ~pid name =
  Json.Obj
    [
      ("name", Json.Str "process_name");
      ("ph", Json.Str "M");
      ("pid", Json.Int pid);
      ("args", Json.Obj [ ("name", Json.Str name) ]);
    ]

let trace_event ~pid (e : Sim.Trace.event) =
  Json.Obj
    [
      ("name", Json.Str e.msg);
      ("cat", Json.Str e.cat);
      ("ph", Json.Str "i");
      ("s", Json.Str "g");
      ("ts", Json.Float (us e.at));
      ("pid", Json.Int pid);
      ("tid", Json.Int 0);
    ]

(* Flow-event id: unique per (run, message) within one export. *)
let flow_id ~run_offset ~run id = (((run_offset + run) * 1_000_000) + id)

let causal_event ~run_offset ~pid (e : Causal.event) =
  let args = ("args", Causal.event_to_json ~run_offset e) in
  let flow ph bp ~run ~id ~at =
    Json.Obj
      ([ ("name", Json.Str "msg"); ("cat", Json.Str "causal"); ("ph", Json.Str ph) ]
      @ bp
      @ [
          ("id", Json.Int (flow_id ~run_offset ~run id));
          ("ts", Json.Float (us at));
          ("pid", Json.Int pid);
          ("tid", Json.Int 0);
          args;
        ])
  in
  match e with
  | Causal.Send { id; run; at; _ } -> flow "s" [] ~run ~id ~at
  | Causal.Deliver { id; run; at; _ } ->
      flow "f" [ ("bp", Json.Str "e") ] ~run ~id ~at
  | Causal.Link _ ->
      (* No timestamp of its own: a pure edge record (message -> span). *)
      Json.Obj
        [
          ("name", Json.Str "link");
          ("cat", Json.Str "causal");
          ("ph", Json.Str "i");
          ("s", Json.Str "t");
          ("ts", Json.Float 0.);
          ("pid", Json.Int pid);
          ("tid", Json.Int 0);
          args;
        ]

let event_run : Causal.event -> int = function
  | Send { run; _ } | Deliver { run; _ } | Link { run; _ } -> run

let chrome_trace sinks =
  let events = ref [] in
  let push e = events := e :: !events in
  let named = Hashtbl.create 64 in
  let track pid name =
    if not (Hashtbl.mem named pid) then begin
      Hashtbl.add named pid ();
      push (process_meta ~pid (name ()))
    end;
    pid
  in
  let ring_track () = track 0 (fun () -> "trace ring / causal links") in
  let export_sink run_offset (sink : Sink.t) =
    let kernel_track ~run ~kernel =
      let run = run_offset + run in
      track (pid_of_kernel ~run ~kernel) (fun () ->
          Printf.sprintf "run %d / kernel %d" run kernel)
    in
    let spans = Span.spans sink.spans and causal = Causal.events sink.causal in
    (* Open spans draw to the end of their run, as analysis clamps them;
       their args keep stop = -1. *)
    let ix = Critpath.build ~spans ~causal in
    List.iter
      (fun (s : Span.span) ->
        let pid = kernel_track ~run:s.run ~kernel:s.kernel in
        push (span_event ~run_offset ~pid ~dur:(Critpath.duration ix s) s))
      spans;
    List.iter
      (fun e ->
        let pid =
          match e with
          | Causal.Send { run; src; _ } -> kernel_track ~run ~kernel:src
          | Causal.Deliver { run; dst; _ } -> kernel_track ~run ~kernel:dst
          | Causal.Link _ -> ring_track ()
        in
        push (causal_event ~run_offset ~pid e))
      causal;
    List.iter
      (fun e -> push (trace_event ~pid:(ring_track ()) e))
      (Sim.Trace.events sink.trace);
    (* Reserve this sink's runs, its spans' and its messages', before the
       next sink starts. *)
    let last_run =
      List.fold_left
        (fun m (s : Span.span) -> Stdlib.max m s.run)
        (List.fold_left (fun m e -> Stdlib.max m (event_run e)) (-1) causal)
        spans
    in
    run_offset + last_run + 1
  in
  ignore (List.fold_left export_sink 0 sinks);
  Json.Obj
    [
      ("traceEvents", Json.Arr (List.rev !events));
      ("displayTimeUnit", Json.Str "ns");
    ]
