(* Chrome trace_event ("catapult") JSON, loadable in Perfetto / about:tracing.
   Simulated time is nanoseconds; trace_event wants microseconds in [ts]/
   [dur], so we divide by 1e3 and keep the fraction. Tracks: one "process"
   per (run, kernel) pair so repeated boots sharing a recorder don't overlap,
   one "thread" row per simulated tid (row 0 for kernel-level spans).

   The [args] of every span event are the span's results-document object
   ({!Span.to_json}), and those of every causal flow event the causal
   entry ({!Causal.event_to_json}), so `popcornsim analyze` decodes a trace
   exactly as it decodes a results document. *)

let us ns = float_of_int ns /. 1_000.

let pid_of_kernel ~run_offset ~run ~kernel = ((run_offset + run) * 100) + kernel

let span_event ~run_offset ~dur (s : Span.span) =
  Json.Obj
    [
      ("name", Json.Str (Span.kind_name s.kind));
      ("cat", Json.Str "span");
      ("ph", Json.Str "X");
      ("ts", Json.Float (us s.start));
      ("dur", Json.Float (us dur));
      ("pid", Json.Int (pid_of_kernel ~run_offset ~run:s.run ~kernel:s.kernel));
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

let trace_event (e : Sim.Trace.event) =
  Json.Obj
    [
      ("name", Json.Str e.msg);
      ("cat", Json.Str e.cat);
      ("ph", Json.Str "i");
      ("s", Json.Str "g");
      ("ts", Json.Float (us e.at));
      ("pid", Json.Int 0);
      ("tid", Json.Int 0);
    ]

(* Flow-event id: unique per (run, message) within one export. *)
let flow_id ~run_offset ~run id = (((run_offset + run) * 1_000_000) + id)

let causal_event ~run_offset (e : Causal.event) =
  let args = ("args", Causal.event_to_json ~run_offset e) in
  let flow ph bp ~run ~id ~at ~kernel =
    Json.Obj
      ([ ("name", Json.Str "msg"); ("cat", Json.Str "causal"); ("ph", Json.Str ph) ]
      @ bp
      @ [
          ("id", Json.Int (flow_id ~run_offset ~run id));
          ("ts", Json.Float (us at));
          ("pid", Json.Int (pid_of_kernel ~run_offset ~run ~kernel));
          ("tid", Json.Int 0);
          args;
        ])
  in
  match e with
  | Causal.Send { id; run; src; at; _ } -> flow "s" [] ~run ~id ~at ~kernel:src
  | Causal.Deliver { id; run; dst; at } ->
      flow "f" [ ("bp", Json.Str "e") ] ~run ~id ~at ~kernel:dst
  | Causal.Link _ ->
      (* No timestamp of its own: a pure edge record (message -> span). *)
      Json.Obj
        [
          ("name", Json.Str "link");
          ("cat", Json.Str "causal");
          ("ph", Json.Str "i");
          ("s", Json.Str "t");
          ("ts", Json.Float 0.);
          ("pid", Json.Int 0);
          ("tid", Json.Int 0);
          args;
        ]

let event_run : Causal.event -> int = function
  | Send { run; _ } | Deliver { run; _ } | Link { run; _ } -> run

let chrome_trace sinks =
  let events = ref [] in
  let push e = events := e :: !events in
  if sinks <> [] then push (process_meta ~pid:0 "trace ring");
  let export_sink run_offset (sink : Sink.t) =
    let spans = Span.spans sink.spans and causal = Causal.events sink.causal in
    (* Open spans draw to the end of their run, as analysis clamps them;
       their args keep stop = -1. *)
    let ix = Critpath.build ~spans ~causal in
    let seen_pids = Hashtbl.create 8 in
    List.iter
      (fun (s : Span.span) ->
        let pid = pid_of_kernel ~run_offset ~run:s.run ~kernel:s.kernel in
        if not (Hashtbl.mem seen_pids pid) then begin
          Hashtbl.add seen_pids pid ();
          push
            (process_meta ~pid
               (Printf.sprintf "run %d / kernel %d" (run_offset + s.run)
                  s.kernel))
        end;
        push (span_event ~run_offset ~dur:(Critpath.duration ix s) s))
      spans;
    List.iter (fun e -> push (causal_event ~run_offset e)) causal;
    List.iter (fun e -> push (trace_event e)) (Sim.Trace.events sink.trace);
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
