(* Tests for causal tracing (lib/obs/causal), critical-path analysis
   (lib/obs/critpath), the analyze/diff reports (lib/obs/report), the JSON
   parser, and the trace-ring retained counter. *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let spans_json (sink : Obs.Sink.t) =
  Obs.Json.Arr (List.map Obs.Span.to_json (Obs.Span.spans sink.Obs.Sink.spans))

(* Same shape as test_obs's workload, with the causal recorder attached:
   two threads, each migrating once between two kernels, computing
   [compute_us] before and after. *)
let run_workload ?(compute_us = 20) ~sink ~seed () =
  let machine = Hw.Machine.create ~seed ~sockets:1 ~cores_per_socket:4 () in
  let cluster = Popcorn.Cluster.boot machine ~kernels:2 ~cores_per_kernel:2 in
  Hw.Machine.attach_obs machine sink;
  Popcorn.Cluster.observe cluster sink;
  let eng = machine.Hw.Machine.eng in
  Sim.Engine.spawn eng (fun () ->
      let proc =
        Popcorn.Api.start_process cluster ~origin:0 (fun th ->
            let latch = Workloads.Latch.create eng 2 in
            for i = 0 to 1 do
              ignore
                (Popcorn.Api.spawn th ~target:(i mod 2) (fun worker ->
                     Popcorn.Api.compute worker (Sim.Time.us compute_us);
                     ignore (Popcorn.Api.migrate worker ~dst:((i + 1) mod 2));
                     Popcorn.Api.compute worker (Sim.Time.us compute_us);
                     Workloads.Latch.arrive latch))
            done;
            Workloads.Latch.wait latch)
      in
      Popcorn.Api.wait_exit cluster proc);
  Sim.Engine.run eng;
  Sim.Engine.now eng

(* --- causal event log: shape and determinism --- *)

let test_causal_dag_shape () =
  let sink = Obs.Sink.create () in
  ignore (run_workload ~sink ~seed:42 ());
  let events = Obs.Causal.events sink.Obs.Sink.causal in
  let sends = Hashtbl.create 64 in
  List.iter
    (fun (e : Obs.Causal.event) ->
      match e with
      | Obs.Causal.Send { id; run; at; _ } -> Hashtbl.replace sends (run, id) at
      | _ -> ())
    events;
  Alcotest.(check bool) "messages were recorded" true (Hashtbl.length sends > 0);
  (* Every delivery matches an earlier send; fault-free fabric loses none. *)
  let delivers = ref 0 in
  List.iter
    (fun (e : Obs.Causal.event) ->
      match e with
      | Obs.Causal.Deliver { id; run; at; _ } -> (
          incr delivers;
          match Hashtbl.find_opt sends (run, id) with
          | Some send_at ->
              Alcotest.(check bool) "deliver after send" true (at >= send_at)
          | None -> Alcotest.fail "delivery without a matching send")
      | _ -> ())
    events;
  Alcotest.(check int) "nothing lost" (Hashtbl.length sends) !delivers;
  (* The cross-kernel chain exists: each Import span is linked to a message
     that was sent from a Transfer span. *)
  let spans = Obs.Span.spans sink.Obs.Sink.spans in
  let kind_of_sid = Hashtbl.create 64 in
  List.iter
    (fun (s : Obs.Span.span) ->
      Hashtbl.replace kind_of_sid (s.Obs.Span.run, s.Obs.Span.id)
        (Obs.Span.kind_name s.Obs.Span.kind))
    spans;
  let send_from = Hashtbl.create 64 in
  List.iter
    (fun (e : Obs.Causal.event) ->
      match e with
      | Obs.Causal.Send { id; run; from_span = Some sp; _ } ->
          Hashtbl.replace send_from (run, id) sp
      | _ -> ())
    events;
  let import_links =
    List.filter
      (fun (e : Obs.Causal.event) ->
        match e with
        | Obs.Causal.Link { id; run; span } -> (
            Hashtbl.find_opt kind_of_sid (run, span) = Some "import"
            &&
            match Hashtbl.find_opt send_from (run, id) with
            | Some sender ->
                Hashtbl.find_opt kind_of_sid (run, sender) = Some "transfer"
            | None -> false)
        | _ -> false)
      events
  in
  Alcotest.(check int) "transfer -> wire -> import chain per migration" 2
    (List.length import_links)

let test_causal_deterministic () =
  let once () =
    let sink = Obs.Sink.create () in
    ignore (run_workload ~sink ~seed:7 ());
    ( Obs.Json.to_string (Obs.Causal.to_json sink.Obs.Sink.causal),
      Obs.Json.to_string (spans_json sink) )
  in
  let c1, s1 = once () in
  let c2, s2 = once () in
  Alcotest.(check string) "causal log reproducible" c1 c2;
  Alcotest.(check string) "span forest reproducible" s1 s2

let test_causal_json_roundtrip () =
  let sink = Obs.Sink.create () in
  ignore (run_workload ~sink ~seed:11 ());
  let events = Obs.Causal.events sink.Obs.Sink.causal in
  let decoded =
    Obs.Causal.events_of_json (Obs.Causal.to_json sink.Obs.Sink.causal)
  in
  Alcotest.(check int) "all events decode" (List.length events)
    (List.length decoded);
  Alcotest.(check bool) "roundtrip is the identity" true (events = decoded)

(* The decoders read each object in one pass with the tolerant accessors'
   rules: any key order; a key's first occurrence wins even with the wrong
   type; a Float in an int field is truncated; unknown keys are ignored;
   missing optional fields take their defaults. *)
let test_decoder_tolerance () =
  let parse text =
    match Obs.Json.of_string text with
    | Ok j -> j
    | Error e -> Alcotest.failf "%s: %s" text e
  in
  let event text = Obs.Causal.event_of_json (parse text) in
  let check_event text expected =
    Alcotest.(check bool) text true (event text = expected)
  in
  check_event {|{"at":5,"dst":1,"id":3,"run":2,"ev":"deliver"}|}
    (Some (Obs.Causal.Deliver { id = 3; run = 2; dst = 1; at = 5 }));
  check_event {|{"ev":"link","id":"4","id":4,"span":2}|} None;
  check_event {|{"ev":"link","id":4,"run":null,"run":7,"span":2}|}
    (Some (Obs.Causal.Link { id = 4; run = 0; span = 2 }));
  check_event {|{"ev":7,"ev":"link","id":4,"span":2}|} None;
  check_event {|{"ev":"link","id":4.9,"span":-2.9}|}
    (Some (Obs.Causal.Link { id = 4; run = 0; span = -2 }));
  check_event {|{"ev":"link","extra":[1],"id":4,"span":2}|}
    (Some (Obs.Causal.Link { id = 4; run = 0; span = 2 }));
  check_event {|{"ev":"send","id":1,"src":0,"dst":1,"at":9}|}
    (Some
       (Obs.Causal.Send
          {
            id = 1;
            run = 0;
            src = 0;
            dst = 1;
            at = 9;
            bytes = 0;
            from_span = None;
          }));
  check_event {|{"ev":"send","id":1,"src":0,"dst":1}|} None;
  check_event {|{"ev":"recv","id":1,"span":2}|} None;
  check_event {|[{"ev":"link","id":1,"span":2}]|} None;
  let span text = Obs.Span.of_json (parse text) in
  let check_span text expected =
    Alcotest.(check bool) text true (span text = expected)
  in
  check_span {|{"start":5,"kernel":1,"kind":"import","id":8,"tid":3,"stop":9}|}
    (Some
       {
         Obs.Span.id = 8;
         parent = None;
         kind = Obs.Span.Import;
         kernel = 1;
         tid = Some 3;
         run = 0;
         start = 5;
         stop = 9;
       });
  check_span {|{"id":8,"kind":1,"kind":"import","kernel":1,"start":5}|} None;
  check_span
    {|{"id":8.5,"kind":"x","kernel":1,"start":5,"stop":null,"stop":7,
       "parent":2,"run":3,"why":0}|}
    (Some
       {
         Obs.Span.id = 8;
         parent = Some 2;
         kind = Obs.Span.Custom "x";
         kernel = 1;
         tid = None;
         run = 3;
         start = 5;
         stop = -1;
       });
  check_span {|{"id":8,"kind":"import","start":5}|} None

(* --- critical path of a hand-built 3-kernel migration --- *)

let ispan ?parent ?tid ~sid ~kind ~kernel ~start ~stop () =
  {
    Obs.Span.id = sid;
    parent;
    kind = Obs.Span.kind_of_name kind;
    kernel;
    tid;
    run = 0;
    start;
    stop;
  }

let test_critical_path_known_chain () =
  (* Migration k0 -> k2 with a forwarding hop on k1 (three kernels on the
     causal chain). Known longest chain covers the whole root window. *)
  let root = ispan ~sid:0 ~kind:"migration" ~kernel:0 ~start:0 ~stop:1000 () in
  let spans =
    [
      root;
      ispan ~sid:1 ~parent:0 ~kind:"context_capture" ~kernel:0 ~start:0
        ~stop:200 ();
      ispan ~sid:2 ~parent:0 ~kind:"transfer" ~kernel:0 ~start:200 ~stop:800 ();
      ispan ~sid:3 ~kind:"forward" ~kernel:1 ~start:400 ~stop:450 ();
      ispan ~sid:4 ~kind:"import" ~kernel:2 ~start:550 ~stop:700 ();
      ispan ~sid:5 ~parent:0 ~kind:"resume" ~kernel:2 ~start:800 ~stop:950 ();
      (* An unrelated concurrent span must not appear in the path. *)
      ispan ~sid:6 ~kind:"page_fault" ~kernel:3 ~start:100 ~stop:900 ();
    ]
  in
  let causal =
    [
      Obs.Causal.Send
        { id = 1; run = 0; src = 0; dst = 1; at = 250; bytes = 64;
          from_span = Some 2 };
      Obs.Causal.Deliver { id = 1; run = 0; dst = 1; at = 400 };
      Obs.Causal.Link { id = 1; run = 0; span = 3 };
      Obs.Causal.Send
        { id = 2; run = 0; src = 1; dst = 2; at = 450; bytes = 64;
          from_span = Some 3 };
      Obs.Causal.Deliver { id = 2; run = 0; dst = 2; at = 550 };
      Obs.Causal.Link { id = 2; run = 0; span = 4 };
      Obs.Causal.Send
        { id = 3; run = 0; src = 2; dst = 0; at = 700; bytes = 32;
          from_span = Some 4 };
      Obs.Causal.Deliver { id = 3; run = 0; dst = 0; at = 800 };
    ]
  in
  let ix = Obs.Critpath.build ~spans ~causal in
  let p = Obs.Critpath.critical_path ix ~root in
  Alcotest.(check int) "total is the root duration" 1000 p.Obs.Critpath.total_ns;
  let segs =
    List.map
      (fun (s : Obs.Critpath.seg) ->
        (s.Obs.Critpath.label, s.Obs.Critpath.seg_start, s.Obs.Critpath.seg_stop))
      p.Obs.Critpath.segs
  in
  Alcotest.(check (list (triple string int int)))
    "known longest chain"
    [
      ("context_capture@k0", 0, 200);
      ("transfer@k0", 200, 250);
      ("wire k0->k1", 250, 400);
      ("forward@k1", 400, 450);
      ("wire k1->k2", 450, 550);
      ("import@k2", 550, 700);
      ("wire k2->k0", 700, 800);
      ("resume@k2", 800, 950);
      ("migration@k0", 950, 1000);
    ]
    segs;
  let sum =
    List.fold_left (fun a (_, s, e) -> a + e - s) 0 segs
  in
  Alcotest.(check int) "segments sum exactly to end-to-end latency" 1000 sum

let test_critical_path_of_real_run () =
  (* On a live run, every migration's critical path must partition its
     window exactly (the sum-exact acceptance property). *)
  let sink = Obs.Sink.create () in
  ignore (run_workload ~sink ~seed:42 ());
  let spans = Obs.Span.spans sink.Obs.Sink.spans in
  let causal = Obs.Causal.events sink.Obs.Sink.causal in
  let ix = Obs.Critpath.build ~spans ~causal in
  let roots = Obs.Critpath.roots ix ~kind:"migration" in
  Alcotest.(check int) "two migrations analyzed" 2 (List.length roots);
  List.iter
    (fun root ->
      let p = Obs.Critpath.critical_path ix ~root in
      let sum =
        List.fold_left
          (fun a (s : Obs.Critpath.seg) ->
            a + s.Obs.Critpath.seg_stop - s.Obs.Critpath.seg_start)
          0 p.Obs.Critpath.segs
      in
      Alcotest.(check int) "segments sum to migration latency"
        p.Obs.Critpath.total_ns sum;
      Alcotest.(check bool) "path crosses the wire" true
        (List.exists (fun (s : Obs.Critpath.seg) -> s.Obs.Critpath.on_wire)
           p.Obs.Critpath.segs))
    roots

(* --- one shared index answers every root like a fresh one --- *)

(* One run of a random happens-before DAG: protocol roots with nested
   children, spans that send messages, and for each message one of: lost
   (a Send with no Deliver), delivered, or delivered twice (a duplicate
   Deliver, later than the first). A delivered message may open a
   parentless remote span, reachable only through its Link, which nests
   and sends in turn. About one span in eight is left open. Lengths come
   in ten sizes, so equally slow roots (ties) are common. Span and
   message ids restart per run, as they do per machine boot, so two runs
   collide on every id. *)
let random_run st ~run =
  let int n = Random.State.int st n in
  let spans = ref [] and causal = ref [] in
  let next_sid = ref 0 and next_msg = ref 0 in
  let rec span ?parent ~kind ~start ~depth () =
    let sid = !next_sid in
    incr next_sid;
    let len = 100 * (1 + int 10) in
    let stop = if int 8 = 0 then -1 else start + len in
    let kernel = int 4 in
    spans :=
      { Obs.Span.id = sid; parent; kind; kernel; tid = None; run; start; stop }
      :: !spans;
    if depth < 3 then begin
      for _ = 1 to int 3 do
        span ~parent:sid
          ~kind:(if int 2 = 0 then Obs.Span.Transfer else Obs.Span.Page_fault)
          ~start:(start + int len) ~depth:(depth + 1) ()
      done;
      for _ = 1 to int 3 do
        let id = !next_msg and dst = int 4 and at = start + int len in
        incr next_msg;
        causal :=
          Obs.Causal.Send
            { id; run; src = kernel; dst; at; bytes = 64; from_span = Some sid }
          :: !causal;
        match int 4 with
        | 0 -> ()
        | fate ->
            let d_at = at + int 300 in
            causal := Obs.Causal.Deliver { id; run; dst; at = d_at } :: !causal;
            if fate = 3 then
              causal :=
                Obs.Causal.Deliver { id; run; dst; at = d_at + 1 + int 100 }
                :: !causal;
            if int 2 = 0 then begin
              causal :=
                Obs.Causal.Link { id; run; span = !next_sid } :: !causal;
              span ~kind:Obs.Span.Import ~start:d_at ~depth:(depth + 1) ()
            end
      done
    end
  in
  for _ = 0 to int 4 do
    span
      ~kind:
        (if int 2 = 0 then Obs.Span.Migration
         else Obs.Span.Thread_group_create)
      ~start:(int 5000) ~depth:0 ()
  done;
  (List.rev !spans, List.rev !causal)

let random_dataset seed =
  let st = Random.State.make [| seed |] in
  let runs = [ random_run st ~run:0; random_run st ~run:1 ] in
  (runs, List.concat_map fst runs, List.concat_map snd runs)

(* Every parentless span, remote ones included: the critical path of each,
   read from one index over both runs, equals the path from an index
   built for that root alone (from its run's events only), and its
   segments tile the root's window, so they sum exactly to total_ns. *)
let prop_shared_index =
  QCheck.Test.make ~name:"shared index: every root's path as if alone"
    ~count:200 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let runs, spans, causal = random_dataset seed in
      let shared = Obs.Critpath.build ~spans ~causal in
      List.for_all
        (fun (root : Obs.Span.span) ->
          let run_spans, run_causal = List.nth runs root.Obs.Span.run in
          let alone = Obs.Critpath.build ~spans:run_spans ~causal:run_causal in
          let p = Obs.Critpath.critical_path shared ~root in
          let sum =
            List.fold_left
              (fun a (s : Obs.Critpath.seg) ->
                a + s.Obs.Critpath.seg_stop - s.Obs.Critpath.seg_start)
              0 p.Obs.Critpath.segs
          in
          let rec tiles at = function
            | [] -> at = root.Obs.Span.start + p.Obs.Critpath.total_ns
            | (s : Obs.Critpath.seg) :: rest ->
                s.Obs.Critpath.seg_start = at
                && s.Obs.Critpath.seg_stop > at
                && tiles s.Obs.Critpath.seg_stop rest
          in
          p = Obs.Critpath.critical_path alone ~root
          && sum = p.Obs.Critpath.total_ns
          && tiles root.Obs.Span.start p.Obs.Critpath.segs
          && p.Obs.Critpath.total_ns = Obs.Critpath.duration shared root)
        (List.filter (fun (s : Obs.Span.span) -> s.Obs.Span.parent = None) spans))

(* The SLO summary ranks roots by Critpath.duration and computes one path
   per kind; analyze prints that path via Slo.worst_path. Both must agree
   with the reference: compute every root's critical path, rank by
   total_ns, take the first strict maximum. *)
let prop_worst_path =
  QCheck.Test.make ~name:"Slo.worst_path is the first slowest root's path"
    ~count:200 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let _, spans, causal = random_dataset seed in
      let ix = Obs.Critpath.build ~spans ~causal in
      let slo = Obs.Slo.summarize ix in
      List.for_all
        (fun kind ->
          let paths =
            List.map
              (fun root -> Obs.Critpath.critical_path ix ~root)
              (Obs.Critpath.roots ix ~kind)
          in
          match
            ( paths,
              List.find_opt
                (fun (ks : Obs.Slo.kind_summary) -> ks.Obs.Slo.ks_kind = kind)
                slo.Obs.Slo.kinds )
          with
          | [], None -> true
          | first :: _, Some ks ->
              let slowest =
                List.fold_left
                  (fun (best : Obs.Critpath.path) (p : Obs.Critpath.path) ->
                    if p.Obs.Critpath.total_ns > best.Obs.Critpath.total_ns
                    then p
                    else best)
                  first paths
              in
              let total =
                List.fold_left
                  (fun a (p : Obs.Critpath.path) -> a + p.Obs.Critpath.total_ns)
                  0 paths
              in
              Obs.Slo.worst_path ix ks = Some slowest
              && ks.Obs.Slo.ks_roots = List.length paths
              && ks.Obs.Slo.ks_mean_ns = total / List.length paths
              && ks.Obs.Slo.ks_worst_ns = slowest.Obs.Critpath.total_ns
          | _ -> false)
        Obs.Slo.kinds_analyzed)

(* The index keys (run, id) as a pair of ints, so any ints work. Runs at
   both ends of the int range and negative or very large ids (where
   packing the pair as [run lsl 32 + id] would make run 0's span 3 collide
   with run 1's span 4) give the same self times and critical paths as the
   same data with small ids. The maps keep the order of ids, which breaks
   ties between segments. *)
let test_critical_path_any_ids () =
  let _, spans, causal = random_dataset 7 in
  let run r = if r = 0 then min_int else max_int in
  let id i = (i - 3) lsl 32 in
  let msg m = (m - 5) lsl 40 in
  let remap (s : Obs.Span.span) =
    {
      s with
      Obs.Span.id = id s.Obs.Span.id;
      run = run s.Obs.Span.run;
      parent = Option.map id s.Obs.Span.parent;
    }
  in
  let remap_event : Obs.Causal.event -> Obs.Causal.event = function
    | Send e ->
        Send
          {
            e with
            id = msg e.id;
            run = run e.run;
            from_span = Option.map id e.from_span;
          }
    | Deliver e -> Deliver { e with id = msg e.id; run = run e.run }
    | Link e -> Link { id = msg e.id; run = run e.run; span = id e.span }
  in
  let small = Obs.Critpath.build ~spans ~causal in
  let large =
    Obs.Critpath.build ~spans:(List.map remap spans)
      ~causal:(List.map remap_event causal)
  in
  Alcotest.(check (list (pair string int))) "self times"
    (Obs.Critpath.self_times small) (Obs.Critpath.self_times large);
  List.iter
    (fun (root : Obs.Span.span) ->
      if root.Obs.Span.parent = None then begin
        let a = Obs.Critpath.critical_path small ~root
        and b = Obs.Critpath.critical_path large ~root:(remap root) in
        Alcotest.(check int) "total" a.Obs.Critpath.total_ns
          b.Obs.Critpath.total_ns;
        Alcotest.(check bool) "segments" true
          (a.Obs.Critpath.segs = b.Obs.Critpath.segs)
      end)
    spans

(* --- analyze / diff documents --- *)

let doc_with_hist ~mean ~failed =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str "popcornsim-bench-v2");
      ( "experiments",
        Obs.Json.Arr
          [
            Obs.Json.Obj
              [
                ("id", Obs.Json.Str "T1");
                ( "metrics",
                  Obs.Json.Obj
                    [
                      ( "counters",
                        Obs.Json.Arr
                          [
                            Obs.Json.Obj
                              [
                                ("name", Obs.Json.Str "migration.failed");
                                ("kernel", Obs.Json.Null);
                                ("value", Obs.Json.Int failed);
                              ];
                          ] );
                      ("gauges", Obs.Json.Arr []);
                      ( "histograms",
                        Obs.Json.Arr
                          [
                            Obs.Json.Obj
                              [
                                ("name", Obs.Json.Str "migration.total_ns");
                                ("kernel", Obs.Json.Int 0);
                                ("count", Obs.Json.Int 4);
                                ("mean", Obs.Json.Float mean);
                                ("p50", Obs.Json.Float mean);
                                ("p99", Obs.Json.Float 20000.);
                                ("max", Obs.Json.Float 20000.);
                              ];
                          ] );
                    ] );
              ];
          ] );
    ]

let test_diff_flags_regression () =
  let old_doc = doc_with_hist ~mean:10000. ~failed:0 in
  let regressed = doc_with_hist ~mean:15000. ~failed:0 in
  let report, n = Obs.Report.diff ~fail_pct:10. ~old_doc ~new_doc:regressed () in
  Alcotest.(check int) "+50%% mean is a regression" 1 n;
  Alcotest.(check bool) "report names the metric" true
    (contains ~sub:"migration.total_ns.mean" report)

let test_diff_passes_unchanged () =
  let doc = doc_with_hist ~mean:10000. ~failed:0 in
  let _, n = Obs.Report.diff ~fail_pct:10. ~old_doc:doc ~new_doc:doc () in
  Alcotest.(check int) "identical docs: no regressions" 0 n

let test_diff_flags_failure_counter () =
  let old_doc = doc_with_hist ~mean:10000. ~failed:0 in
  let new_doc = doc_with_hist ~mean:10000. ~failed:2 in
  let _, n = Obs.Report.diff ~fail_pct:10. ~old_doc ~new_doc () in
  Alcotest.(check int) "failure-counter increase is a regression" 1 n

let test_analyze_real_doc () =
  (* End-to-end through the v2 results schema: serialize, reparse, analyze. *)
  let sink = Obs.Sink.create () in
  ignore (run_workload ~sink ~seed:42 ());
  let doc =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.Str "popcornsim-bench-v2");
        ( "experiments",
          Obs.Json.Arr
            [
              Obs.Json.Obj
                [
                  ("id", Obs.Json.Str "W");
                  ("spans", spans_json sink);
                  ("causal", Obs.Causal.to_json sink.Obs.Sink.causal);
                ];
            ] );
      ]
  in
  let reparsed =
    match Obs.Json.of_string (Obs.Json.to_string doc) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  match Obs.Report.analyze_doc reparsed with
  | Ok report ->
      Alcotest.(check bool) "report has a critical path" true
        (contains ~sub:"critical path of slowest migration"
           report);
      Alcotest.(check bool) "sum is exact" true
        (contains ~sub:"sum exact" report)
  | Error e -> Alcotest.fail e

let test_analyze_tolerates_truncation () =
  (* Malformed span / causal entries (as from a truncated or hand-edited
     stream) are skipped; the analyzer still reports on what's left. *)
  let doc =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.Str "popcornsim-bench-v2");
        ( "experiments",
          Obs.Json.Arr
            [
              Obs.Json.Obj
                [
                  ("id", Obs.Json.Str "X");
                  ( "spans",
                    Obs.Json.Arr
                      [
                        Obs.Json.Obj
                          [
                            ("id", Obs.Json.Int 0);
                            ("kind", Obs.Json.Str "migration");
                            ("kernel", Obs.Json.Int 0);
                            ("run", Obs.Json.Int 0);
                            ("start", Obs.Json.Int 0);
                            ("stop", Obs.Json.Int (-1));
                            (* left open: clamped to end of run *)
                          ];
                        Obs.Json.Obj [ ("id", Obs.Json.Int 1) ];
                        (* truncated entry: skipped *)
                        Obs.Json.Str "garbage";
                      ] );
                  ( "causal",
                    Obs.Json.Arr
                      [
                        Obs.Json.Obj
                          [
                            ("ev", Obs.Json.Str "send");
                            ("id", Obs.Json.Int 9);
                            ("run", Obs.Json.Int 0);
                            ("src", Obs.Json.Int 0);
                            ("dst", Obs.Json.Int 1);
                            ("at", Obs.Json.Int 500);
                            ("bytes", Obs.Json.Int 8);
                            ("from_span", Obs.Json.Int 0);
                          ];
                        (* send with no deliver: a lost message *)
                        Obs.Json.Obj [ ("ev", Obs.Json.Str "deliver") ];
                        Obs.Json.Null;
                      ] );
                ];
            ] );
      ]
  in
  match Obs.Report.analyze_doc doc with
  | Ok report ->
      Alcotest.(check bool) "surviving span analyzed" true
        (contains ~sub:"spans: 1 (1 unclosed)" report);
      Alcotest.(check bool) "lost message surfaced" true
        (contains ~sub:"1 sent, 0 delivered, 1 lost" report)
  | Error e -> Alcotest.fail e

(* --- JSON parser --- *)

let test_json_parser_roundtrip () =
  let doc =
    Obs.Json.Obj
      [
        ("i", Obs.Json.Int 42);
        ("neg", Obs.Json.Int (-7));
        ("f", Obs.Json.Float 2.5);
        ("s", Obs.Json.Str "a\"b\\c\nd\tunicode \xe2\x9c\x93");
        ("null", Obs.Json.Null);
        ("t", Obs.Json.Bool true);
        ( "arr",
          Obs.Json.Arr
            [ Obs.Json.Int 1; Obs.Json.Obj [ ("k", Obs.Json.Str "v") ] ] );
        ("empty_obj", Obs.Json.Obj []);
        ("empty_arr", Obs.Json.Arr []);
      ]
  in
  match Obs.Json.of_string (Obs.Json.to_string doc) with
  | Ok parsed ->
      Alcotest.(check string) "roundtrip identical"
        (Obs.Json.to_string doc)
        (Obs.Json.to_string parsed)
  | Error e -> Alcotest.fail e

let test_json_parser_rejects_garbage () =
  let bad s =
    match Obs.Json.of_string s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "truncated object" true (bad {|{"a": [1, 2|});
  Alcotest.(check bool) "trailing garbage" true (bad {|{"a": 1} extra|});
  Alcotest.(check bool) "bare word" true (bad "flase");
  Alcotest.(check bool) "empty input" true (bad "");
  Alcotest.(check bool) "unterminated string" true (bad {|"abc|});
  match Obs.Json.of_string {| {"u": "é😀", "n": -0.5e2} |} with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid escapes rejected: %s" e

(* Malformed-input edges beyond plain garbage: truncation inside every
   construct, broken escapes, and duplicate keys (which must parse — the
   JSON spec allows them — with first-key-wins access, never a crash). *)
let test_json_malformed_edges () =
  let bad s =
    match Obs.Json.of_string s with Ok _ -> false | Error _ -> true
  in
  (* Truncated objects, in every spot a token can end. *)
  Alcotest.(check bool) "cut after brace" true (bad {|{|});
  Alcotest.(check bool) "cut after key" true (bad {|{"a"|});
  Alcotest.(check bool) "cut after colon" true (bad {|{"a":|});
  Alcotest.(check bool) "cut after comma" true (bad {|{"a": 1,|});
  Alcotest.(check bool) "cut mid-nested" true (bad {|{"a": {"b": [{|});
  Alcotest.(check bool) "comma without pair" true (bad {|{"a": 1,}|});
  (* Broken string escapes. *)
  Alcotest.(check bool) "unknown escape" true (bad {|{"a": "\x"}|});
  Alcotest.(check bool) "truncated \\u" true (bad {|{"a": "\u12"}|});
  Alcotest.(check bool) "non-hex \\u" true (bad {|{"a": "\uzzzz"}|});
  Alcotest.(check bool) "lone backslash at end" true (bad {|{"a": "\|});
  (* Valid escapes still parse. *)
  (match Obs.Json.of_string {|{"a": "\n\t\\\"A"}|} with
  | Ok (Obs.Json.Obj [ ("a", Obs.Json.Str s) ]) ->
      Alcotest.(check string) "escapes decoded" "\n\t\\\"A" s
  | Ok _ -> Alcotest.fail "unexpected shape"
  | Error e -> Alcotest.failf "valid escapes rejected: %s" e);
  (* Duplicate keys: parse succeeds, both pairs survive in order, and
     List.assoc-based access (what every of_json in the tree uses) sees
     the first — so a malicious/buggy producer cannot shadow a value. *)
  match Obs.Json.of_string {|{"k": 1, "k": 2}|} with
  | Ok (Obs.Json.Obj fields as j) ->
      Alcotest.(check int) "both pairs kept" 2 (List.length fields);
      (match List.assoc_opt "k" fields with
      | Some (Obs.Json.Int v) -> Alcotest.(check int) "first key wins" 1 v
      | _ -> Alcotest.fail "assoc lost the key");
      Alcotest.(check string) "reserialises both, in order"
        {|{"k":1,"k":2}|}
        (Obs.Json.to_string j)
  | Ok _ -> Alcotest.fail "duplicate keys parsed to a non-object"
  | Error e -> Alcotest.failf "duplicate keys rejected: %s" e

(* Writing, parsing and writing again reproduces the first text, for
   documents whose strings (values and keys) hold quotes, backslashes,
   every control byte and multi-byte UTF-8 — the bytes the parser's
   escape-free fast path must hand over to its escape decoder. Floats are
   quarters, which [%.12g] prints exactly. *)
let prop_json_roundtrip =
  let open QCheck.Gen in
  let piece =
    frequency
      [
        (4, map (String.make 1) (char_range 'a' 'z'));
        (2, map (String.make 1) (oneofl [ '"'; '\\'; '/'; '\127' ]));
        (2, map (fun c -> String.make 1 (Char.chr c)) (int_bound 0x1f));
        (1, oneofl [ "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9d\x84\x9e" ]);
      ]
  in
  let str = map (String.concat "") (list_size (int_bound 12) piece) in
  let leaf =
    frequency
      [
        (1, return Obs.Json.Null);
        (1, map (fun b -> Obs.Json.Bool b) bool);
        (2, map (fun i -> Obs.Json.Int i) (oneof [ small_signed_int; int ]));
        ( 2,
          map
            (fun k -> Obs.Json.Float (float_of_int k /. 4.))
            (int_range (-1_000_000) 1_000_000) );
        (4, map (fun s -> Obs.Json.Str s) str);
      ]
  in
  let doc =
    sized
    @@ fix (fun self n ->
           if n <= 1 then leaf
           else
             frequency
               [
                 (1, leaf);
                 ( 2,
                   map
                     (fun l -> Obs.Json.Arr l)
                     (list_size (int_bound 4) (self (n / 4))) );
                 ( 2,
                   map
                     (fun l -> Obs.Json.Obj l)
                     (list_size (int_bound 4) (pair str (self (n / 4)))) );
               ])
  in
  QCheck.Test.make ~name:"json write/parse/write round-trips" ~count:500
    (QCheck.make ~print:Obs.Json.to_string doc)
    (fun j ->
      let s = Obs.Json.to_string j in
      match Obs.Json.of_string s with
      | Ok j' -> Obs.Json.to_string j' = s
      | Error e -> QCheck.Test.fail_reportf "%s: %s" e s)

let json =
  Alcotest.testable
    (fun ppf j -> Format.pp_print_string ppf (Obs.Json.to_string j))
    ( = )

(* A [\u] escape takes exactly four hex digits, and a high surrogate
   combines only with a low one; otherwise each escape is encoded on its
   own, a lone surrogate as three bytes. *)
let test_json_unicode_escapes () =
  let check text expected =
    Alcotest.(check (result json string))
      text expected (Obs.Json.of_string text)
  in
  check {|"\u1_23"|} (Error "bad \\u escape at byte 3");
  check {|"\uzzzz"|} (Error "bad \\u escape at byte 3");
  check {|"\uD800\u0041"|} (Ok (Obs.Json.Str "\xed\xa0\x80A"));
  check {|"\uDBFF\uDBFF"|} (Ok (Obs.Json.Str "\xed\xaf\xbf\xed\xaf\xbf"));
  check {|"\uD834\uDD1E"|} (Ok (Obs.Json.Str "\xf0\x9d\x84\x9e"))

(* Numbers and errors exactly as the general number path has always read
   them, around the in-place int path: its edges, overflow to Float at
   both ends, and the offsets of errors. *)
let test_json_literals () =
  let check text expected =
    Alcotest.(check (result json string))
      text expected (Obs.Json.of_string text)
  in
  check "-" (Error "bad number - at byte 1");
  check "1-2" (Error "bad number 1-2 at byte 3");
  check "007" (Ok (Obs.Json.Int 7));
  check "-0" (Ok (Obs.Json.Int 0));
  check "1e5" (Ok (Obs.Json.Float 1e5));
  check "1.0" (Ok (Obs.Json.Float 1.0));
  check "[12a]" (Error "expected ',' or ']' at byte 3");
  check "4611686018427387903" (Ok (Obs.Json.Int max_int));
  check "4611686018427387904" (Ok (Obs.Json.Float 4611686018427387904.));
  check "-4611686018427387904" (Ok (Obs.Json.Int min_int));
  check "-4611686018427387905" (Ok (Obs.Json.Float (-4611686018427387905.)));
  check "tru" (Error "expected true at byte 0");
  check "[1,]" (Error "unexpected ']' at byte 3");
  check {|{"a" 1}|} (Error "expected ':' at byte 5");
  (* More distinct keys than the parser's shared-key slots, twice over. *)
  let keys =
    List.init 600 (fun i -> (Printf.sprintf "k%d" i, Obs.Json.Int i))
  in
  let doc = Obs.Json.Arr [ Obs.Json.Obj keys; Obs.Json.Obj (List.rev keys) ] in
  check (Obs.Json.to_string doc) (Ok doc)

(* R4's whole results document (quick size, seed 42) reads back and
   writes out to the same bytes. *)
let test_json_r4_document () =
  let o =
    Experiments.Registry.run_one ~quick:true ~observe:true ~seed:42
      (Option.get (Experiments.Registry.find "R4"))
  in
  let text =
    Obs.Json.to_string (Experiments.Registry.report_json ~quick:true [ o ])
  in
  match Obs.Json.of_string text with
  | Ok doc ->
      Alcotest.(check bool) "byte for byte" true (Obs.Json.to_string doc = text)
  | Error e -> Alcotest.fail e

(* Parsing what the writer wrote gives back the value itself: ints at both
   ends of the range, floats that are not integers (an integral float is
   written as an int), strings and keys with every escape, duplicate keys
   and nesting. *)
let prop_json_value_roundtrip =
  let open QCheck.Gen in
  let piece =
    frequency
      [
        (4, map (String.make 1) (char_range 'a' 'd'));
        (2, map (String.make 1) (oneofl [ '"'; '\\'; '/'; '\127' ]));
        (1, map (fun c -> String.make 1 (Char.chr c)) (int_bound 0x1f));
        (1, oneofl [ "\xc3\xa9"; "\xf0\x9d\x84\x9e" ]);
      ]
  in
  let str = map (String.concat "") (list_size (int_bound 4) piece) in
  let leaf =
    frequency
      [
        (1, return Obs.Json.Null);
        (1, map (fun b -> Obs.Json.Bool b) bool);
        ( 3,
          map
            (fun i -> Obs.Json.Int i)
            (oneof
               [ oneofl [ min_int; max_int; 0; -1 ]; small_signed_int; int ])
        );
        ( 2,
          map
            (fun k -> Obs.Json.Float (float_of_int ((2 * k) + 1) /. 4.))
            (int_range (-1_000_000) 1_000_000) );
        (3, map (fun s -> Obs.Json.Str s) str);
      ]
  in
  let doc =
    sized
    @@ fix (fun self n ->
           if n <= 1 then leaf
           else
             frequency
               [
                 (1, leaf);
                 ( 2,
                   map
                     (fun l -> Obs.Json.Arr l)
                     (list_size (int_bound 4) (self (n / 4))) );
                 ( 2,
                   map
                     (fun l -> Obs.Json.Obj l)
                     (list_size (int_bound 6) (pair str (self (n / 4)))) );
               ])
  in
  QCheck.Test.make ~name:"json parse of write is the identity" ~count:500
    (QCheck.make ~print:Obs.Json.to_string doc)
    (fun j -> Obs.Json.of_string (Obs.Json.to_string j) = Ok j)

(* --- trace ring retained counter --- *)

let test_trace_retained_o1 () =
  let tr = Sim.Trace.create ~capacity:4 () in
  for i = 1 to 10 do
    Sim.Trace.emit tr ~at:i ~cat:"c" "e"
  done;
  Alcotest.(check int) "retained is capacity-bounded" 4 (Sim.Trace.count tr);
  Alcotest.(check int) "total counts evictions" 10 (Sim.Trace.total tr);
  Alcotest.(check int) "dropped = total - retained" 6
    (Sim.Trace.total tr - Sim.Trace.count tr);
  Sim.Trace.clear tr;
  Alcotest.(check int) "clear resets retained" 0 (Sim.Trace.count tr);
  Sim.Trace.emit tr ~at:1 ~cat:"c" "e";
  Alcotest.(check int) "counts again after clear" 1 (Sim.Trace.count tr)

(* --- unclosed spans clamp in analysis, not at export --- *)

let test_export_clamps_unclosed () =
  let sink = Obs.Sink.create () in
  let rec_ = sink.Obs.Sink.spans in
  Obs.Span.new_run rec_;
  let open_span = Obs.Span.start rec_ ~kernel:0 ~at:100 Obs.Span.Migration in
  let closed = Obs.Span.start rec_ ~kernel:1 ~at:200 Obs.Span.Import in
  Obs.Span.finish closed ~at:800;
  ignore open_span;
  let doc = Obs.Export.chrome_trace [ sink ] in
  match Obs.Report.datasets_of_doc doc with
  | [ d ] -> (
      match
        List.find_opt
          (fun (s : Obs.Span.span) -> s.Obs.Span.kind = Obs.Span.Migration)
          d.Obs.Report.spans
      with
      | Some s ->
          Alcotest.(check int) "still open in the trace" (-1) s.Obs.Span.stop;
          let ix =
            Obs.Critpath.build ~spans:d.Obs.Report.spans
              ~causal:d.Obs.Report.causal
          in
          Alcotest.(check int) "clamped to end of run" 700
            (Obs.Critpath.duration ix s)
      | None -> Alcotest.fail "migration span missing from export")
  | ds -> Alcotest.failf "expected one dataset, got %d" (List.length ds)

(* --- one Chrome trace of several sinks analyzes like the sinks --- *)

(* Two sinks, each one boot (run 0) with span and message ids from 0, so
   their keys collide unless the export gives each its own run range. *)
let test_merged_trace () =
  let record compute_us =
    let sink = Obs.Sink.create () in
    ignore (run_workload ~compute_us ~sink ~seed:42 ());
    sink
  in
  let sinks = [ record 20; record 35 ] in
  let index (spans, causal) = Obs.Critpath.build ~spans ~causal in
  let own =
    List.map
      (fun (s : Obs.Sink.t) ->
        index
          (Obs.Span.spans s.Obs.Sink.spans, Obs.Causal.events s.Obs.Sink.causal))
      sinks
  in
  let merged =
    match Obs.Report.datasets_of_doc (Obs.Export.chrome_trace sinks) with
    | [ d ] -> index (d.Obs.Report.spans, d.Obs.Report.causal)
    | ds -> Alcotest.failf "expected one dataset, got %d" (List.length ds)
  in
  let summed =
    List.concat_map Obs.Critpath.self_times own
    |> List.fold_left
         (fun acc (name, ns) ->
           let prev = Option.value (List.assoc_opt name acc) ~default:0 in
           (name, prev + ns) :: List.remove_assoc name acc)
         []
    |> List.sort compare
  in
  Alcotest.(check (list (pair string int)))
    "self time is the sum over sinks" summed
    (List.sort compare (Obs.Critpath.self_times merged));
  let paths ix =
    List.map
      (fun root ->
        let p = Obs.Critpath.critical_path ix ~root in
        (p.Obs.Critpath.total_ns, p.Obs.Critpath.segs))
      (Obs.Critpath.roots ix ~kind:"migration")
  in
  let merged_paths = paths merged in
  Alcotest.(check int) "every root survives the merge" 4
    (List.length merged_paths);
  Alcotest.(check bool) "each root's path is its own sink's" true
    (merged_paths = List.concat_map paths own)

(* --- every trace track is named once --- *)

(* A sink with spans, messages, links and ring events, and one with
   messages but no spans: every pid an event uses has exactly one
   process_name, and the instants (ring entries and link records) sit on a
   track no span or message uses. *)
let test_trace_tracks () =
  let with_spans = Obs.Sink.create () in
  ignore (run_workload ~sink:with_spans ~seed:42 ());
  let messages_only = Obs.Sink.create () in
  let c = messages_only.Obs.Sink.causal in
  Obs.Causal.new_run c;
  Obs.Causal.emit_send c ~id:0 ~src:2 ~dst:3 ~at:100 ~bytes:64 ~from_span:None;
  Obs.Causal.emit_deliver c ~id:0 ~dst:3 ~at:400;
  let events =
    Obs.Json.arr_field "traceEvents"
      (Obs.Export.chrome_trace [ with_spans; messages_only ])
  in
  let str = Obs.Json.str_field in
  let pid e = Option.get (Obs.Json.int_field "pid" e) in
  let pids l = List.sort_uniq compare (List.map pid l) in
  let meta, used = List.partition (fun e -> str "ph" e = Some "M") events in
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "pid %d named once" p)
        1
        (List.length
           (List.filter
              (fun e -> pid e = p && str "name" e = Some "process_name")
              meta)))
    (pids used);
  let instants, on_kernels =
    List.partition (fun e -> str "ph" e = Some "i") used
  in
  Alcotest.(check bool) "ring entries and links exported" true
    (List.exists (fun e -> str "name" e = Some "link") instants
    && List.exists (fun e -> str "cat" e <> Some "causal") instants);
  Alcotest.(check (list int)) "instants share no kernel track" []
    (List.filter (fun p -> List.mem p (pids on_kernels)) (pids instants))

let () =
  Alcotest.run "causal"
    [
      ( "causal-log",
        [
          Alcotest.test_case "happens-before shape" `Quick test_causal_dag_shape;
          Alcotest.test_case "deterministic across runs" `Quick
            test_causal_deterministic;
          Alcotest.test_case "json roundtrip" `Quick test_causal_json_roundtrip;
          Alcotest.test_case "decoders' tolerance rules" `Quick
            test_decoder_tolerance;
        ] );
      ( "critical-path",
        [
          Alcotest.test_case "hand-built 3-kernel chain" `Quick
            test_critical_path_known_chain;
          Alcotest.test_case "real run sums exactly" `Quick
            test_critical_path_of_real_run;
          Alcotest.test_case "ids anywhere in the int range" `Quick
            test_critical_path_any_ids;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_shared_index; prop_worst_path ] );
      ( "analyze",
        [
          Alcotest.test_case "v2 results document" `Quick test_analyze_real_doc;
          Alcotest.test_case "tolerates truncation" `Quick
            test_analyze_tolerates_truncation;
        ] );
      ( "diff",
        [
          Alcotest.test_case "flags +50%% regression" `Quick
            test_diff_flags_regression;
          Alcotest.test_case "passes unchanged run" `Quick
            test_diff_passes_unchanged;
          Alcotest.test_case "flags failure counter" `Quick
            test_diff_flags_failure_counter;
        ] );
      ( "json-parser",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_parser_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick
            test_json_parser_rejects_garbage;
          Alcotest.test_case "malformed edges" `Quick test_json_malformed_edges;
          Alcotest.test_case "\\u escapes" `Quick test_json_unicode_escapes;
          Alcotest.test_case "numbers, errors and key slots" `Quick
            test_json_literals;
          Alcotest.test_case "R4 document byte for byte" `Quick
            test_json_r4_document;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_json_roundtrip; prop_json_value_roundtrip ] );
      ( "satellites",
        [
          Alcotest.test_case "trace retained O(1)" `Quick test_trace_retained_o1;
          Alcotest.test_case "export clamps unclosed spans" `Quick
            test_export_clamps_unclosed;
          Alcotest.test_case "merged trace analyzes like its sinks" `Quick
            test_merged_trace;
          Alcotest.test_case "every trace track named once" `Quick
            test_trace_tracks;
        ] );
    ]
