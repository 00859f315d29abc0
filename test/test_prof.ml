(* Profiling inertness — the contract that makes `popcornsim profile`
   safe to reach for: the observer only reads host clocks, GC counters and
   engine introspection, so simulated results are bit-identical with
   profiling on or off, serial or parallel. Plus attribution sanity: every
   processed event is attributed to exactly one label. *)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  n = 0 || at 0

let run ?observe ?profile id =
  Experiments.Registry.run_one ~quick:true ?observe ?profile
    (Option.get (Experiments.Registry.find id))

(* T1 exercises migration + messaging; R3 exercises coherence across
   protocols. Between them most event kinds in the simulator fire. *)
let test_profile_inert () =
  List.iter
    (fun id ->
      let off = run id in
      let on = run ~profile:true id in
      Alcotest.(check string)
        (id ^ ": tables identical with profiling on")
        off.Experiments.Registry.output on.Experiments.Registry.output;
      Alcotest.(check int)
        (id ^ ": same event count")
        off.Experiments.Registry.events_processed
        on.Experiments.Registry.events_processed)
    [ "T1"; "R3" ]

(* Profiling composed with the metrics/spans sink: the exported metrics
   JSON (what the CI baseline digests) must not move either. *)
let test_profile_inert_observed () =
  let metrics_json (o : Experiments.Registry.outcome) =
    match o.sink with
    | Some s -> Obs.Json.to_string (Obs.Metrics.to_json s.Obs.Sink.metrics)
    | None -> Alcotest.fail "observed run is missing its sink"
  in
  let off = run ~observe:true "T2" in
  let on = run ~observe:true ~profile:true "T2" in
  Alcotest.(check string) "T2: metrics JSON identical with profiling on"
    (metrics_json off) (metrics_json on)

let test_attribution () =
  let o = run ~profile:true "T2" in
  let p =
    match o.Experiments.Registry.prof with
    | Some p -> p
    | None -> Alcotest.fail "profiled run is missing its profiler"
  in
  (* Every event the engines processed was attributed to exactly one
     label: the observer's count and the engines' counters agree, and the
     per-row self-times sum to the attributed total. *)
  Alcotest.(check int) "observer saw every event"
    o.Experiments.Registry.events_processed
    (Obs.Prof.total_events p);
  let rows = Obs.Prof.rows p in
  Alcotest.(check bool) "has labels" true (rows <> []);
  Alcotest.(check int) "rows sum to attributed total"
    (Obs.Prof.attributed_ns p)
    (List.fold_left (fun acc (r : Obs.Prof.row) -> acc + r.self_ns) 0 rows);
  Alcotest.(check int) "row event counts sum to total"
    (Obs.Prof.total_events p)
    (List.fold_left (fun acc (r : Obs.Prof.row) -> acc + r.events) 0 rows);
  List.iter
    (fun (r : Obs.Prof.row) ->
      if contains ~affix:"-" r.name && String.length r.name > 0 then
        (* A label names a kind of fiber, never an instance. *)
        String.iter
          (fun c ->
            if c >= '0' && c <= '9' then
              Alcotest.failf "per-instance label %S" r.name)
          r.name)
    rows;
  Alcotest.(check bool) "scheduler time non-negative" true
    (Obs.Prof.sched_ns p >= 0);
  Alcotest.(check bool) "took samples" true (Obs.Prof.samples p <> []);
  let report = Obs.Prof.report p ~host_ms:o.Experiments.Registry.host_ms ~top:5 in
  Alcotest.(check bool) "report balances to total" true
    (contains ~affix:"= total host time" report);
  let folded = Obs.Prof.folded p in
  Alcotest.(check bool) "folded includes dispatch" true
    (contains ~affix:"popcornsim;sim;[dispatch] " folded);
  let json =
    Obs.Json.to_string (Obs.Prof.to_json p ~host_ms:o.Experiments.Registry.host_ms)
  in
  Alcotest.(check bool) "json schema tagged" true
    (contains ~affix:"popcornsim-profile-v1" json)

(* The parallel suite stays bit-identical with profiling on: each run_one
   owns its profiler, so domains share nothing. Across the whole suite no
   profile row names a fiber instance: a digit in a label name means some
   spawn site formats a tid, request or node number into it, and its
   engine keeps one label per instance until the run ends. *)
let test_jobs_profiled () =
  let suite jobs =
    Experiments.Registry.run_all ~quick:true ~profile:true ~jobs ()
  in
  let serial = suite 1 and parallel = suite 4 in
  List.iter2
    (fun (a : Experiments.Registry.outcome)
         (b : Experiments.Registry.outcome) ->
      let id = a.spec.Experiments.Registry.id in
      Alcotest.(check string) (id ^ ": identical under jobs=4") a.output
        b.output;
      List.iter
        (fun (r : Obs.Prof.row) ->
          if String.exists (fun c -> c >= '0' && c <= '9') r.name then
            Alcotest.failf "%s: label %S names an instance" id r.name)
        (Obs.Prof.rows (Option.get a.prof)))
    serial parallel

let () =
  Alcotest.run "prof"
    [
      ( "inertness",
        [
          Alcotest.test_case "profiling off == on (tables)" `Slow
            test_profile_inert;
          Alcotest.test_case "profiling composes with sink (metrics)" `Slow
            test_profile_inert_observed;
          Alcotest.test_case "jobs=4 == jobs=1 with profiling on" `Slow
            test_jobs_profiled;
        ] );
      ( "attribution",
        [ Alcotest.test_case "accounts for every event" `Slow test_attribution ]
      );
    ]
