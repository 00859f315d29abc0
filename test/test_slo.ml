(* Tests for the deadline/SLO layer: Obs.Slo summaries (worst case from
   the critical-path DAG, phase budgets, JSON round-trip), the deadline
   accounting threaded through Migration/Placement, the diff gate on
   slo.* metrics, and the R4 registry entry's determinism. *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- Slo.summarize over hand-built spans --- *)

let mig ~sid ~start ~stop =
  {
    Obs.Span.id = sid;
    parent = None;
    kind = Obs.Span.Migration;
    kernel = 0;
    tid = Some 1;
    run = 0;
    start;
    stop;
  }

let test_summarize_picks_worst () =
  let spans =
    [
      mig ~sid:1 ~start:0 ~stop:1000;
      mig ~sid:2 ~start:2000 ~stop:5500;
      mig ~sid:3 ~start:6000 ~stop:6100;
    ]
  in
  let t = Obs.Slo.summarize (Obs.Critpath.build ~spans ~causal:[]) in
  match t.Obs.Slo.kinds with
  | [ ks ] ->
      Alcotest.(check string) "kind" "migration" ks.Obs.Slo.ks_kind;
      Alcotest.(check int) "roots" 3 ks.Obs.Slo.ks_roots;
      Alcotest.(check int) "worst is the exact max" 3500 ks.Obs.Slo.ks_worst_ns;
      Alcotest.(check int) "worst sid" 2 ks.Obs.Slo.ks_worst_sid;
      Alcotest.(check int) "mean" ((1000 + 3500 + 100) / 3)
        ks.Obs.Slo.ks_mean_ns;
      (* 3 samples: the exact nearest-rank p99 is the max. *)
      Alcotest.(check int) "p99 (exact, small n)" 3500 ks.Obs.Slo.ks_p99_ns;
      (* The phase partition covers the whole worst path. *)
      let phase_sum =
        List.fold_left (fun a p -> a + p.Obs.Slo.ph_ns) 0 ks.Obs.Slo.ks_phases
      in
      Alcotest.(check int) "phases sum to worst" 3500 phase_sum
  | ks -> Alcotest.failf "expected one kind, got %d" (List.length ks)

let test_summarize_empty () =
  let t = Obs.Slo.summarize (Obs.Critpath.build ~spans:[] ~causal:[]) in
  Alcotest.(check int) "no kinds" 0 (List.length t.Obs.Slo.kinds)

let test_json_roundtrip () =
  let spans = [ mig ~sid:1 ~start:0 ~stop:1000; mig ~sid:2 ~start:0 ~stop:900 ] in
  let counters =
    { Obs.Slo.met = 5; violations = 2; dispatch_met = 7; dispatch_violations = 1 }
  in
  let t = Obs.Slo.summarize ~counters (Obs.Critpath.build ~spans ~causal:[]) in
  match Obs.Slo.of_json (Obs.Slo.to_json t) with
  | Some t' ->
      Alcotest.(check bool) "round-trip exact" true (t = t');
      (* And through the actual parser. *)
      let s = Obs.Json.to_string (Obs.Slo.to_json t) in
      let reparsed =
        match Obs.Json.of_string s with
        | Ok j -> Obs.Slo.of_json j
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check bool) "string round-trip exact" true (Some t = reparsed)
  | None -> Alcotest.fail "of_json rejected to_json output"

let test_record_gauges () =
  let m = Obs.Metrics.create () in
  let spans = [ mig ~sid:1 ~start:0 ~stop:1234 ] in
  let t = Obs.Slo.summarize (Obs.Critpath.build ~spans ~causal:[]) in
  Obs.Slo.record t m;
  Alcotest.(check (float 0.0)) "worst gauge" 1234.
    (Obs.Metrics.gauge m "slo.migration.worst_case_ns");
  Alcotest.(check (float 0.0)) "mean gauge" 1234.
    (Obs.Metrics.gauge m "slo.migration.mean_ns")

(* --- deadline accounting end-to-end through the migration protocol --- *)

(* Two kernels, one thread, two migrations: one with a generous deadline
   (met), one with an impossible 1 ns deadline (violated, with the
   dominant phase attributed). Deadlines must not perturb simulated
   time. *)
let run_deadline_workload ~sink ~generous () =
  let machine = Hw.Machine.create ~seed:42 ~sockets:1 ~cores_per_socket:4 () in
  let cluster = Popcorn.Cluster.boot machine ~kernels:2 ~cores_per_kernel:2 in
  (match sink with
  | None -> ()
  | Some s ->
      Hw.Machine.attach_obs machine s;
      Popcorn.Cluster.observe cluster s);
  let eng = machine.Hw.Machine.eng in
  Sim.Engine.spawn eng (fun () ->
      let proc =
        Popcorn.Api.start_process cluster ~origin:0 (fun th ->
            Popcorn.Api.compute th (Sim.Time.us 5);
            ignore (Popcorn.Api.migrate ?deadline:generous th ~dst:1);
            Popcorn.Api.compute th (Sim.Time.us 5);
            ignore
              (Popcorn.Api.migrate
                 ?deadline:(Option.map (fun _ -> 1) generous)
                 th ~dst:0))
      in
      Popcorn.Api.wait_exit cluster proc);
  Sim.Engine.run eng;
  Sim.Engine.now eng

let test_deadline_counters () =
  let sink = Obs.Sink.create () in
  ignore (run_deadline_workload ~sink:(Some sink) ~generous:(Some (Sim.Time.ms 10)) ());
  let c = Obs.Slo.counters_of_registry sink.Obs.Sink.metrics in
  Alcotest.(check int) "one met" 1 c.Obs.Slo.met;
  Alcotest.(check int) "one violated" 1 c.Obs.Slo.violations;
  (* The blown budget is attributed to a dominant phase. *)
  let phase_total =
    List.fold_left
      (fun acc ph ->
        acc
        + Obs.Metrics.counter sink.Obs.Sink.metrics ("slo.violation_phase." ^ ph))
      0
      [ "save_ctx"; "messaging"; "import"; "schedule_in"; "prefetch" ]
  in
  Alcotest.(check int) "violation attributed to one phase" 1 phase_total;
  (* And the overrun histogram saw exactly the violated migration. *)
  let overruns =
    List.filter_map
      (function
        | ("slo.overrun_ns", None), Obs.Metrics.Hist h -> Some h.count
        | _ -> None)
      (Obs.Metrics.rows sink.Obs.Sink.metrics)
  in
  Alcotest.(check (list int)) "one overrun sample" [ 1 ] overruns

let test_deadlines_never_change_sim_time () =
  let with_deadlines =
    run_deadline_workload ~sink:None ~generous:(Some (Sim.Time.ms 10)) ()
  in
  let without = run_deadline_workload ~sink:None ~generous:None () in
  Alcotest.(check int) "bit-identical end time" without with_deadlines

(* --- the diff gate: a worst-case tail regression must fail --- *)

let doc_with_slo ~worst ~violations =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str "popcornsim-bench-v2");
      ( "experiments",
        Obs.Json.Arr
          [
            Obs.Json.Obj
              [
                ("id", Obs.Json.Str "R4");
                ( "metrics",
                  Obs.Json.Obj
                    [
                      ( "counters",
                        Obs.Json.Arr
                          [
                            Obs.Json.Obj
                              [
                                ("name", Obs.Json.Str "slo.violations");
                                ("kernel", Obs.Json.Null);
                                ("value", Obs.Json.Int violations);
                              ];
                          ] );
                      ( "gauges",
                        Obs.Json.Arr
                          [
                            Obs.Json.Obj
                              [
                                ( "name",
                                  Obs.Json.Str "slo.migration.worst_case_ns" );
                                ("kernel", Obs.Json.Null);
                                ("value", Obs.Json.Int worst);
                              ];
                          ] );
                      ("histograms", Obs.Json.Arr []);
                    ] );
              ];
          ] );
    ]

(* The exit-3 condition in `popcornsim diff --fail-on-regress` is
   regressions > 0; these pin that an injected worst-case tail regression
   (and a violation-count increase) produce regressions. *)
let test_diff_gates_worst_case_regression () =
  let old_doc = doc_with_slo ~worst:39000 ~violations:0 in
  let new_doc = doc_with_slo ~worst:60000 ~violations:0 in
  let report, n = Obs.Report.diff ~fail_pct:10. ~old_doc ~new_doc () in
  Alcotest.(check int) "worst-case +54% is a regression" 1 n;
  Alcotest.(check bool) "report names the gauge" true
    (contains ~sub:"slo.migration.worst_case_ns" report)

let test_diff_gates_violations () =
  let old_doc = doc_with_slo ~worst:39000 ~violations:0 in
  let new_doc = doc_with_slo ~worst:39000 ~violations:3 in
  let report, n = Obs.Report.diff ~fail_pct:10. ~old_doc ~new_doc () in
  Alcotest.(check int) "any violation increase is a regression" 1 n;
  Alcotest.(check bool) "report names the counter" true
    (contains ~sub:"slo.violations" report)

let test_diff_passes_identical_slo () =
  let doc = doc_with_slo ~worst:39000 ~violations:2 in
  let _, n = Obs.Report.diff ~fail_pct:10. ~old_doc:doc ~new_doc:doc () in
  Alcotest.(check int) "identical docs pass" 0 n

(* --- analyze renders the SLO block --- *)

let test_analyze_shows_slo_block () =
  let sink = Obs.Sink.create () in
  ignore (run_deadline_workload ~sink:(Some sink) ~generous:(Some (Sim.Time.ms 10)) ());
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
                  ("metrics", Obs.Metrics.to_json sink.Obs.Sink.metrics);
                  ( "spans",
                    Obs.Json.Arr
                      (List.map Obs.Span.to_json
                         (Obs.Span.spans sink.Obs.Sink.spans)) );
                  ("causal", Obs.Causal.to_json sink.Obs.Sink.causal);
                ];
            ] );
      ]
  in
  match Obs.Report.analyze_doc doc with
  | Ok report ->
      Alcotest.(check bool) "worst-case block present" true
        (contains ~sub:"worst-case & SLO:" report);
      Alcotest.(check bool) "phase budget present" true
        (contains ~sub:"worst-case budget:" report);
      Alcotest.(check bool) "deadline counters present" true
        (contains ~sub:"deadlines: migrations 1 met / 1 violated" report)
  | Error e -> Alcotest.fail e

(* --- R4: deterministic, and its exported slo section is stable --- *)

let r4 () =
  match Experiments.Registry.find "R4" with
  | Some e -> e
  | None -> Alcotest.fail "R4 not registered"

let test_r4_deterministic () =
  let out (o : Experiments.Registry.outcome) =
    Obs.Json.to_string (Experiments.Registry.outcome_json o)
  in
  let a =
    Experiments.Registry.run_one ~quick:true ~observe:true ~seed:42 (r4 ())
  in
  let b =
    Experiments.Registry.run_one ~quick:true ~observe:true ~seed:42 (r4 ())
  in
  (* Strip the host-time fields (wall clock, legitimately different) by
     comparing the slo + metrics sections only. *)
  let section name doc =
    match Obs.Json.of_string doc with
    | Ok (Obs.Json.Obj fs) -> List.assoc_opt name fs
    | _ -> None
  in
  Alcotest.(check bool) "slo section byte-stable" true
    (section "slo" (out a) = section "slo" (out b)
    && section "slo" (out a) <> None);
  Alcotest.(check bool) "metrics byte-stable" true
    (section "metrics" (out a) = section "metrics" (out b));
  (* Deadline traffic actually flowed. *)
  match a.Experiments.Registry.sink with
  | None -> Alcotest.fail "no sink"
  | Some s ->
      let c = Obs.Slo.counters_of_registry s.Obs.Sink.metrics in
      Alcotest.(check bool) "migration deadlines accounted" true
        (c.Obs.Slo.met + c.Obs.Slo.violations > 0);
      Alcotest.(check bool) "dispatch deadlines accounted" true
        (c.Obs.Slo.dispatch_met + c.Obs.Slo.dispatch_violations > 0)

(* The whole analyze report of R4 (quick size, seed 42) after its results
   document round-trips through Obs.Json, pinned byte for byte: 288
   migration roots, lost messages, unclosed spans and violated deadlines.
   The expected text is `popcornsim run R4 --quick --json r4.json` then
   `popcornsim analyze r4.json`; regenerate it only when simulated
   behaviour changes on purpose. *)
let test_r4_analyze_golden () =
  let o =
    Experiments.Registry.run_one ~quick:true ~observe:true ~seed:42 (r4 ())
  in
  let text =
    Obs.Json.to_string (Experiments.Registry.report_json ~quick:true [ o ])
  in
  let doc =
    match Obs.Json.of_string text with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let expected =
    In_channel.with_open_bin
      (Filename.concat
         (Filename.dirname Sys.executable_name)
         "r4_quick_analyze.expected")
      In_channel.input_all
  in
  match Obs.Report.analyze_doc doc with
  | Ok report -> Alcotest.(check string) "analyze report" expected report
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "slo"
    [
      ( "summarize",
        [
          Alcotest.test_case "picks exact worst + phases" `Quick
            test_summarize_picks_worst;
          Alcotest.test_case "empty run" `Quick test_summarize_empty;
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "records gauges" `Quick test_record_gauges;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "met/violated counters" `Quick
            test_deadline_counters;
          Alcotest.test_case "accounting never changes sim time" `Quick
            test_deadlines_never_change_sim_time;
        ] );
      ( "diff-gate",
        [
          Alcotest.test_case "worst-case regression fails" `Quick
            test_diff_gates_worst_case_regression;
          Alcotest.test_case "violation increase fails" `Quick
            test_diff_gates_violations;
          Alcotest.test_case "identical slo passes" `Quick
            test_diff_passes_identical_slo;
        ] );
      ( "analyze",
        [
          Alcotest.test_case "renders SLO block" `Quick
            test_analyze_shows_slo_block;
        ] );
      ( "r4",
        [
          Alcotest.test_case "deterministic" `Quick test_r4_deterministic;
          Alcotest.test_case "analyze golden" `Quick test_r4_analyze_golden;
        ] );
    ]
