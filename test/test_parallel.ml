(* Parallel-vs-serial equivalence — the headline guarantee of the explicit
   [Run_ctx] refactor. Every experiment owns its context, sink and
   machines, so scheduling the suite over domains must change nothing:
   the quick suite run with jobs=1 and jobs=4 yields, per experiment,
   identical rendered tables, identical metrics JSON, and identical
   span / causal-DAG digests. Host wall-clock is the one legitimate
   difference; it is stripped before comparing rendered output. *)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  n = 0 || at 0

let strip_host_ms s =
  String.split_on_char '\n' s
  |> List.filter (fun line ->
         not
           (String.length line > 0
           && line.[0] = '('
           && contains ~affix:"ms host time" line))
  |> String.concat "\n"

let json_digest j = Digest.to_hex (Digest.string (Obs.Json.to_string j))

let spans_json (s : Obs.Sink.t) =
  Obs.Json.Arr (List.map Obs.Span.to_json (Obs.Span.spans s.Obs.Sink.spans))

let suite ~jobs =
  Experiments.Registry.run_all ~quick:true ~observe:true ~jobs ()

let test_jobs_invariant () =
  let serial = suite ~jobs:1 in
  let parallel = suite ~jobs:4 in
  Alcotest.(check int) "experiment count"
    (List.length serial) (List.length parallel);
  List.iter2
    (fun (a : Experiments.Registry.outcome)
         (b : Experiments.Registry.outcome) ->
      let id = a.spec.Experiments.Registry.id in
      Alcotest.(check string)
        (id ^ ": registry order preserved")
        id b.spec.Experiments.Registry.id;
      Alcotest.(check string)
        (id ^ ": rendered tables identical")
        (strip_host_ms a.output) (strip_host_ms b.output);
      match (a.sink, b.sink) with
      | Some sa, Some sb ->
          Alcotest.(check string)
            (id ^ ": metrics JSON identical")
            (Obs.Json.to_string (Obs.Metrics.to_json sa.Obs.Sink.metrics))
            (Obs.Json.to_string (Obs.Metrics.to_json sb.Obs.Sink.metrics));
          Alcotest.(check string)
            (id ^ ": span digest identical")
            (json_digest (spans_json sa))
            (json_digest (spans_json sb));
          Alcotest.(check string)
            (id ^ ": causal-DAG digest identical")
            (json_digest (Obs.Causal.to_json sa.Obs.Sink.causal))
            (json_digest (Obs.Causal.to_json sb.Obs.Sink.causal))
      | _ -> Alcotest.failf "%s: observed run is missing its sink" id)
    serial parallel

(* The seed travels through Run_ctx into every machine an experiment
   boots: the same seed reproduces a run exactly, and the machine's RNG
   stream is the one the seed selects (i.e. Run_ctx.seed actually reaches
   Hw.Machine.create — it is not still hard-coded to 42 somewhere). *)
let test_seed_threaded () =
  let run seed =
    let o =
      Experiments.Registry.run_one ~quick:true ~seed
        (Option.get (Experiments.Registry.find "T2"))
    in
    strip_host_ms o.Experiments.Registry.output
  in
  Alcotest.(check string) "same seed, same tables" (run 7) (run 7);
  let draws seed =
    let m =
      Experiments.Common.machine (Experiments.Run_ctx.create ~seed ()) ()
    in
    let rng = Sim.Engine.rng m.Hw.Machine.eng in
    List.init 4 (fun _ -> Sim.Prng.int rng 1_000_000)
  in
  Alcotest.(check (list int)) "same seed, same rng stream"
    (draws 7) (draws 7);
  Alcotest.(check bool) "different seed, different rng stream" true
    (draws 7 <> draws 42)

let () =
  Alcotest.run "parallel"
    [
      ( "equivalence",
        [
          Alcotest.test_case "jobs=4 == jobs=1 (quick suite)" `Slow
            test_jobs_invariant;
          Alcotest.test_case "seed threads through Run_ctx" `Quick
            test_seed_threaded;
        ] );
    ]
