(* Whole-result determinism. An outcome's rendered [output] and its
   results-document entry carry no host time, so together they are the
   run's identity, and every check here compares them byte for byte:
   between two runs, between the quick suite scheduled over one domain and
   over four (each experiment owns its context, sink and machines), and
   against the committed baselines, which hold the default protocol's and
   the sharded protocol's quick suite as `all --quick --baseline-out`
   writes them. *)

module R = Experiments.Registry

let check_same_run (a : R.outcome) (b : R.outcome) =
  let id = a.spec.R.id in
  Alcotest.(check string) (id ^ ": registry order preserved") id b.spec.R.id;
  Alcotest.(check string) (id ^ ": output identical") a.output b.output;
  Alcotest.(check string)
    (id ^ ": results entry identical")
    (Obs.Json.to_string (R.outcome_json a))
    (Obs.Json.to_string (R.outcome_json b))

(* What `--baseline-out` would write must be the committed file, byte for
   byte. Entries are compared first so a mismatch names the experiment.
   The baselines are found from the executable, not the working
   directory, so the suite also runs from the repository root. *)
let check_baseline name (outcomes : R.outcome list) =
  let path =
    Filename.concat (Filename.dirname Sys.executable_name) ("../bench/" ^ name)
  in
  let committed = In_channel.with_open_bin path In_channel.input_all in
  let entries =
    match Obs.Json.of_string committed with
    | Ok doc -> Obs.Json.arr_field "experiments" doc
    | Error e -> Alcotest.failf "%s: %s" path e
  in
  List.iter
    (fun (o : R.outcome) ->
      let id = o.spec.R.id in
      Alcotest.(check (option string))
        (name ^ ": " ^ id)
        (Some (Obs.Json.to_string (R.outcome_json ~metrics_only:true o)))
        (List.find_opt (fun e -> Obs.Json.str_field "id" e = Some id) entries
        |> Option.map Obs.Json.to_string))
    outcomes;
  Alcotest.(check bool)
    (name ^ ": whole file identical")
    true
    (committed
    = Obs.Json.to_string (R.report_json ~quick:true ~metrics_only:true outcomes)
      ^ "\n")

let suite ?coherence ~jobs () =
  R.run_all ~quick:true ~observe:true ?coherence ~jobs ()

let test_jobs_invariant () =
  let serial = suite ~jobs:1 () in
  let parallel = suite ~jobs:4 () in
  Alcotest.(check int) "experiment count"
    (List.length serial) (List.length parallel);
  List.iter2 check_same_run serial parallel;
  check_baseline "baseline.json" parallel

let test_sharded_baseline () =
  check_baseline "baseline-sharded.json"
    (suite ~coherence:Coherence.Protocol.Sharded_dir ~jobs:4 ())

let test_no_host_time () =
  let run () =
    R.run_one ~quick:true ~observe:true (Option.get (R.find "T2"))
  in
  check_same_run (run ()) (run ())

(* The seed travels through Run_ctx into every machine an experiment
   boots: the same seed reproduces a run exactly, and the machine's RNG
   stream is the one the seed selects (i.e. Run_ctx.seed actually reaches
   Hw.Machine.create — it is not still hard-coded to 42 somewhere). *)
let test_seed_threaded () =
  let run seed =
    (R.run_one ~quick:true ~seed (Option.get (R.find "T2"))).R.output
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
          Alcotest.test_case "sharded suite == committed baseline" `Slow
            test_sharded_baseline;
          Alcotest.test_case "results carry no host time" `Quick
            test_no_host_time;
          Alcotest.test_case "seed threads through Run_ctx" `Quick
            test_seed_threaded;
        ] );
    ]
