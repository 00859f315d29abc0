(* Engine hot-path, boot and report microbenchmarks (bechamel).

   Covers event-heap push/pop, label interning, metric updates (by-name vs
   pre-resolved handle), end-to-end message delivery through the
   transport, booting: a bare 4-socket x 16-core machine, and a 4-kernel
   Popcorn cluster on it (what every experiment data point pays before its
   first event), and the results-document round trip of
   `popcornsim analyze`: writing, parsing and analyzing R4's quick
   document. CI runs `--quick` and archives the report; the
   numbers are informational. That simulated results stay identical is
   checked by the tier-1 tests, which hold the quick suite byte for byte
   to bench/baseline.json.

   usage: micro.exe [--quick] *)

open Bechamel
open Toolkit

(* Pseudorandom but fixed times, spread over a wide band. *)
let times =
  let rng = Sim.Prng.create ~seed:7 in
  Array.init 512 (fun _ -> Sim.Prng.int_in rng 0 50_000_000)

let heap_push_pop =
  Staged.stage (fun () ->
      let q = Sim.Eheap.create () in
      Array.iteri (fun seq at -> Sim.Eheap.push q ~at ~seq seq) times;
      while not (Sim.Eheap.is_empty q) do
        ignore (Sim.Eheap.pop_exn q)
      done)

(* Steady-state scheduling: the queue never drains (closer to the
   engine's real pattern than a fill-then-drain sweep). *)
let heap_churn =
  Staged.stage (fun () ->
      let q = Sim.Eheap.create () in
      let seq = ref 0 in
      Array.iteri
        (fun s at -> Sim.Eheap.push q ~at ~seq:s s)
        (Array.sub times 0 64);
      seq := 64;
      for _ = 1 to 512 do
        let at = Sim.Eheap.next_at q in
        ignore (Sim.Eheap.pop_exn q);
        Sim.Eheap.push q ~at:(at + 10_000) ~seq:!seq !seq;
        incr seq
      done;
      while not (Sim.Eheap.is_empty q) do
        ignore (Sim.Eheap.pop_exn q)
      done)

let names = Array.init 64 (fun i -> Printf.sprintf "metric.name.%d" i)

let intern_hit =
  let t = Obs.Names.create () in
  Array.iter (fun n -> ignore (Obs.Names.intern t n)) names;
  Staged.stage (fun () ->
      let acc = ref 0 in
      Array.iter (fun n -> acc := !acc + Obs.Names.intern t n) names;
      ignore !acc)

let metrics_by_name =
  let m = Obs.Metrics.create () in
  Staged.stage (fun () ->
      for _ = 1 to 64 do
        Obs.Metrics.incr m ~kernel:3 "bench.counter"
      done)

let metrics_handle =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.counter_handle m ~kernel:3 "bench.counter" in
  Staged.stage (fun () ->
      for _ = 1 to 64 do
        Obs.Metrics.handle_incr h
      done)

(* End-to-end delivery: 2-kernel fabric, one batch of messages per run,
   engine drained to completion. Measures send cost + ring + worker
   dispatch + handler spawn — the path the batched drain optimizes. *)
let deliver =
  let m =
    Hw.Machine.create ~frames_per_socket:16 ~sockets:2 ~cores_per_socket:1 ()
  in
  let delivered = ref 0 in
  let tr =
    Msg.Transport.create m ~ring_slots:64
      ~handler:(fun _ ~dst:_ ~src:_ _ _ -> incr delivered)
  in
  Msg.Transport.add_node tr 0 ~home_core:0;
  Msg.Transport.add_node tr 1 ~home_core:1;
  Staged.stage (fun () ->
      Sim.Engine.spawn (Hw.Machine.(m.eng)) (fun () ->
          for i = 1 to 128 do
            Msg.Transport.send tr ~src:0 ~dst:1 ~bytes:64 i
          done);
      Sim.Engine.run Hw.Machine.(m.eng))

let machine_create =
  Staged.stage (fun () ->
      ignore (Hw.Machine.create ~sockets:4 ~cores_per_socket:16 ()))

let popcorn_boot =
  Staged.stage (fun () ->
      let m = Hw.Machine.create ~sockets:4 ~cores_per_socket:16 () in
      ignore (Popcorn.Cluster.boot m ~kernels:4 ~cores_per_kernel:16))

(* R4's results document at quick size and seed 42 (about 2.1 MB, 1,440
   spans and 27,385 causal events), built once before any timing. *)
let r4_doc =
  let module R = Experiments.Registry in
  R.report_json ~quick:true
    [ R.run_one ~quick:true ~observe:true ~seed:42 (Option.get (R.find "R4")) ]

let r4_text = Obs.Json.to_string r4_doc
let json_write = Staged.stage (fun () -> ignore (Obs.Json.to_string r4_doc))
let json_parse = Staged.stage (fun () -> ignore (Obs.Json.of_string r4_text))

let analyze_doc =
  Staged.stage (fun () -> ignore (Obs.Report.analyze_doc r4_doc))

let tests =
  Test.make_grouped ~name:"engine"
    [
      Test.make ~name:"heap-push-pop" heap_push_pop;
      Test.make ~name:"heap-churn" heap_churn;
      Test.make ~name:"names-intern-hit" intern_hit;
      Test.make ~name:"metrics-incr/by-name" metrics_by_name;
      Test.make ~name:"metrics-incr/handle" metrics_handle;
      Test.make ~name:"deliver-128" deliver;
      Test.make ~name:"machine-create" machine_create;
      Test.make ~name:"popcorn-boot" popcorn_boot;
      Test.make ~name:"json-write" json_write;
      Test.make ~name:"json-parse" json_parse;
      Test.make ~name:"analyze-doc" analyze_doc;
    ]

let () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  let quota = if quick then 0.25 else 2.0 in
  let instances = [ Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:(if quick then 500 else 3000)
      ~quota:(Time.second quota) ~kde:None ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results =
    Analyze.merge ols instances
      (List.map (fun instance -> Analyze.all ols instance raw) instances)
  in
  Printf.printf "engine microbench (%s mode)\n"
    (if quick then "quick" else "full");
  Hashtbl.iter
    (fun label per_test ->
      Printf.printf "measure: %s\n" label;
      let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) per_test [] in
      List.iter
        (fun (name, o) ->
          match Analyze.OLS.estimates o with
          | Some [ est ] -> Printf.printf "  %-28s %12.1f ns/run\n" name est
          | _ -> Printf.printf "  %-28s (no estimate)\n" name)
        (List.sort compare rows))
    results
