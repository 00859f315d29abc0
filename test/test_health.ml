(* Tests for health-aware placement: the Health state machine,
   Placement.choose and the dispatcher (admission control, retry-on-other-
   kernel), the Balancer's health integration and stale-hint expiry, and
   the R2 acceptance criteria (proportional degradation under a kernel
   crash — asserted, not just printed). *)

open Sim
module P = Popcorn.Types
module H = Popcorn.Health
module Pl = Popcorn.Placement
module R2 = Experiments.R2_placement

(* --- Health state machine ----------------------------------------------- *)

(* Probing disabled: the machine only moves on note_success/note_failure. *)
let no_probe =
  { H.default_config with H.readmit_prob = 0.; probe_interval = Time.us 10 }

let state = Alcotest.testable (Fmt.of_to_string H.state_name) ( = )

let test_state_machine () =
  let eng = Engine.create ~seed:1 () in
  let h = H.create eng ~config:no_probe ~kernels:2 in
  Engine.spawn eng (fun () ->
      Alcotest.check state "starts healthy" H.Healthy (H.state h 0);
      H.note_failure h ~kernel:0;
      Alcotest.check state "one miss tolerated" H.Healthy (H.state h 0);
      H.note_failure h ~kernel:0;
      Alcotest.check state "two misses suspect" H.Suspect (H.state h 0);
      H.note_success h ~kernel:0;
      Alcotest.check state "one success not enough" H.Suspect (H.state h 0);
      H.note_success h ~kernel:0;
      Alcotest.check state "two successes recover" H.Healthy (H.state h 0);
      (* Misses were cleared by recovery: draining needs a fresh streak. *)
      H.note_failure h ~kernel:0;
      H.note_failure h ~kernel:0;
      H.note_failure h ~kernel:0;
      Alcotest.check state "three misses drain" H.Drained (H.state h 0);
      Alcotest.(check bool) "drained is unavailable" false (H.available h 0);
      Alcotest.check state "other kernel untouched" H.Healthy (H.state h 1);
      (* With probing off, traffic outcomes cannot resurrect it. *)
      H.note_success h ~kernel:0;
      Alcotest.check state "drained ignores successes" H.Drained
        (H.state h 0));
  Engine.run eng;
  let kinds =
    List.map (fun (tr : H.transition) -> (tr.H.tr_from, tr.H.tr_to))
      (H.transitions h)
  in
  Alcotest.(check int) "four transitions logged" 4 (List.length kinds);
  Alcotest.(check bool) "log order oldest-first" true
    (kinds
    = [
        (H.Healthy, H.Suspect);
        (H.Suspect, H.Healthy);
        (H.Healthy, H.Suspect);
        (H.Suspect, H.Drained);
      ])

let test_window_pruning () =
  let eng = Engine.create ~seed:2 () in
  let cfg = { no_probe with H.window = Time.us 100 } in
  let h = H.create eng ~config:cfg ~kernels:1 in
  Engine.spawn eng (fun () ->
      H.note_failure h ~kernel:0;
      Engine.sleep eng (Time.us 200);
      (* The first miss has aged out: this is one miss in the window. *)
      H.note_failure h ~kernel:0;
      Alcotest.check state "stale miss pruned" H.Healthy (H.state h 0);
      H.note_failure h ~kernel:0;
      Alcotest.check state "two fresh misses suspect" H.Suspect (H.state h 0));
  Engine.run eng

let drain ?(kernel = 0) h =
  H.note_failure h ~kernel;
  H.note_failure h ~kernel;
  H.note_failure h ~kernel

(* While drained, a seeded probe readmits to probation; trial traffic then
   decides. The probe schedule must be identical across same-seed runs. *)
let probe_run seed =
  let eng = Engine.create ~seed () in
  let h = H.create eng ~kernels:1 in
  Engine.spawn eng (fun () -> drain h);
  Engine.run eng;
  (* The probe fired (possibly several times) and readmitted: the engine
     only quiesces because readmission stops the probe timer. *)
  Alcotest.check state "probe readmitted to probation" H.Suspect
    (H.state h 0);
  Alcotest.(check bool) "on probation" true (H.probation h 0);
  Alcotest.(check bool) "drained time accounted" true (H.drained_ns h 0 > 0);
  (Engine.now eng, List.map (fun (tr : H.transition) -> (tr.H.tr_at, tr.H.tr_kernel, tr.H.tr_from, tr.H.tr_to)) (H.transitions h))

let test_probe_deterministic () =
  let a = probe_run 7 in
  let b = probe_run 7 in
  Alcotest.(check bool) "same seed, identical transition log" true (a = b)

let test_probation_redrain () =
  let eng = Engine.create ~seed:8 () in
  let h = H.create eng ~kernels:1 in
  Engine.spawn eng (fun () -> drain h);
  Engine.run eng;
  Alcotest.(check bool) "on probation" true (H.probation h 0);
  (* One miss during probation: straight back to drained, no window. *)
  H.note_failure h ~kernel:0;
  Alcotest.check state "probation miss re-drains" H.Drained (H.state h 0);
  (* A success during probation clears the probation flag instead. *)
  H.stop h;
  Engine.run eng (* drain the re-scheduled probe timer (now a no-op) *)

let test_stop_quiesces () =
  let eng = Engine.create ~seed:9 () in
  (* readmit_prob 1.0 but stop before running: the pending probe must be a
     no-op, the kernel stays drained, and the engine terminates. *)
  let cfg = { H.default_config with H.readmit_prob = 1.0 } in
  let h = H.create eng ~config:cfg ~kernels:1 in
  Engine.spawn eng (fun () ->
      drain h;
      H.stop h);
  Engine.run eng;
  Alcotest.check state "still drained after stop" H.Drained (H.state h 0)

(* --- Placement choice ---------------------------------------------------- *)

let cand ck ~load ~weight = { Pl.ck; ck_load = load; ck_weight = weight }

let test_weighted_least_loaded () =
  Alcotest.(check (option int)) "empty -> none" None (Pl.choose []);
  Alcotest.(check (option int))
    "weight normalises load: 3/4 of capacity beats 1/1"
    (Some 1)
    (Pl.choose [ cand 1 ~load:3 ~weight:4; cand 2 ~load:1 ~weight:1 ]);
  Alcotest.(check (option int))
    "ties break to the lowest kernel id" (Some 1)
    (Pl.choose [ cand 3 ~load:1 ~weight:1; cand 1 ~load:1 ~weight:1 ])

(* --- Placement dispatcher ------------------------------------------------ *)

let mk_cluster () =
  let machine = Hw.Machine.create ~sockets:2 ~cores_per_socket:8 () in
  let cluster = Popcorn.Cluster.boot machine ~kernels:4 ~cores_per_kernel:4 in
  (machine.Hw.Machine.eng, cluster)

let test_admission_shedding () =
  let eng, cluster = mk_cluster () in
  let disp = Pl.create ~high_water:4 ~frontend:0 cluster in
  let placed = ref 0 and rejected = ref 0 in
  let n = 12 in
  let latch = Workloads.Latch.create eng n in
  Engine.spawn eng (fun () ->
      for _ = 1 to n do
        Engine.spawn eng (fun () ->
            (match Pl.dispatch disp ~cost_ns:(Time.us 20) with
            | Pl.Placed _ -> incr placed
            | Pl.Rejected -> incr rejected
            | Pl.Failed _ -> Alcotest.fail "no faults: nothing may fail");
            Workloads.Latch.arrive latch)
      done;
      Workloads.Latch.wait latch);
  Engine.run eng;
  (* All 12 burst in at the same instant with a high-water mark of 4: the
     first 4 are admitted, the rest shed — explicitly, not queued. *)
  Alcotest.(check int) "admitted up to the mark" 4 !placed;
  Alcotest.(check int) "the rest shed explicitly" 8 !rejected;
  Alcotest.(check int) "nothing left in flight" 0 (Pl.inflight disp)

let test_retry_other_kernel () =
  let eng, cluster = mk_cluster () in
  let health = H.create eng ~kernels:4 in
  let disp = Pl.create ~health ~frontend:0 cluster in
  let plan = Inject.Plan.create eng in
  Inject.Plan.attach plan cluster.P.fabric;
  (* Fresh dispatcher: all loads zero, so the policy picks kernel 1.
     Sever it; the request must fail over to kernel 2 on attempt 2. *)
  Inject.Plan.set_link plan ~src:0 ~dst:1
    { Inject.Plan.zero with Inject.Plan.drop = 1.0 };
  let outcome = ref Pl.Rejected in
  Engine.spawn eng (fun () ->
      outcome := Pl.dispatch disp ~cost_ns:(Time.us 10);
      H.stop health);
  Engine.run eng;
  (match !outcome with
  | Pl.Placed { kernel; attempts } ->
      Alcotest.(check int) "failed over to the next kernel" 2 kernel;
      Alcotest.(check int) "on the second attempt" 2 attempts
  | _ -> Alcotest.fail "dispatch did not fail over");
  Alcotest.(check bool) "the miss was fed to health" true
    (H.state health 1 <> H.Drained (* one miss: healthy, counted *));
  Alcotest.check state "server kernel stays healthy" H.Healthy
    (H.state health 2)

(* --- Balancer: stale hints and health integration ----------------------- *)

let test_balancer_stale_hints () =
  let eng, cluster = mk_cluster () in
  let balancer = ref None in
  let stale_before = ref (-1) in
  Engine.spawn eng (fun () ->
      let proc =
        Popcorn.Api.start_process cluster ~origin:0 (fun th ->
            (* A worker parked on a futex: live, but it never reaches a
               cooperative migration point, so its hint can only expire. *)
            let wtid =
              Popcorn.Api.spawn th (fun w ->
                  ignore (Popcorn.Api.futex_wait w ~addr:0x800000 ()))
            in
            (* threshold 99: the balancer never issues hints of its own
               here; we only exercise expiry. *)
            let b =
              Popcorn.Balancer.start ~period:(Time.us 50)
                ~hint_ttl:(Time.us 100) ~threshold:99 cluster
            in
            balancer := Some b;
            let k0 = P.kernel_of cluster 0 in
            let now = Engine.now eng in
            (* One hint for a tid that does not exist (the thread exited
               or migrated away), one for the parked live thread. *)
            Hashtbl.replace k0.P.migrate_hints 9999
              { P.hint_dst = 1; hint_at = now };
            Hashtbl.replace k0.P.migrate_hints wtid
              { P.hint_dst = 1; hint_at = now };
            stale_before := Popcorn.Balancer.hints_stale b;
            Popcorn.Api.compute th (Time.us 400);
            Alcotest.(check int) "both hints expired" 0
              (Hashtbl.length k0.P.migrate_hints);
            ignore (Popcorn.Api.futex_wake th ~addr:0x800000 ~count:1);
            Popcorn.Balancer.stop b)
      in
      Popcorn.Api.wait_exit cluster proc);
  Engine.run eng;
  Alcotest.(check int) "no stale hints at the start" 0 !stale_before;
  match !balancer with
  | Some b ->
      Alcotest.(check int) "both counted stale" 2
        (Popcorn.Balancer.hints_stale b)
  | None -> Alcotest.fail "balancer never started"

(* A crashed kernel must not wedge the balancer (the old Gather-based
   round parked forever waiting for its load reply), must get drained by
   the shared health tracker, and must be readmitted once it heals. *)
let test_balancer_survives_crashed_kernel () =
  let eng, cluster = mk_cluster () in
  let health = H.create eng ~kernels:4 in
  let plan = Inject.Plan.create eng in
  Inject.Plan.attach plan cluster.P.fabric;
  let victim = 3 in
  let sever rates =
    for k = 0 to 3 do
      if k <> victim then begin
        Inject.Plan.set_link plan ~src:k ~dst:victim rates;
        Inject.Plan.set_link plan ~src:victim ~dst:k rates
      end
    done
  in
  let mid = ref H.Healthy in
  Engine.spawn eng (fun () ->
      let proc =
        Popcorn.Api.start_process cluster ~origin:0 (fun th ->
            let b =
              Popcorn.Balancer.start ~period:(Time.us 100) ~threshold:99
                ~health cluster
            in
            Popcorn.Api.compute th (Time.ms 1);
            Alcotest.check state "healthy while fault-free" H.Healthy
              (H.state health victim);
            sever { Inject.Plan.zero with Inject.Plan.drop = 1.0 };
            Popcorn.Api.compute th (Time.ms 2);
            mid := H.state health victim;
            sever Inject.Plan.zero;
            Popcorn.Api.compute th (Time.ms 3);
            Alcotest.(check bool) "readmitted after healing" true
              (H.available health victim);
            Alcotest.check state "healthy majority never drained" H.Healthy
              (H.state health 1);
            Popcorn.Balancer.stop b;
            H.stop health)
      in
      Popcorn.Api.wait_exit cluster proc);
  Engine.run eng;
  (* Engine.run returning at all is the no-hang half of the test. *)
  Alcotest.check state "drained while severed" H.Drained !mid

(* --- R2 acceptance: proportional degradation under kernel crash --------- *)

let ctx () = Experiments.Run_ctx.create ~quick:true ()

let r2_cell scenario =
  R2.run_cell (ctx ()) ~requests:3000 ~gap:(Time.us 2) ~scenario ()

let test_r2_crash_acceptance () =
  let base = r2_cell R2.Baseline in
  let crash = r2_cell R2.Crash in
  let bs = base.R2.stats and cs = crash.R2.stats in
  (* Moderate load (~42% of worker capacity) and a crash of 1 of 3 worker
     kernels for the middle third of the run. Losing a third of capacity
     still leaves headroom, so goodput must degrade (at most)
     proportionally — anything near the lost-capacity floor would mean
     collapse, not degradation. *)
  Alcotest.(check bool) "baseline is clean" true
    (Workloads.Server.goodput bs = 1.0 && bs.Workloads.Server.failed = 0);
  Alcotest.(check bool) "no goodput collapse under crash" true
    (Workloads.Server.goodput cs >= 0.95);
  Alcotest.(check bool) "shed rate bounded" true
    (Workloads.Server.shed_rate cs <= 0.05);
  (* Tail latency of the requests that *were* accepted: within 2x of the
     fault-free baseline (the few retried requests pay the failover
     deadline; health must drain the victim before they pollute p99). *)
  let p99 s = Stats.Histogram.p99 s.Workloads.Server.latency in
  Alcotest.(check bool) "p99 of accepted within 2x baseline" true
    (p99 cs <= 2. *. p99 bs);
  (* The health machinery actually reacted: drained during the fault,
     readmitted after it. *)
  Alcotest.(check bool) "victim drained after fault onset" true
    (crash.R2.drain_after_ns >= 0);
  Alcotest.(check bool) "drained quickly (< 1ms of fault)" true
    (crash.R2.drain_after_ns < Time.ms 1);
  Alcotest.(check bool) "victim readmitted after recovery" true
    (crash.R2.readmit_after_ns >= 0);
  Alcotest.(check bool) "victim serving again at the end" true
    (crash.R2.victim_final <> H.Drained);
  Alcotest.(check bool) "some requests failed over" true
    (cs.Workloads.Server.retried > 0)

(* --- determinism --------------------------------------------------------- *)

(* Two same-seed R2 cells: identical health-transition logs (the seeded
   probe schedule included) and identical headline numbers. *)
let test_r2_same_seed_same_transitions () =
  let digest (c : R2.cell) =
    ( List.map
        (fun (tr : H.transition) ->
          (tr.H.tr_at, tr.H.tr_kernel, H.state_name tr.H.tr_from,
           H.state_name tr.H.tr_to))
        c.R2.transitions,
      Workloads.Server.goodput c.R2.stats,
      Stats.Histogram.p99 c.R2.stats.Workloads.Server.latency,
      c.R2.drain_after_ns,
      c.R2.readmit_after_ns )
  in
  let a = r2_cell R2.Crash in
  let b = r2_cell R2.Crash in
  Alcotest.(check bool) "health transitions happened" true
    (a.R2.transitions <> []);
  Alcotest.(check bool) "identical transition logs and headline stats" true
    (digest a = digest b)

(* R2 under domain parallelism is bit-identical to a serial run: four
   concurrent observed runs (same seed) agree on rendered output and
   metrics JSON with a serial one. (test_parallel covers the whole suite;
   this pins the new experiment directly.) *)
let test_r2_parallel_equivalence () =
  let spec = Option.get (Experiments.Registry.find "R2") in
  let run () = Experiments.Registry.run_one ~quick:true ~observe:true spec in
  let serial = run () in
  let domains = List.init 3 (fun _ -> Domain.spawn run) in
  let outcomes = serial :: List.map Domain.join domains in
  let metrics (o : Experiments.Registry.outcome) =
    Obs.Json.to_string
      (Obs.Metrics.to_json (Option.get o.Experiments.Registry.sink).Obs.Sink.metrics)
  in
  List.iter
    (fun o ->
      Alcotest.(check string) "output identical"
        serial.Experiments.Registry.output o.Experiments.Registry.output;
      Alcotest.(check string) "metrics identical" (metrics serial) (metrics o))
    outcomes

(* Every engine R2 boots stays alive until its run ends (the run keeps
   them to count events), and so does every label it interned. A label
   names a kind of fiber, so each engine's table stays a few dozen
   entries long however many requests its cell serves: the next fresh
   label's id is the table's size. *)
let test_r2_labels_bounded () =
  let spec = Option.get (Experiments.Registry.find "R2") in
  let ctx = ctx () in
  ignore (spec.Experiments.Registry.run ctx);
  Alcotest.(check bool) "R2 booted engines" true
    (ctx.Experiments.Run_ctx.engines <> []);
  List.iter
    (fun eng ->
      let id = (Engine.label eng "fresh-label" :> int) in
      if id >= 64 then Alcotest.failf "engine interned %d labels" id)
    ctx.Experiments.Run_ctx.engines

let () =
  Alcotest.run "health"
    [
      ( "state machine",
        [
          Alcotest.test_case "healthy/suspect/drained" `Quick
            test_state_machine;
          Alcotest.test_case "sliding window prunes" `Quick
            test_window_pruning;
          Alcotest.test_case "probe readmission deterministic" `Quick
            test_probe_deterministic;
          Alcotest.test_case "probation miss re-drains" `Quick
            test_probation_redrain;
          Alcotest.test_case "stop quiesces probing" `Quick
            test_stop_quiesces;
        ] );
      ( "policies",
        [
          Alcotest.test_case "weighted least loaded" `Quick
            test_weighted_least_loaded;
        ] );
      ( "dispatcher",
        [
          Alcotest.test_case "admission control sheds" `Quick
            test_admission_shedding;
          Alcotest.test_case "retry on other kernel" `Quick
            test_retry_other_kernel;
        ] );
      ( "balancer",
        [
          Alcotest.test_case "stale hints expire" `Quick
            test_balancer_stale_hints;
          Alcotest.test_case "crashed kernel: no hang, drain, readmit"
            `Quick test_balancer_survives_crashed_kernel;
        ] );
      ( "r2 acceptance",
        [
          Alcotest.test_case "crash degrades proportionally" `Quick
            test_r2_crash_acceptance;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, same transitions" `Quick
            test_r2_same_seed_same_transitions;
          Alcotest.test_case "parallel runs bit-identical" `Quick
            test_r2_parallel_equivalence;
        ] );
      ( "labels",
        [
          Alcotest.test_case "R2 engines intern a bounded label set" `Quick
            test_r2_labels_bounded;
        ] );
    ]
