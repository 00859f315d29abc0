(* Tests for the observability layer (lib/obs): metrics registry
   determinism, span nesting, exporters, and the guarantee that
   instrumentation never perturbs simulated time. *)

(* --- metrics registry --- *)

let test_metrics_basics () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "a";
  Obs.Metrics.incr m "a";
  Obs.Metrics.add m "a" 3;
  Obs.Metrics.incr m ~kernel:1 "a";
  Alcotest.(check int) "global counter" 5 (Obs.Metrics.counter m "a");
  Alcotest.(check int) "kernel counter" 1 (Obs.Metrics.counter m ~kernel:1 "a");
  Alcotest.(check int) "untouched counter" 0 (Obs.Metrics.counter m "nope");
  Obs.Metrics.set_gauge m "g" 1.5;
  Obs.Metrics.set_gauge m "g" 2.5;
  Alcotest.(check (float 1e-9)) "gauge latest wins" 2.5 (Obs.Metrics.gauge m "g");
  Obs.Metrics.observe m "h" 10.;
  Obs.Metrics.observe m "h" 20.;
  (match List.assoc ("h", None) (Obs.Metrics.rows m) with
  | Obs.Metrics.Hist { count; mean; max; _ } ->
      Alcotest.(check int) "hist count" 2 count;
      Alcotest.(check (float 1e-9)) "hist mean" 15. mean;
      Alcotest.(check (float 1e-9)) "hist max" 20. max
  | _ -> Alcotest.fail "expected a histogram view");
  (* A name registered as one kind cannot be read as another. *)
  Alcotest.(check bool) "wrong kind raises" true
    (try
       ignore (Obs.Metrics.counter m "g");
       false
     with Invalid_argument _ -> true);
  (* Exported histograms carry the full percentile ladder, p999
     included, and the view keeps it between p99 and the exact max. *)
  (match List.assoc ("h", None) (Obs.Metrics.rows m) with
  | Obs.Metrics.Hist { p99; p999; max; _ } ->
      Alcotest.(check bool) "p99 <= p999 <= max-with-bucket-error" true
        (p99 <= p999 && p999 <= max *. 1.1)
  | _ -> Alcotest.fail "expected a histogram view");
  let json = Obs.Json.to_string (Obs.Metrics.to_json m) in
  let has_sub sub s =
    let n = String.length s and q = String.length sub in
    let rec go i = i + q <= n && (String.sub s i q = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "json carries p999" true (has_sub "\"p999\"" json)

let test_metrics_rows_deterministic () =
  (* Same metrics touched in two different orders: rows and JSON must be
     identical (sorted by (name, kernel), global scope first). *)
  let touch m order =
    List.iter
      (fun (name, kernel) ->
        match kernel with
        | None -> Obs.Metrics.incr m name
        | Some k -> Obs.Metrics.incr m ~kernel:k name)
      order
  in
  let keys =
    [ ("b", Some 2); ("a", None); ("b", None); ("a", Some 1); ("b", Some 0) ]
  in
  let m1 = Obs.Metrics.create () in
  touch m1 keys;
  let m2 = Obs.Metrics.create () in
  touch m2 (List.rev keys);
  let key_list m = List.map fst (Obs.Metrics.rows m) in
  Alcotest.(check (list (pair string (option int))))
    "sorted, global first"
    [ ("a", None); ("a", Some 1); ("b", None); ("b", Some 0); ("b", Some 2) ]
    (key_list m1);
  Alcotest.(check string) "identical JSON regardless of touch order"
    (Obs.Json.to_string (Obs.Metrics.to_json m1))
    (Obs.Json.to_string (Obs.Metrics.to_json m2))

(* --- JSON serialiser --- *)

let test_json () =
  Alcotest.(check string) "escaping" {|{"k":"a\"b\\c\nd"}|}
    (Obs.Json.to_string (Obs.Json.Obj [ ("k", Obs.Json.Str "a\"b\\c\nd") ]));
  Alcotest.(check string) "nan is null" "[null,null]"
    (Obs.Json.to_string
       (Obs.Json.Arr [ Obs.Json.Float Float.nan; Obs.Json.Float infinity ]));
  Alcotest.(check string) "integral float has no exponent" "2000"
    (Obs.Json.to_string (Obs.Json.Float 2e3));
  Alcotest.(check string) "nested" {|{"a":[1,true,"x"],"b":null}|}
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ( "a",
              Obs.Json.Arr
                [ Obs.Json.Int 1; Obs.Json.Bool true; Obs.Json.Str "x" ] );
            ("b", Obs.Json.Null);
          ]))

(* --- span recorder --- *)

let test_span_nesting () =
  let rec_ = Obs.Span.create () in
  Obs.Span.new_run rec_;
  let mig = Obs.Span.start rec_ ~tid:7 ~kernel:0 ~at:100 Obs.Span.Migration in
  let cap =
    Obs.Span.start rec_ ~parent:mig.Obs.Span.id ~kernel:0 ~at:100
      Obs.Span.Context_capture
  in
  Obs.Span.finish cap ~at:150;
  let xfer =
    Obs.Span.start rec_ ~parent:mig.Obs.Span.id ~kernel:0 ~at:150
      Obs.Span.Transfer
  in
  Obs.Span.finish xfer ~at:400;
  Obs.Span.finish mig ~at:500;
  match Obs.Span.spans rec_ with
  | [ s_mig; s_cap; s_xfer ] ->
      Alcotest.(check bool) "creation order" true
        (s_mig.Obs.Span.id < s_cap.Obs.Span.id
        && s_cap.Obs.Span.id < s_xfer.Obs.Span.id);
      Alcotest.(check (option int)) "root has no parent" None s_mig.Obs.Span.parent;
      Alcotest.(check (option int)) "capture nests under migration"
        (Some s_mig.Obs.Span.id) s_cap.Obs.Span.parent;
      Alcotest.(check (option int)) "transfer nests under migration"
        (Some s_mig.Obs.Span.id) s_xfer.Obs.Span.parent;
      Alcotest.(check int) "closed at finish time" 500 s_mig.Obs.Span.stop;
      Alcotest.(check (option int)) "tid recorded" (Some 7) s_mig.Obs.Span.tid;
      Alcotest.(check int) "run stamped" 0 s_mig.Obs.Span.run;
      Alcotest.(check string) "kind name" "migration"
        (Obs.Span.kind_name s_mig.Obs.Span.kind)
  | spans ->
      Alcotest.failf "expected 3 spans, got %d" (List.length spans)

(* --- end-to-end: an instrumented migration workload --- *)

(* Two threads, each migrating once between two kernels; mirrors the
   `popcornsim metrics demo` shape at a smaller scale. Returns final
   simulated time. *)
let run_workload ?sink ~seed () =
  let machine = Hw.Machine.create ~seed ~sockets:1 ~cores_per_socket:4 () in
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
            let latch = Workloads.Latch.create eng 2 in
            for i = 0 to 1 do
              ignore
                (Popcorn.Api.spawn th ~target:(i mod 2) (fun worker ->
                     Popcorn.Api.compute worker (Sim.Time.us 20);
                     ignore (Popcorn.Api.migrate worker ~dst:((i + 1) mod 2));
                     Popcorn.Api.compute worker (Sim.Time.us 20);
                     Workloads.Latch.arrive latch))
            done;
            Workloads.Latch.wait latch)
      in
      Popcorn.Api.wait_exit cluster proc);
  Sim.Engine.run eng;
  Sim.Engine.now eng

let sum_counter reg name =
  List.fold_left
    (fun acc ((n, _), view) ->
      match view with
      | Obs.Metrics.Counter v when n = name -> acc + v
      | _ -> acc)
    0 (Obs.Metrics.rows reg)

let test_migration_metrics () =
  let sink = Obs.Sink.create () in
  ignore (run_workload ~sink ~seed:42 ());
  let reg = sink.Obs.Sink.metrics in
  Alcotest.(check int) "migrations started" 2 (sum_counter reg "migration.started");
  Alcotest.(check int) "migrations completed" 2
    (sum_counter reg "migration.completed");
  Alcotest.(check int) "none failed" 0 (sum_counter reg "migration.failed");
  Alcotest.(check int) "imports mirror migrations" 2
    (sum_counter reg "migration.imported");
  Alcotest.(check int) "threads spawned" 2 (sum_counter reg "threads.spawned");
  Alcotest.(check bool) "messages flowed" true (sum_counter reg "msg.sent" > 0)

let test_migration_spans_nested () =
  let sink = Obs.Sink.create () in
  ignore (run_workload ~sink ~seed:42 ());
  let spans = Obs.Span.spans sink.Obs.Sink.spans in
  let of_kind k =
    List.filter (fun (s : Obs.Span.span) -> s.Obs.Span.kind = k) spans
  in
  let migs = of_kind Obs.Span.Migration in
  Alcotest.(check int) "one migration span per migrate" 2 (List.length migs);
  let mig_ids = List.map (fun (s : Obs.Span.span) -> s.Obs.Span.id) migs in
  List.iter
    (fun kind ->
      let children = of_kind kind in
      Alcotest.(check int)
        (Obs.Span.kind_name kind ^ " count")
        2 (List.length children);
      List.iter
        (fun (c : Obs.Span.span) ->
          match c.Obs.Span.parent with
          | Some p when List.mem p mig_ids -> ()
          | _ ->
              Alcotest.failf "%s span not nested under a migration"
                (Obs.Span.kind_name kind))
        children)
    [ Obs.Span.Context_capture; Obs.Span.Transfer; Obs.Span.Resume ];
  (* Import runs on the destination; it is a top-level span there. *)
  Alcotest.(check int) "imports" 2 (List.length (of_kind Obs.Span.Import));
  List.iter
    (fun (s : Obs.Span.span) ->
      Alcotest.(check bool) "span closed" true (s.Obs.Span.stop >= s.Obs.Span.start))
    spans

let test_observation_is_pure () =
  (* Attaching the full sink must not move simulated time: identical final
     clock with and without instrumentation. *)
  let bare = run_workload ~seed:42 () in
  let observed = run_workload ~sink:(Obs.Sink.create ()) ~seed:42 () in
  Alcotest.(check int) "identical simulated time" bare observed

let test_metrics_deterministic_across_runs () =
  (* Same seed, two separate runs: byte-identical metrics JSON. *)
  let once () =
    let sink = Obs.Sink.create () in
    ignore (run_workload ~sink ~seed:7 ());
    Obs.Json.to_string (Obs.Metrics.to_json sink.Obs.Sink.metrics)
  in
  Alcotest.(check string) "metrics JSON reproducible" (once ()) (once ())

(* --- Chrome trace export --- *)

let test_chrome_trace_export () =
  let sink = Obs.Sink.create () in
  ignore (run_workload ~sink ~seed:42 ());
  match Obs.Export.chrome_trace [ sink ] with
  | Obs.Json.Obj fields ->
      Alcotest.(check (option string)) "displayTimeUnit"
        (Some "ns")
        (match List.assoc_opt "displayTimeUnit" fields with
        | Some (Obs.Json.Str s) -> Some s
        | _ -> None);
      let events =
        match List.assoc_opt "traceEvents" fields with
        | Some (Obs.Json.Arr evs) -> evs
        | _ -> Alcotest.fail "traceEvents must be an array"
      in
      let phase ev =
        match ev with
        | Obs.Json.Obj f -> (
            match List.assoc_opt "ph" f with
            | Some (Obs.Json.Str p) -> p
            | _ -> "?")
        | _ -> "?"
      in
      let complete = List.filter (fun e -> phase e = "X") events in
      let spans = Obs.Span.spans sink.Obs.Sink.spans in
      Alcotest.(check int) "one X event per span" (List.length spans)
        (List.length complete);
      Alcotest.(check bool) "process metadata present" true
        (List.exists (fun e -> phase e = "M") events);
      (* Every X event carries the required trace_event fields. *)
      List.iter
        (fun ev ->
          match ev with
          | Obs.Json.Obj f ->
              List.iter
                (fun key ->
                  Alcotest.(check bool) (key ^ " present") true
                    (List.mem_assoc key f))
                [ "name"; "pid"; "tid"; "ts"; "dur" ]
          | _ -> Alcotest.fail "event must be an object")
        complete
  | _ -> Alcotest.fail "chrome trace must be a JSON object"

let test_multi_run_tracks () =
  (* One recorder shared by two boots (as `--json` over a sweep does):
     runs must export to disjoint pid ranges. *)
  let sink = Obs.Sink.create () in
  ignore (run_workload ~sink ~seed:3 ());
  ignore (run_workload ~sink ~seed:3 ());
  let spans = Obs.Span.spans sink.Obs.Sink.spans in
  let runs =
    List.sort_uniq compare (List.map (fun (s : Obs.Span.span) -> s.Obs.Span.run) spans)
  in
  Alcotest.(check (list int)) "two distinct runs" [ 0; 1 ] runs

(* --- metrics interning --- *)

let test_interned_cells_distinct () =
  let m = Obs.Metrics.create () in
  (* One name, three scopes: global, kernel 0, kernel 7. Interning maps
     them all to one name id; the cells must stay distinct. *)
  Obs.Metrics.add m "migrations" 5;
  Obs.Metrics.incr m ~kernel:0 "migrations";
  Obs.Metrics.add m ~kernel:7 "migrations" 3;
  Obs.Metrics.incr m ~kernel:7 "migrations";
  Alcotest.(check int) "global" 5 (Obs.Metrics.counter m "migrations");
  Alcotest.(check int) "k0" 1 (Obs.Metrics.counter m ~kernel:0 "migrations");
  Alcotest.(check int) "k7" 4 (Obs.Metrics.counter m ~kernel:7 "migrations");
  (* Handles resolve to the same distinct cells. *)
  let h0 = Obs.Metrics.counter_handle m ~kernel:0 "migrations" in
  let h7 = Obs.Metrics.counter_handle m ~kernel:7 "migrations" in
  Obs.Metrics.handle_incr h0;
  Obs.Metrics.handle_add h7 10;
  Alcotest.(check int) "k0 via handle" 2
    (Obs.Metrics.counter m ~kernel:0 "migrations");
  Alcotest.(check int) "k7 via handle" 14
    (Obs.Metrics.counter m ~kernel:7 "migrations");
  (* Row order: global scope sorts before per-kernel scopes. *)
  let keys = List.map fst (Obs.Metrics.rows m) in
  Alcotest.(check bool)
    "rows ordered (name, None) < (name, Some k)" true
    (keys
    = [
        ("migrations", None); ("migrations", Some 0); ("migrations", Some 7);
      ])

(* A faithful string-keyed reference registry — the pre-interning
   implementation: one Hashtbl over (name, kernel option), read out by
   sorting the keys. Drives the byte-identity check below. *)
module String_keyed = struct
  type cell =
    | C of int ref
    | G of float ref
    | H of Stats.Histogram.t

  type t = (string * int option, cell) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let cell t key mk =
    match Hashtbl.find_opt t key with
    | Some c -> c
    | None ->
        let c = mk () in
        Hashtbl.add t key c;
        c

  let add t ?kernel name n =
    match cell t (name, kernel) (fun () -> C (ref 0)) with
    | C r -> r := !r + n
    | _ -> assert false

  let set_gauge t ?kernel name x =
    match cell t (name, kernel) (fun () -> G (ref 0.)) with
    | G r -> r := x
    | _ -> assert false

  let observe t ?kernel name x =
    match cell t (name, kernel) (fun () -> H (Stats.Histogram.create ()))
    with
    | H h -> Stats.Histogram.add h x
    | _ -> assert false

  let to_json (t : t) =
    let open Obs.Json in
    let rows =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []
      |> List.sort (fun (ka, _) (kb, _) -> compare ka kb)
    in
    let scope = function None -> Null | Some k -> Int k in
    let entry extra ((name, kernel), _) =
      Obj (("name", Str name) :: ("kernel", scope kernel) :: extra)
    in
    let counters, gauges, hists =
      List.fold_left
        (fun (cs, gs, hs) ((_, v) as row) ->
          match v with
          | C r -> (entry [ ("value", Int !r) ] row :: cs, gs, hs)
          | G r -> (cs, entry [ ("value", Float !r) ] row :: gs, hs)
          | H h ->
              ( cs,
                gs,
                entry
                  [
                    ("count", Int (Stats.Histogram.count h));
                    ("mean", Float (Stats.Histogram.mean h));
                    ("p50", Float (Stats.Histogram.median h));
                    ("p99", Float (Stats.Histogram.p99 h));
                    ("p999", Float (Stats.Histogram.p999 h));
                    ("max", Float (Stats.Histogram.max h));
                  ]
                  row
                :: hs ))
        ([], [], []) rows
    in
    Obj
      [
        ("counters", Arr (List.rev counters));
        ("gauges", Arr (List.rev gauges));
        ("histograms", Arr (List.rev hists));
      ]
end

let test_to_json_byte_identical () =
  (* A seeded op sequence over a realistic name/kernel space, applied to
     both registries; the JSON exports must agree byte for byte. The
     names are minted in a scrambled order on purpose — the export is
     sorted, so first-touch order must not leak. *)
  let m = Obs.Metrics.create () in
  let r = String_keyed.create () in
  let rng = Sim.Prng.create ~seed:20260808 in
  let names =
    [|
      "msg.sent";
      "msg.latency_ns";
      "sched.load";
      "migrations";
      "coherence.faults";
      "slo.violations";
    |]
  in
  for _ = 1 to 2_000 do
    let name = names.(Sim.Prng.int_in rng 0 (Array.length names - 1)) in
    let kernel =
      match Sim.Prng.int_in rng 0 3 with
      | 0 -> None
      | k -> Some (k - 1)
    in
    (* Partition kinds by name so both registries agree on the kind. *)
    match name with
    | "msg.latency_ns" ->
        let x = float_of_int (Sim.Prng.int_in rng 100 100_000) in
        Obs.Metrics.observe m ?kernel name x;
        String_keyed.observe r ?kernel name x
    | "sched.load" ->
        let x = float_of_int (Sim.Prng.int_in rng 0 100) /. 7. in
        Obs.Metrics.set_gauge m ?kernel name x;
        String_keyed.set_gauge r ?kernel name x
    | _ ->
        let n = Sim.Prng.int_in rng 1 5 in
        Obs.Metrics.add m ?kernel name n;
        String_keyed.add r ?kernel name n
  done;
  Alcotest.(check string)
    "byte-identical export"
    (Obs.Json.to_string (String_keyed.to_json r))
    (Obs.Json.to_string (Obs.Metrics.to_json m))

let test_kind_mismatch_raises () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "x";
  Alcotest.check_raises "observe on a counter name"
    (Invalid_argument "Metrics: x is a counter, not a histogram") (fun () ->
      Obs.Metrics.observe m "x" 1.)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "basics" `Quick test_metrics_basics;
          Alcotest.test_case "deterministic rows" `Quick
            test_metrics_rows_deterministic;
        ] );
      ("json", [ Alcotest.test_case "serialiser" `Quick test_json ]);
      ("spans", [ Alcotest.test_case "nesting" `Quick test_span_nesting ]);
      ( "end-to-end",
        [
          Alcotest.test_case "migration metrics" `Quick test_migration_metrics;
          Alcotest.test_case "migration spans nest" `Quick
            test_migration_spans_nested;
          Alcotest.test_case "observation is pure" `Quick
            test_observation_is_pure;
          Alcotest.test_case "deterministic across runs" `Quick
            test_metrics_deterministic_across_runs;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace" `Quick test_chrome_trace_export;
          Alcotest.test_case "multi-run tracks" `Quick test_multi_run_tracks;
        ] );
      ( "interning",
        [
          Alcotest.test_case "cells distinct across kernels" `Quick
            test_interned_cells_distinct;
          Alcotest.test_case "to_json byte-identical to string-keyed"
            `Quick test_to_json_byte_identical;
          Alcotest.test_case "kind mismatch raises" `Quick
            test_kind_mismatch_raises;
        ] );
    ]
