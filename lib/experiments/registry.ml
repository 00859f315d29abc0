(** Experiment registry: maps stable experiment ids to runners. *)

type t = {
  id : string;
  title : string;
  run : Run_ctx.t -> Stats.Table.t list;
}

let all : t list =
  [
    {
      id = "T1";
      title = "Thread migration cost breakdown";
      run = T1_migration.run;
    };
    {
      id = "T2";
      title = "Messaging layer latency/throughput";
      run = T2_messaging.run;
    };
    {
      id = "F1";
      title = "Thread creation latency vs group size";
      run = F1_thread_create.run;
    };
    {
      id = "F2";
      title = "Thread creation throughput scalability";
      run = F2_spawn_scale.run;
    };
    {
      id = "F3";
      title = "mmap/munmap throughput scalability";
      run = F3_mmap_scale.run;
    };
    { id = "F4"; title = "Page fault service latency"; run = F4_page_fault.run };
    { id = "F5"; title = "Futex latency and throughput"; run = F5_futex.run };
    {
      id = "F6";
      title = "Application scalability (Popcorn vs SMP vs multikernel)";
      run = F6_apps.run;
    };
    {
      id = "F7";
      title = "Process creation scalability (fork storm)";
      run = F7_processes.run;
    };
    {
      id = "T3";
      title = "Remote syscall forwarding (SSI file I/O)";
      run = T3_syscalls.run;
    };
    {
      id = "A1";
      title = "Design-choice ablations (pool, replication, prefetch)";
      run = A1_ablations.run;
    };
    {
      id = "A2";
      title = "Kernel granularity sweep (partitioning trade-off)";
      run = A2_granularity.run;
    };
    {
      id = "R1";
      title = "Migration under injected messaging faults (robustness)";
      run = R1_faults.run;
    };
    {
      id = "R2";
      title = "Health-aware placement under faults (open-loop server load)";
      run = R2_placement.run;
    };
    {
      id = "R3";
      title = "Coherence protocol crossover (kernels x write-sharing)";
      run = R3_coherence.run;
    };
    {
      id = "R4";
      title = "Deadline SLO envelope (fault rate x offered load)";
      run = R4_slo.run;
    };
  ]

let find id =
  List.find_opt (fun e -> String.lowercase_ascii e.id = String.lowercase_ascii id) all

(** Everything one experiment run produced: its tables, the host wall-clock
    of the experiment body alone (sink post-processing and rendering are
    excluded), the total simulator events the body executed, the
    observability sink and profiler that were live during the run (when
    [observe] / [profile] were on), the worst-case & SLO summary (when
    observed), and the rendered textual output. [output] and
    {!outcome_json} are functions of the run alone, so together they are
    its identity: host time appears only in {!host_line} and
    {!suite_total_line}, which the CLI prints beside them. [run_one] never
    prints — callers decide when to emit [output], which is what lets
    [run_all] overlap experiment execution while still presenting results
    in registry order. *)
type outcome = {
  spec : t;
  host_ms : float;
  events_processed : int;
  tables : Stats.Table.t list;
  sink : Obs.Sink.t option;
  prof : Obs.Prof.t option;
  slo : Obs.Slo.t option;
  output : string;
}

(* Below ~1 ms of host time the division is dominated by timer
   resolution — the "rate" would be noise, or a flat 0.0 when the clock
   never ticked, which reads as "infinitely slow". Print "n/a" instead. *)
let render_mev_s ~events ~host_ms =
  if host_ms >= 1.0 then
    Printf.sprintf "%.2f Mev/s" (float_of_int events /. host_ms /. 1e3)
  else "n/a Mev/s"

let host_line (o : outcome) =
  Printf.sprintf "(%s: %.0f ms host time, %d events, %s)\n" o.spec.id
    o.host_ms o.events_processed
    (render_mev_s ~events:o.events_processed ~host_ms:o.host_ms)

(** Suite-level engine throughput: total events over total host time. A
    single aggregate is far less noisy than per-experiment rates (several
    experiments finish under a millisecond in --quick). *)
let suite_total_line (outcomes : outcome list) =
  let host_ms, events =
    List.fold_left
      (fun (ms, ev) o -> (ms +. o.host_ms, ev + o.events_processed))
      (0., 0) outcomes
  in
  Printf.sprintf "== suite total: %.0f ms host time, %d events, %s ==" host_ms
    events
    (render_mev_s ~events ~host_ms)

let run_one ?(quick = false) ?(observe = false) ?(profile = false) ?seed
    ?coherence (e : t) : outcome =
  let sink = if observe then Some (Obs.Sink.create ()) else None in
  let prof = if profile then Some (Obs.Prof.create ()) else None in
  let ctx = Run_ctx.create ?sink ?prof ?seed ?coherence ~quick () in
  let t0 = Unix.gettimeofday () in
  let tables = e.run ctx in
  let host_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  let events_processed = Run_ctx.total_events ctx in
  (* Instrumentation-health metrics, recorded after the run so they see
     the final state: spans the workload never closed (analysis clamps
     them to end-of-run) and trace-ring events evicted by the capacity
     bound. *)
  (match sink with
  | None -> ()
  | Some s ->
      let unclosed =
        List.fold_left
          (fun n (sp : Obs.Span.span) ->
            if sp.Obs.Span.stop < 0 then n + 1 else n)
          0
          (Obs.Span.spans s.Obs.Sink.spans)
      in
      Obs.Metrics.add s.Obs.Sink.metrics "spans.unclosed" unclosed;
      Obs.Metrics.add s.Obs.Sink.metrics "trace.dropped"
        (Sim.Trace.total s.Obs.Sink.trace - Sim.Trace.count s.Obs.Sink.trace));
  (* Worst-case & SLO summary over the run's span DAG. Recording it into
     the metrics registry (slo.<kind>.worst_case_ns gauges) is what lets
     the committed baseline carry the bound and `popcornsim diff` gate a
     worst-case regression like any other time metric. Purely a function
     of simulated data, so it is bit-identical across hosts and --jobs. *)
  let slo =
    match sink with
    | None -> None
    | Some s ->
        let t =
          Obs.Slo.summarize
            ~counters:(Obs.Slo.counters_of_registry s.Obs.Sink.metrics)
            (Obs.Critpath.build
               ~spans:(Obs.Span.spans s.Obs.Sink.spans)
               ~causal:(Obs.Causal.events s.Obs.Sink.causal))
        in
        Obs.Slo.record t s.Obs.Sink.metrics;
        Some t
  in
  let b = Buffer.create 4096 in
  Printf.bprintf b "\n### %s — %s\n\n" e.id e.title;
  Buffer.add_string b (Run_ctx.output ctx);
  List.iter
    (fun t ->
      Buffer.add_string b (Stats.Table.render t);
      Buffer.add_char b '\n')
    tables;
  {
    spec = e;
    host_ms;
    events_processed;
    tables;
    sink;
    prof;
    slo;
    output = Buffer.contents b;
  }

(** Parallel suite runner. Experiments are independent by construction
    (each [run_one] builds a private [Run_ctx.t], sink and machines), so
    scheduling them across [Domain]s cannot change any result: outcomes
    are returned in registry order and are bit-identical to [jobs = 1].
    Work-stealing over an atomic index keeps all domains busy even though
    experiment durations vary by an order of magnitude. *)
let default_jobs () = Domain.recommended_domain_count ()

let run_all ?quick ?observe ?profile ?seed ?coherence ?jobs () :
    outcome list =
  let specs = Array.of_list all in
  let n = Array.length specs in
  let jobs =
    max 1 (min n (match jobs with Some j -> j | None -> default_jobs ()))
  in
  if jobs = 1 then
    List.map (fun e -> run_one ?quick ?observe ?profile ?seed ?coherence e) all
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <-
            Some (run_one ?quick ?observe ?profile ?seed ?coherence specs.(i));
          loop ()
        end
      in
      loop ()
    in
    let helpers = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join helpers;
    Array.to_list results
    |> List.map (function
         | Some o -> o
         | None -> failwith "Registry.run_all: experiment produced no outcome")
  end

(* --- machine-readable results (schema documented in EXPERIMENTS.md) --- *)

let table_json (t : Stats.Table.t) =
  Obs.Json.Obj
    [
      ("title", Obs.Json.Str (Stats.Table.title t));
      ( "columns",
        Obs.Json.Arr
          (List.map (fun c -> Obs.Json.Str c) (Stats.Table.columns t)) );
      ( "rows",
        Obs.Json.Arr
          (List.map
             (fun row -> Obs.Json.Arr (List.map (fun c -> Obs.Json.Str c) row))
             (Stats.Table.rows t)) );
    ]

let outcome_json ?(metrics_only = false) (o : outcome) =
  Obs.Json.Obj
    ([
       ("id", Obs.Json.Str o.spec.id);
       ("title", Obs.Json.Str o.spec.title);
       ("events_processed", Obs.Json.Int o.events_processed);
       ("tables", Obs.Json.Arr (List.map table_json o.tables));
     ]
    @ (match o.slo with
      | Some t when t.Obs.Slo.kinds <> [] -> [ ("slo", Obs.Slo.to_json t) ]
      | Some _ | None -> [])
    @
    match o.sink with
    | None -> []
    | Some s ->
        ("metrics", Obs.Metrics.to_json s.Obs.Sink.metrics)
        ::
        (if metrics_only then []
         else
           [
             ( "spans",
               Obs.Json.Arr
                 (List.map Obs.Span.to_json (Obs.Span.spans s.Obs.Sink.spans))
             );
             ("causal", Obs.Causal.to_json s.Obs.Sink.causal);
           ]))

(* v2 adds per-experiment "spans" and "causal" sections (when the run was
   observed) for `popcornsim analyze`; `popcornsim diff` accepts v1 too.
   [metrics_only] drops those sections; the result is small enough to
   commit as a baseline (bench/baseline.json). *)
let report_json ?(quick = false) ?(metrics_only = false)
    (outcomes : outcome list) =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str "popcornsim-bench-v2");
      ("quick", Obs.Json.Bool quick);
      ( "experiments",
        Obs.Json.Arr (List.map (outcome_json ~metrics_only) outcomes) );
    ]
