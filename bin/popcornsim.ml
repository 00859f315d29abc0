(* popcornsim — command-line driver for the replicated-kernel OS simulator.

   Subcommands:
     list               show the reproduction experiments
     run <id> [--quick] run one experiment (ids from `popcornsim list`)
     all [--quick]      run every experiment
     demo [...]         boot a cluster and run a demonstration workload
     metrics demo [...] demo workload with the observability layer attached
     profile <id> [...] run one experiment under the host-time profiler
     analyze <file>     causal / critical-path report over exported results
     diff <old> <new>   compare two results files metric-by-metric

   `run` and `all` accept --seed N (machine seed; default 42), --coherence
   PROTO, --json FILE (machine-readable results + metrics), --trace-out
   FILE (Chrome trace_event JSON of the migration-protocol spans; load it
   at https://ui.perfetto.dev) and --baseline-out FILE. `all` also accepts
   --jobs N: experiments are scheduled over N domains (default: host
   cores) with results identical to a serial run and printed in registry
   order. `analyze` reads either file kind; `diff --fail-on-regress PCT`
   exits 3 on regression. *)

open Cmdliner

(* Derived from the registry so the docs can never go stale. *)
let experiment_ids =
  String.concat ", "
    (List.map
       (fun (e : Experiments.Registry.t) -> e.Experiments.Registry.id)
       Experiments.Registry.all)

let quick =
  let doc = "Shrink parameter sweeps for a fast run." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let seed =
  let doc =
    "Seed for every machine an experiment boots (the simulation is \
     deterministic: one seed, one result)."
  in
  Arg.(
    value
    & opt int Experiments.Run_ctx.default_seed
    & info [ "seed" ] ~docv:"N" ~doc)

let coherence =
  let protos =
    List.map
      (fun p -> (Coherence.Protocol.to_string p, p))
      Coherence.Protocol.all
  in
  let doc =
    Printf.sprintf
      "Page-coherence protocol every Popcorn cluster boots with: %s \
       (origin-home directory, the paper's design) or %s (vpn-sharded \
       directory). Experiments that pin their own options — the ablations, \
       and F4's explicit protocol comparison — are unaffected."
      (Cmdliner.Manpage.escape "origin")
      (Cmdliner.Manpage.escape "sharded")
  in
  Arg.(
    value
    & opt (enum protos) Coherence.Protocol.Origin_home
    & info [ "coherence" ] ~docv:"PROTO" ~doc)

(* Validated numeric converters: a nonsensical $(b,--top 0) or
   $(b,--fail-on-regress -5) is a usage error at parse time, not a value
   to silently accept (a negative threshold would flag every unchanged
   metric as a regression). *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some _ -> Error (`Msg (Printf.sprintf "%S must be a positive integer" s))
    | None -> Error (`Msg (Printf.sprintf "%S is not an integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let nonneg_float =
  let parse s =
    match float_of_string_opt s with
    | Some f when Float.is_finite f && f >= 0. -> Ok f
    | Some _ ->
        Error
          (`Msg (Printf.sprintf "%S must be a finite non-negative number" s))
    | None -> Error (`Msg (Printf.sprintf "%S is not a number" s))
  in
  Arg.conv (parse, fun ppf f -> Format.fprintf ppf "%g" f)

let jobs =
  let doc =
    "Run up to $(docv) experiments concurrently on separate domains \
     (default: host cores). Results are identical to $(b,--jobs 1) — every \
     experiment owns its context, sink and machines — and are printed in \
     registry order."
  in
  Arg.(value & opt (some int) None & info [ "jobs" ] ~docv:"N" ~doc)

let json_out =
  let doc = "Write machine-readable results (tables + metrics) to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let trace_out =
  let doc =
    "Write a Chrome trace_event JSON of the recorded protocol spans to \
     $(docv) (load in Perfetto or chrome://tracing)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let baseline_out =
  let doc =
    "Write a metrics-only copy of the results (no spans/causal sections) to \
     $(docv); small enough to commit as the simulated-metric baseline for \
     $(b,popcornsim diff)."
  in
  Arg.(
    value & opt (some string) None & info [ "baseline-out" ] ~docv:"FILE" ~doc)

(* Shared by `run` and `all`: export outcomes to --json / --trace-out /
   --baseline-out. *)
let export ~quick outcomes json trace baseline =
  (match json with
  | None -> ()
  | Some path ->
      Obs.Json.to_file path (Experiments.Registry.report_json ~quick outcomes);
      Printf.printf "wrote %s\n" path);
  (match baseline with
  | None -> ()
  | Some path ->
      Obs.Json.to_file path
        (Experiments.Registry.report_json ~quick ~metrics_only:true outcomes);
      Printf.printf "wrote %s\n" path);
  match trace with
  | None -> ()
  | Some path ->
      let sinks =
        List.filter_map
          (fun (o : Experiments.Registry.outcome) -> o.sink)
          outcomes
      in
      Obs.Json.to_file path (Obs.Export.chrome_trace sinks);
      Printf.printf "wrote %s\n" path

(* --- list --- *)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Experiments.Registry.t) ->
        Printf.printf "%-4s %s\n" e.Experiments.Registry.id
          e.Experiments.Registry.title)
      Experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the reproduction experiments.")
    Term.(const run $ const ())

(* --- run --- *)

let run_cmd =
  let id =
    let doc = Printf.sprintf "Experiment id (%s)." experiment_ids in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc)
  in
  let run id quick seed coherence json trace baseline =
    match Experiments.Registry.find id with
    | Some e ->
        let observe = json <> None || trace <> None || baseline <> None in
        let o =
          Experiments.Registry.run_one ~quick ~observe ~seed ~coherence e
        in
        print_string o.Experiments.Registry.output;
        print_string (Experiments.Registry.host_line o);
        flush stdout;
        export ~quick [ o ] json trace baseline;
        `Ok ()
    | None -> `Error (false, "unknown experiment id: " ^ id)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one experiment and print its tables.")
    Term.(
      ret
        (const run $ id $ quick $ seed $ coherence $ json_out $ trace_out
       $ baseline_out))

(* --- all --- *)

let all_cmd =
  let run quick seed coherence jobs json trace baseline =
    let observe = json <> None || trace <> None || baseline <> None in
    let outcomes =
      Experiments.Registry.run_all ~quick ~observe ~seed ~coherence ?jobs ()
    in
    List.iter
      (fun (o : Experiments.Registry.outcome) ->
        print_string o.output;
        print_string (Experiments.Registry.host_line o))
      outcomes;
    print_newline ();
    print_endline (Experiments.Registry.suite_total_line outcomes);
    flush stdout;
    export ~quick outcomes json trace baseline
  in
  Cmd.v (Cmd.info "all" ~doc:"Run every experiment.")
    Term.(
      const run $ quick $ seed $ coherence $ jobs $ json_out $ trace_out
      $ baseline_out)

(* --- demo --- *)

let demo_cmd =
  let kernels =
    let doc = "Number of kernels to boot." in
    Arg.(value & opt int 4 & info [ "kernels" ] ~doc)
  in
  let threads =
    let doc = "Worker threads to span across the kernels." in
    Arg.(value & opt int 8 & info [ "threads" ] ~doc)
  in
  let trace_flag =
    let doc = "Dump the protocol-event timeline after the run." in
    Arg.(value & flag & info [ "trace" ] ~doc)
  in
  let run kernels threads trace =
    if kernels < 1 || 16 mod kernels <> 0 then
      `Error (false, "kernels must divide 16")
    else begin
      let machine = Hw.Machine.create ~sockets:2 ~cores_per_socket:8 () in
      let cluster =
        Popcorn.Cluster.boot machine ~kernels ~cores_per_kernel:(16 / kernels)
      in
      let tracer =
        if trace then Some (Popcorn.Cluster.enable_tracing cluster) else None
      in
      let eng = machine.Hw.Machine.eng in
      Sim.Engine.spawn eng (fun () ->
          let proc =
            Popcorn.Api.start_process cluster ~origin:0 (fun th ->
                let latch = Workloads.Latch.create eng threads in
                for i = 0 to threads - 1 do
                  ignore
                    (Popcorn.Api.spawn th ~target:(i mod kernels)
                       (fun worker ->
                         Popcorn.Api.compute worker (Sim.Time.us 200);
                         ignore
                           (Popcorn.Api.migrate worker
                              ~dst:((i + 1) mod kernels));
                         Popcorn.Api.compute worker (Sim.Time.us 200);
                         Workloads.Latch.arrive latch))
                done;
                Workloads.Latch.wait latch)
          in
          Popcorn.Api.wait_exit cluster proc);
      Sim.Engine.run eng;
      (match tracer with
      | Some tr ->
          print_endline "protocol timeline:";
          Format.printf "%a@?" Sim.Trace.pp tr
      | None -> ());
      let st = Msg.Transport.stats cluster.Popcorn.Types.fabric in
      Printf.printf
        "demo: %d threads over %d kernels; simulated time %s; %d messages \
         (%d doorbells); %d events\n"
        threads kernels
        (Sim.Time.to_string (Sim.Engine.now eng))
        st.Msg.Transport.sent st.Msg.Transport.doorbells
        (Sim.Engine.events_processed eng);
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "demo"
       ~doc:"Boot a cluster, span threads across kernels, migrate them.")
    Term.(ret (const run $ kernels $ threads $ trace_flag))

(* --- metrics (observability demo) --- *)

let metrics_demo_cmd =
  let kernels =
    let doc = "Number of kernels to boot." in
    Arg.(value & opt int 4 & info [ "kernels" ] ~doc)
  in
  let threads =
    let doc = "Worker threads to span across the kernels." in
    Arg.(value & opt int 8 & info [ "threads" ] ~doc)
  in
  let run kernels threads json trace =
    if kernels < 1 || 16 mod kernels <> 0 then
      `Error (false, "kernels must divide 16")
    else begin
      let machine = Hw.Machine.create ~sockets:2 ~cores_per_socket:8 () in
      let cluster =
        Popcorn.Cluster.boot machine ~kernels ~cores_per_kernel:(16 / kernels)
      in
      let sink = Obs.Sink.create () in
      Hw.Machine.attach_obs machine sink;
      Popcorn.Cluster.observe cluster sink;
      let eng = machine.Hw.Machine.eng in
      Sim.Engine.spawn eng (fun () ->
          let proc =
            Popcorn.Api.start_process cluster ~origin:0 (fun th ->
                let latch = Workloads.Latch.create eng threads in
                for i = 0 to threads - 1 do
                  ignore
                    (Popcorn.Api.spawn th ~target:(i mod kernels)
                       (fun worker ->
                         Popcorn.Api.compute worker (Sim.Time.us 50);
                         (* Shared-heap writes to exercise page coherence. *)
                         for p = 0 to 3 do
                           ignore
                             (Popcorn.Api.write worker
                                ~addr:(0x800000 + (p * 4096)))
                         done;
                         ignore
                           (Popcorn.Api.migrate worker
                              ~dst:((i + 1) mod kernels));
                         Popcorn.Api.compute worker (Sim.Time.us 50);
                         (* A short timed futex wait: futex.waits with no
                            matching wake, so it times out. *)
                         ignore
                           (Popcorn.Api.futex_wait worker ~addr:0x800100
                              ~timeout:(Sim.Time.us 20) ());
                         Workloads.Latch.arrive latch))
                done;
                Workloads.Latch.wait latch)
          in
          Popcorn.Api.wait_exit cluster proc);
      Sim.Engine.run eng;
      Printf.printf
        "metrics demo: %d threads over %d kernels; simulated time %s\n\n"
        threads kernels
        (Sim.Time.to_string (Sim.Engine.now eng));
      Format.printf "%a@?" Obs.Metrics.pp sink.Obs.Sink.metrics;
      (match json with
      | None -> ()
      | Some path ->
          Obs.Json.to_file path (Obs.Metrics.to_json sink.Obs.Sink.metrics);
          Printf.printf "wrote %s\n" path);
      (match trace with
      | None -> ()
      | Some path ->
          Obs.Json.to_file path (Obs.Export.chrome_trace [ sink ]);
          Printf.printf "wrote %s\n" path);
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "demo"
       ~doc:
         "Demo workload with the observability layer attached; prints the \
          per-kernel metrics and optionally exports them.")
    Term.(ret (const run $ kernels $ threads $ json_out $ trace_out))

let metrics_cmd =
  Cmd.group
    (Cmd.info "metrics"
       ~doc:"Observability: run instrumented workloads and export metrics.")
    [ metrics_demo_cmd ]

(* --- profile --- *)

let profile_cmd =
  let id =
    let doc = Printf.sprintf "Experiment id (%s)." experiment_ids in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc)
  in
  let top =
    let doc = "Show the $(docv) hottest labels in the attribution table." in
    Arg.(value & opt positive_int 10 & info [ "top" ] ~docv:"N" ~doc)
  in
  let folded_out =
    let doc =
      "Write collapsed-stack (\"folded\") lines to $(docv) — feed to \
       flamegraph.pl or any folded-format viewer."
    in
    Arg.(
      value & opt (some string) None & info [ "folded-out" ] ~docv:"FILE" ~doc)
  in
  let profile_out =
    let doc =
      "Write the raw profile (per-label attribution + scheduler-telemetry \
       samples, schema popcornsim-profile-v1) to $(docv)."
    in
    Arg.(
      value & opt (some string) None & info [ "profile-out" ] ~docv:"FILE" ~doc)
  in
  let overhead =
    let doc =
      "Instead of a profile, measure what observation costs: run the \
       experiment three times (observability off, metrics+spans on, \
       profiled) and report the host time of each."
    in
    Arg.(value & flag & info [ "overhead" ] ~doc)
  in
  let run id quick seed coherence top folded profile_out overhead =
    match Experiments.Registry.find id with
    | None -> `Error (false, "unknown experiment id: " ^ id)
    | Some e ->
        if overhead then begin
          Printf.printf
            "overhead comparison for %s%s (one run per mode; host time is \
             noisy — indicative, not a benchmark):\n"
            e.Experiments.Registry.id
            (if quick then " --quick" else "");
          let time label ~observe ~profile =
            let o =
              Experiments.Registry.run_one ~quick ~observe ~profile ~seed
                ~coherence e
            in
            Printf.printf "  %-24s %8.0f ms  %9d events  %12s\n" label
              o.Experiments.Registry.host_ms
              o.Experiments.Registry.events_processed
              (Experiments.Registry.render_mev_s
                 ~events:o.Experiments.Registry.events_processed
                 ~host_ms:o.Experiments.Registry.host_ms);
            o.Experiments.Registry.host_ms
          in
          let off = time "observability off" ~observe:false ~profile:false in
          let on = time "metrics+spans on" ~observe:true ~profile:false in
          let prof = time "profiled" ~observe:false ~profile:true in
          let rel x =
            if off > 0. then Printf.sprintf "%+.1f%%" (100. *. (x -. off) /. off)
            else "n/a"
          in
          Printf.printf
            "  relative to off: metrics+spans %s, profiled %s (simulated \
             results are bit-identical in all three modes)\n"
            (rel on) (rel prof);
          `Ok ()
        end
        else begin
          let o =
            Experiments.Registry.run_one ~quick ~profile:true ~seed ~coherence
              e
          in
          print_string o.Experiments.Registry.output;
          print_string (Experiments.Registry.host_line o);
          print_newline ();
          let p =
            match o.Experiments.Registry.prof with
            | Some p -> p
            | None -> assert false (* run_one ~profile:true always sets it *)
          in
          print_string
            (Obs.Prof.report p ~host_ms:o.Experiments.Registry.host_ms ~top);
          (match folded with
          | None -> ()
          | Some path ->
              Out_channel.with_open_text path (fun oc ->
                  Out_channel.output_string oc (Obs.Prof.folded p));
              Printf.printf "wrote %s\n" path);
          (match profile_out with
          | None -> ()
          | Some path ->
              Obs.Json.to_file path
                (Obs.Prof.to_json p ~host_ms:o.Experiments.Registry.host_ms);
              Printf.printf "wrote %s\n" path);
          `Ok ()
        end
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run one experiment under the host-time profiler: wall-clock \
          self-time, event counts and GC allocation attributed to fiber \
          labels, plus scheduler telemetry sampled over virtual time. \
          Profiling never perturbs simulated results.")
    Term.(
      ret
        (const run $ id $ quick $ seed $ coherence $ top $ folded_out
       $ profile_out $ overhead))

(* --- analyze --- *)

let analyze_cmd =
  let file =
    let doc =
      "Results file from --json (popcornsim-bench-v2) or Chrome trace from \
       --trace-out."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run file =
    match Obs.Json.of_file file with
    | Error e -> `Error (false, Printf.sprintf "%s: %s" file e)
    | Ok doc -> (
        match Obs.Report.analyze_doc doc with
        | Ok report ->
            print_string report;
            `Ok ()
        | Error e -> `Error (false, Printf.sprintf "%s: %s" file e))
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Reconstruct the cross-kernel happens-before DAG from an exported \
          run and print per-subsystem self time plus the critical path of \
          each migration / thread-group-create.")
    Term.(ret (const run $ file))

(* --- diff --- *)

let diff_cmd =
  let old_file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OLD" ~doc:"Baseline results file (--json output).")
  in
  let new_file =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"NEW" ~doc:"Candidate results file (--json output).")
  in
  let fail_on_regress =
    let doc =
      "Exit 3 when any time metric regressed by more than $(docv) percent \
       or any failure counter increased."
    in
    Arg.(
      value
      & opt (some nonneg_float) None
      & info [ "fail-on-regress" ] ~docv:"PCT" ~doc)
  in
  let run old_file new_file fail_pct =
    match (Obs.Json.of_file old_file, Obs.Json.of_file new_file) with
    | Error e, _ -> `Error (false, Printf.sprintf "%s: %s" old_file e)
    | _, Error e -> `Error (false, Printf.sprintf "%s: %s" new_file e)
    | Ok old_doc, Ok new_doc ->
        let report, regressions =
          Obs.Report.diff ?fail_pct ~old_doc ~new_doc ()
        in
        print_string report;
        if regressions > 0 && fail_pct <> None then Stdlib.exit 3;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two results files metric-by-metric; the simulated-metric \
          regression gate for CI.")
    Term.(ret (const run $ old_file $ new_file $ fail_on_regress))

let () =
  let info =
    Cmd.info "popcornsim" ~version:"1.0.0"
      ~doc:"Replicated-kernel OS simulator (Popcorn Linux reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; all_cmd; demo_cmd; metrics_cmd; profile_cmd;
            analyze_cmd; diff_cmd ]))
