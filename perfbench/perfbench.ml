(* Host-performance benchmark of popcornsim; one workload per process.

   usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
            [--reference FILE]

   Set-up is the machine and OS boots the workload performs, replayed
   through the same public boot functions. Untraced, the workload repeats
   a fixed number of times per workload, fewer only if the repetitions
   would outlast [--seconds]; set-up samples are taken between them. Each
   end-to-end time or rate adds up the stages of a run, each at its
   fastest over the repetitions: other tenants of a shared host only ever
   slow a stage down, so the fastest is the steadiest estimate of the
   program's own cost.
   Traced, it runs one plain pass, one pass with [Obs.Prof] attached, one
   pass with a metrics registry attached and the microbenches ([Micro]),
   reports the per-layer metrics and writes the benchmark's own spans to
   [.perfbench/spans-<workload>-seed<N>.json].

   An operation is one experiment run or one step of the report pipeline
   (export, write, parse, analyze). It fails if it raises. An experiment
   run also fails if its digest (the rendered tables, plus the metrics
   JSON when observed) differs from the committed reference at the
   reference seed, or from the first repetition's at any seed. The parse
   step also fails if the SLO summary read back from the report differs
   from the one in memory, and the analyze step if the analysis returns
   an error.

   The last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics": {NAME: {"value", "unit"}}}. *)

module R = Experiments.Registry
module C = Experiments.Common
module P = Popcorn.Types

let now = Unix.gettimeofday

let median = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list (List.sort compare xs) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b

(* --- the benchmark's own spans ---

   One around each timed call: workload -> setup -> boot; workload ->
   experiment -> run, summary; workload -> export, write, parse, analyze;
   workload -> one per microbench. Kept in memory; a traced run writes
   them out under one run id when it ends. *)

type span = {
  id : int;
  parent : int;  (** 0 at the root *)
  name : string;
  start : float;
  stop : float;
}

let spans = ref []
let open_spans = ref [ 0 ]
let next_id = ref 0

let record name ~start ~stop =
  incr next_id;
  spans :=
    { id = !next_id; parent = List.hd !open_spans; name; start; stop }
    :: !spans

let span name f =
  incr next_id;
  let id = !next_id and parent = List.hd !open_spans and start = now () in
  open_spans := id :: !open_spans;
  Fun.protect f ~finally:(fun () ->
      open_spans := List.tl !open_spans;
      spans := { id; parent; name; start; stop = now () } :: !spans)

let write_spans path ~run_id =
  let t0 = List.fold_left (fun t s -> Float.min t s.start) infinity !spans in
  let json s =
    Obs.Json.Obj
      [
        ("id", Obs.Json.Int s.id);
        ( "parent",
          if s.parent = 0 then Obs.Json.Null else Obs.Json.Int s.parent );
        ("run", Obs.Json.Str run_id);
        ("name", Obs.Json.Str s.name);
        ("start_s", Obs.Json.Float (s.start -. t0));
        ("dur_s", Obs.Json.Float (s.stop -. s.start));
      ]
  in
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Obs.Json.to_file path
    (Obs.Json.Obj
       [
         ("schema", Obs.Json.Str "perfbench-spans-v1");
         ("run", Obs.Json.Str run_id);
         ( "spans",
           Obs.Json.Arr
             (List.map json (List.sort (fun a b -> compare a.id b.id) !spans))
         );
       ])

(* --- workloads --- *)

type os = Smp | Mk | Popcorn_os of int * P.options

type workload = {
  name : string;
  experiments : string list;  (** registry ids, run in this order *)
  quick : bool;
  observe : bool;  (** sink on; the report is checked and analyzed *)
  boots : (int * os) list;
      (** (count, OS) of the boots the experiments perform, each on a fresh
          64-core machine. A traced run checks the total against the
          engines the workload really boots. *)
  reps : int;
      (** repetitions of an untraced run: 30-40 s of work on a 2-vCPU Xeon
          VM, so that a [--seconds] of 40 only caps a slow host *)
}

let popcorn kernels = Popcorn_os (kernels, P.default_options)

(* Sweep points of the full-size scalability figures. *)
let points = List.length (C.sweep (Experiments.Run_ctx.create ()))

let workloads =
  [
    {
      name = "apps";
      experiments = [ "F2"; "F3"; "F6" ];
      quick = false;
      observe = false;
      (* Per sweep point F2 boots SMP, Popcorn and the multikernel; F3 SMP
         and Popcorn with 16 and with 1 kernel; F6 all three for each of
         its four applications. *)
      boots =
        [
          (6 * points, Smp);
          (6 * points, popcorn C.default_kernels);
          (points, popcorn 1);
          (5 * points, Mk);
        ];
      reps = 14;
    };
    {
      name = "serve-faults";
      experiments = [ "R2" ];
      quick = false;
      observe = false;
      (* One cluster per cell: three arrival rates x the fault scenarios. *)
      boots =
        [
          ( 3 * List.length Experiments.R2_placement.scenarios,
            popcorn Experiments.R2_placement.kernels );
        ];
      reps = 28;
    };
    {
      name = "observe-analyze";
      experiments = [ "R4" ];
      quick = true;
      observe = true;
      (* One cluster per cell: two arrival rates x three fault rates. *)
      boots =
        [
          ( 6,
            Popcorn_os
              ( Experiments.R4_slo.kernels,
                {
                  P.default_options with
                  P.migration_retry = Some Experiments.R4_slo.retry_policy;
                } ) );
        ];
      reps = 3;
    };
  ]

(* --- set-up --- *)

let boot ~seed os =
  let m =
    Hw.Machine.create ~seed ~sockets:C.sockets
      ~cores_per_socket:C.cores_per_socket ()
  in
  match os with
  | Smp -> ignore (Smp.Smp_os.boot m)
  | Mk -> ignore (Multikernel.boot m)
  | Popcorn_os (kernels, opts) ->
      ignore
        (Popcorn.Cluster.boot ~opts m ~kernels
           ~cores_per_kernel:(C.total_cores / kernels))

let boot_count (w : workload) =
  List.fold_left (fun n (k, _) -> n + k) 0 w.boots

let boot_plan (w : workload) ~seed =
  List.iter
    (fun (k, os) ->
      for _ = 1 to k do
        boot ~seed os
      done)
    w.boots

(* [n] samples of the boot plan's host time. A sample repeats the plan
   until it covers [min_sample_boots] boots and divides by the repeat
   count, so even a six-boot plan is timed well above the clock's
   resolution. Each sample starts from a collected heap (the collection is
   not timed), so no sample pays for the garbage of the one before. The
   counts are fixed, not timed, so the heap the workload starts from is
   the same on every run. Samples follow one untimed warm-up pass. *)
let setup_reps = 9
let min_sample_boots = 600

let setup_samples (w : workload) ~seed n =
  let repeat = (min_sample_boots + boot_count w - 1) / boot_count w in
  span "setup" (fun () ->
      List.init n (fun _ ->
          Gc.full_major ();
          let start = now () in
          for _ = 1 to repeat do
            boot_plan w ~seed
          done;
          let stop = now () in
          record "boot" ~start ~stop;
          (stop -. start) /. float repeat))

(* --- correctness accounting --- *)

let attempted = ref 0
let failed = ref 0

let tally ops errors =
  attempted := !attempted + ops;
  failed := !failed + List.length errors;
  List.iter (fun e -> prerr_endline ("perfbench: FAILED " ^ e)) errors

let member k = function Obs.Json.Obj kv -> List.assoc_opt k kv | _ -> None

(* Expected digest per experiment id: the committed reference when the
   seed is the reference's, else the first repetition's. *)
let expected : (string, string) Hashtbl.t = Hashtbl.create 8

let load_reference path (w : workload) ~seed =
  match Obs.Json.of_file path with
  | Error e -> prerr_endline ("perfbench: no reference digests: " ^ e)
  | Ok doc -> (
      match Option.bind (member "digests" doc) (member w.name) with
      | Some (Obs.Json.Obj digests)
        when member "seed" doc = Some (Obs.Json.Int seed) ->
          List.iter
            (function
              | id, Obs.Json.Str d -> Hashtbl.replace expected id d | _ -> ())
            digests
      | _ -> ())

(* --- one pass over a workload --- *)

type pass = {
  wall_s : float;
  stages : (string * float) list;
      (** host seconds per stage, in order: per experiment "<id>.run" (the
          body, [outcome.host_ms]) and "<id>.summary" (the rest of
          [run_one]), then "export", "write", "parse" and "analyze" *)
  json_bytes : int;
  events : int;
  alloc_words : float;
  obs_spans : int;
  obs_causal : int;
  profs : Obs.Prof.t list;
  sim : (string * string * float) list;
  steps : (string * (string, string) result) list;
      (** per operation, in order: [Ok digest] (empty for report steps) or
          [Error why] *)
}

let is_run name = String.ends_with ~suffix:".run" name

let total ?(only = fun _ -> true) stages =
  List.fold_left (fun s (n, t) -> if only n then s +. t else s) 0. stages

(* The experiment bodies, and the time from the end of the simulation to
   the finished report. *)
let host_s stages = total ~only:is_run stages
let report_s stages = total ~only:(fun n -> not (is_run n)) stages
let stage p name = Option.value (List.assoc_opt name p.stages) ~default:0.

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let digest (w : workload) (o : R.outcome) =
  let b = Buffer.create 4096 in
  List.iter (fun t -> Buffer.add_string b (Stats.Table.render t)) o.R.tables;
  (match o.R.sink with
  | Some s when w.observe ->
      Buffer.add_string b
        (Obs.Json.to_string (Obs.Metrics.to_json s.Obs.Sink.metrics))
  | _ -> ());
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Every in-memory SLO summary must read back unchanged from the report. *)
let check_slo (outcomes : R.outcome list) doc =
  let exported =
    match member "experiments" doc with Some (Obs.Json.Arr l) -> l | _ -> []
  in
  let read_back id =
    List.find_map
      (fun e ->
        if member "id" e = Some (Obs.Json.Str id) then
          Option.bind (member "slo" e) Obs.Slo.of_json
        else None)
      exported
  in
  match
    List.find_opt
      (fun (o : R.outcome) ->
        match o.R.slo with
        | Some t when t.Obs.Slo.kinds <> [] ->
            read_back o.R.spec.R.id <> Some t
        | _ -> false)
      outcomes
  with
  | None -> Ok ()
  | Some o ->
      Error (o.R.spec.R.id ^ ": the SLO summary does not read back from the report")

let column t name =
  let rec index i = function
    | [] -> None
    | c :: _ when c = name -> Some i
    | _ :: tl -> index (i + 1) tl
  in
  match index 0 (Stats.Table.columns t) with
  | None -> []
  | Some i -> List.map (fun row -> List.nth row i) (Stats.Table.rows t)

(* Leading number of a rendered cell such as "1.23x" or "97.3%". *)
let number cell =
  try Some (Scanf.sscanf cell "%f" Fun.id)
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float (List.length xs)

let geomean = function [] -> 0. | xs -> exp (mean (List.map log xs))

(* Simulated results: deterministic per seed; 0 where the workload does
   not run the experiment a metric reads. *)
let sim_metrics (outcomes : R.outcome list) =
  let tables id =
    match List.find_opt (fun (o : R.outcome) -> o.R.spec.R.id = id) outcomes with
    | Some o -> o.R.tables
    | None -> []
  in
  let last = function [] -> [] | col -> [ List.nth col (List.length col - 1) ] in
  let popcorn_over_smp =
    geomean
      (List.concat_map
         (fun t -> List.filter_map number (last (column t "Popcorn/SMP")))
         (tables "F6"))
  in
  let goodput =
    mean
      (List.concat_map
         (fun t -> List.filter_map number (column t "goodput"))
         (tables "R2"))
    /. 100.
  in
  let migration =
    List.find_map
      (fun (o : R.outcome) ->
        Option.bind o.R.slo (fun t ->
            List.find_opt
              (fun k -> k.Obs.Slo.ks_kind = "migration")
              t.Obs.Slo.kinds))
      outcomes
  in
  let us f = match migration with Some k -> float (f k) /. 1e3 | None -> 0. in
  [
    ("sim_popcorn_over_smp", "ratio", popcorn_over_smp);
    ("sim_goodput_frac", "ratio", goodput);
    ("sim_migration_mean_us", "us", us (fun k -> k.Obs.Slo.ks_mean_ns));
    ("sim_migration_worst_us", "us", us (fun k -> k.Obs.Slo.ks_worst_ns));
  ]

(* Each pass starts from a collected heap, as a fresh process would; the
   collection is not timed. Only the program's work is timed and counted
   in [alloc_words]: the digests and the SLO read-back check run after. *)
let run_pass ?(profile = false) (w : workload) ~seed =
  Gc.full_major ();
  let stages = ref [] in
  let a0 = allocated_words () and t0 = now () in
  let runs =
    List.map
      (fun id ->
        span ("experiment:" ^ id) (fun () ->
            let start = now () in
            match
              R.run_one ~quick:w.quick ~observe:w.observe ~profile ~seed
                (Option.get (R.find id))
            with
            | o ->
                let stop = now () in
                let body_end = start +. (o.R.host_ms /. 1e3) in
                record "run" ~start ~stop:body_end;
                record "summary" ~start:body_end ~stop;
                stages :=
                  (id ^ ".summary", stop -. body_end)
                  :: (id ^ ".run", body_end -. start)
                  :: !stages;
                (id, Ok o)
            | exception e -> (id, Error (Printexc.to_string e))))
      w.experiments
  in
  let outcomes = List.filter_map (fun (_, r) -> Result.to_option r) runs in
  let stage name f =
    span name (fun () ->
        let start = now () in
        let r = try f () with e -> Error (Printexc.to_string e) in
        stages := (name, now () -. start) :: !stages;
        r)
  in
  let doc =
    stage "export" (fun () -> Ok (R.report_json ~quick:w.quick outcomes))
  in
  let text = stage "write" (fun () -> Result.map Obs.Json.to_string doc) in
  let parsed = stage "parse" (fun () -> Result.bind text Obs.Json.of_string) in
  let analyzed =
    if w.observe then
      [ ("analyze", stage "analyze" (fun () -> Result.bind parsed Obs.Report.analyze_doc)) ]
    else []
  in
  let wall_s = now () -. t0 and alloc_words = allocated_words () -. a0 in
  let report_step (name, r) = (name, Result.map (fun _ -> "") r) in
  let steps =
    List.map (fun (id, r) -> (id, Result.map (digest w) r)) runs
    @ List.map report_step
        [
          ("export", Result.map ignore doc);
          ("write", Result.map ignore text);
          ("parse", Result.bind parsed (check_slo outcomes));
        ]
    @ List.map report_step analyzed
  in
  let sinks = List.filter_map (fun (o : R.outcome) -> o.R.sink) outcomes in
  let sum f = List.fold_left (fun n x -> n + f x) 0 in
  {
    wall_s;
    stages = List.rev !stages;
    json_bytes = (match text with Ok s -> String.length s | Error _ -> 0);
    events = sum (fun (o : R.outcome) -> o.R.events_processed) outcomes;
    alloc_words;
    obs_spans =
      sum
        (fun (s : Obs.Sink.t) -> List.length (Obs.Span.spans s.Obs.Sink.spans))
        sinks;
    obs_causal =
      sum (fun (s : Obs.Sink.t) -> Obs.Causal.count s.Obs.Sink.causal) sinks;
    profs = List.filter_map (fun (o : R.outcome) -> o.R.prof) outcomes;
    sim = sim_metrics outcomes;
    steps;
  }

let check p =
  tally (List.length p.steps)
    (List.filter_map
       (fun (op, r) ->
         match r with
         | Error e -> Some (op ^ ": " ^ e)
         | Ok "" -> None
         | Ok d -> (
             match Hashtbl.find_opt expected op with
             | None ->
                 Hashtbl.replace expected op d;
                 None
             | Some e when e = d -> None
             | Some e ->
                 Some (Printf.sprintf "%s: digest %s, expected %s" op d e)))
       p.steps)

let print_results p =
  List.iter
    (function
      | op, Ok d when d <> "" -> Printf.printf "digest %s %s\n" op d
      | _ -> ())
    p.steps;
  List.iter (fun (name, u, v) -> Printf.printf "%s %.6g %s\n" name v u) p.sim

(* --- untraced run: end-to-end metrics --- *)

let top_heap_mb () =
  float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* [w.reps] repetitions, fewer only if the next one would end after
   [seconds]; at least one. At least [setup_reps] set-up samples are
   spread over the run, some before each repetition.

   Every time reported is a fastest: of the set-up samples, and of each
   stage over the repetitions. The host's speed swings by up to 1.7x from
   one second to the next (a pass of apps takes 2.2 to 3.8 s in one
   process, a set-up sample 8 to 17 ms, with no steal time counted), and
   such swings only ever slow the program down. The fastest of a fixed
   number of samples spread over the run is the figure that repeats from
   run to run. *)
let untraced (w : workload) ~seed ~seconds =
  let deadline = now () +. seconds in
  boot_plan w ~seed;
  let setup_per_rep = (setup_reps + w.reps - 1) / w.reps in
  let setup = ref [] and peak_heap_mb = ref 0. in
  let rec repeat passes =
    setup := setup_samples w ~seed setup_per_rep @ !setup;
    let p = run_pass w ~seed in
    check p;
    (* The heap peak is read after the first repetition, so that it does
       not depend on how many fit in [seconds]. *)
    if passes = [] then begin
      peak_heap_mb := top_heap_mb ();
      print_results p
    end;
    let passes = p :: passes in
    if List.length passes < w.reps && now () +. p.wall_s < deadline then
      repeat passes
    else List.rev passes
  in
  let passes = repeat [] in
  Printf.printf "%s: %d repetitions\n" w.name (List.length passes);
  (* Per stage, so that a slow phase of the host spoils one stage of one
     repetition rather than a whole one. The simulated work, hence the
     event count, is the same in every repetition. *)
  let first = List.hd passes in
  let fastest =
    List.map
      (fun (name, _) ->
        (name, List.fold_left (fun m p -> Float.min m (stage p name)) infinity passes))
      first.stages
  in
  let setup_s = List.fold_left Float.min infinity !setup in
  [
    ("wall_s", "s", total fastest);
    ("setup_s", "s", setup_s);
    ("events_per_s", "events/s", ratio (float first.events) (host_s fastest));
    ( "alloc_words_per_event",
      "words",
      ratio first.alloc_words (float first.events) );
    ("peak_heap_mb", "MB", !peak_heap_mb);
    ("report_s", "s", report_s fastest);
  ]

(* --- traced run: per-layer metrics --- *)

(* Profiled host time per subsystem tag, untagged fibers under "other":
   (self ns, events, allocated words). *)
let per_tag profs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun p ->
      List.iter
        (fun (r : Obs.Prof.row) ->
          let tag = Option.value r.Obs.Prof.tag ~default:"other" in
          let ns, ev, words =
            Option.value (Hashtbl.find_opt tbl tag) ~default:(0, 0, 0.)
          in
          Hashtbl.replace tbl tag
            ( ns + r.Obs.Prof.self_ns,
              ev + r.Obs.Prof.events,
              words +. r.Obs.Prof.minor_words +. r.Obs.Prof.major_words ))
        (Obs.Prof.rows p))
    profs;
  fun tag -> Option.value (Hashtbl.find_opt tbl tag) ~default:(0, 0, 0.)

type counts = {
  counter : string -> int;  (** registry counter, summed over kernels *)
  booted : int;
  sim_events : int;
  queue_max : int;
  parks : int;
}

(* Counts from the program's metrics registry. Each experiment body runs
   directly on its own Run_ctx, so the engines it boots stay reachable
   for the scheduler counters, and its sink is dropped before the next. *)
let count_pass (w : workload) ~seed =
  let totals = Hashtbl.create 64 in
  let booted = ref 0 and sim_events = ref 0 and queue_max = ref 0 in
  let parks = ref 0 in
  List.iter
    (fun id ->
      let sink = Obs.Sink.create () in
      let ctx = Experiments.Run_ctx.create ~sink ~seed ~quick:w.quick () in
      ignore ((Option.get (R.find id)).R.run ctx);
      List.iter
        (fun e ->
          incr booted;
          sim_events := !sim_events + Sim.Engine.events_processed e;
          queue_max := max !queue_max (Sim.Engine.queue_max_length e);
          parks := !parks + Sim.Engine.parks e)
        ctx.Experiments.Run_ctx.engines;
      List.iter
        (fun ((name, _), v) ->
          match v with
          | Obs.Metrics.Counter n ->
              Hashtbl.replace totals name
                (n + Option.value (Hashtbl.find_opt totals name) ~default:0)
          | _ -> ())
        (Obs.Metrics.rows sink.Obs.Sink.metrics))
    w.experiments;
  {
    counter =
      (fun name -> Option.value (Hashtbl.find_opt totals name) ~default:0);
    booted = !booted;
    sim_events = !sim_events;
    queue_max = !queue_max;
    parks = !parks;
  }

let micro_reps = 5

let traced (w : workload) ~seed =
  boot_plan w ~seed;
  let setup_s =
    List.fold_left Float.min infinity (setup_samples w ~seed setup_reps)
  in
  let plain = span "plain" (fun () -> run_pass w ~seed) in
  check plain;
  print_results plain;
  let profiled = span "profiled" (fun () -> run_pass ~profile:true w ~seed) in
  check profiled;
  let counts =
    try span "counts" (fun () -> count_pass w ~seed)
    with e ->
      tally 1 [ "counts: " ^ Printexc.to_string e ];
      { counter = (fun _ -> 0); booted = 0; sim_events = 0; queue_max = 0; parks = 0 }
  in
  (* The boot plan behind setup_s must match what the workload boots. *)
  tally 1
    (if counts.booted = boot_count w then []
     else
       [
         Printf.sprintf "setup: the boot plan has %d boots, the workload booted %d"
           (boot_count w) counts.booted;
       ]);
  let micro =
    List.map
      (fun (name, bench) ->
        span name (fun () ->
            match List.init micro_reps (fun _ -> bench ~seed) with
            | ns ->
                tally 1 [];
                (name, "ns", median ns)
            | exception e ->
                tally 1 [ name ^ ": " ^ Printexc.to_string e ];
                (name, "ns", 0.)))
      Micro.benches
  in
  let tag = per_tag profiled.profs in
  let self_ms t =
    let ns, _, _ = tag t in
    float ns /. 1e6
  in
  let per_event t =
    let ns, ev, _ = tag t in
    ratio (float ns) (float ev)
  in
  let layer t =
    [ (t ^ ".self_ms", "ms", self_ms t); (t ^ ".ns_per_event", "ns", per_event t) ]
  in
  let prof f = List.fold_left (fun n p -> n + f p) 0 profiled.profs in
  let count ?(u = "count") name = (name, u, float (counts.counter name)) in
  let _, msg_events, msg_words = tag "msg" in
  [
    ("sim.events", "count", float counts.sim_events);
    ( "sim.dispatch_ns_per_event",
      "ns",
      ratio (float (prof Obs.Prof.sched_ns)) (float (prof Obs.Prof.total_events))
    );
    ("sim.queue_max", "count", float counts.queue_max);
    ("sim.parks", "count", float counts.parks);
    ("hw.boots", "count", float (boot_count w));
    ("hw.boot_us", "us", setup_s /. float (boot_count w) *. 1e6);
  ]
  @ layer "msg"
  @ [
      ("msg.words_per_event", "words", ratio msg_words (float msg_events));
      count "msg.sent";
      count ~u:"bytes" "msg.bytes";
      count "msg.dropped";
      count "msg.duplicated";
      count "rpc.calls";
    ]
  @ layer "popcorn"
  @ List.map count
      [
        "threads.spawned";
        "migration.started";
        "futex.waits";
        "fault.serviced";
        "coherence.dir_hops";
        "coherence.invalidations";
        "coherence.pulls";
      ]
  @ layer "smp" @ layer "mk" @ layer "workload"
  @ List.map count
      [
        "placement.requests";
        "placement.rejected";
        "placement.attempt_timeout";
        "health.transitions";
      ]
  @ [
      ("other.self_ms", "ms", self_ms "other");
      ( "harness.unattributed_ms",
        "ms",
        ((host_s profiled.stages *. 1e9)
        -. float (prof Obs.Prof.attributed_ns + prof Obs.Prof.sched_ns))
        /. 1e6 );
      ( "obs.slo_summary_s",
        "s",
        total ~only:(String.ends_with ~suffix:".summary") plain.stages );
      ("obs.report_json_s", "s", stage plain "export");
      ("obs.json_write_s", "s", stage plain "write");
      ("obs.json_parse_s", "s", stage plain "parse");
      ("obs.analyze_s", "s", stage plain "analyze");
      ("obs.spans", "count", float plain.obs_spans);
      ("obs.causal_events", "count", float plain.obs_causal);
      ("obs.json_bytes", "bytes", float plain.json_bytes);
      ("trace_overhead_frac", "ratio", ratio profiled.wall_s plain.wall_s -. 1.);
    ]
  @ micro @ plain.sim

(* --- main --- *)

let () =
  let workload = ref "" and seed = ref Experiments.Run_ctx.default_seed in
  let seconds = ref 10. and trace = ref 0 in
  let reference = ref (Filename.concat "perfbench" "reference.json") in
  let usage =
    "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--reference FILE]"
  in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME " ^ String.concat " | " (List.map (fun w -> w.name) workloads) );
      ("--seed", Arg.Set_int seed, "N seed of every machine the workload boots");
      ( "--seconds",
        Arg.Set_float seconds,
        "S upper limit on the repetitions' host seconds (untraced)" );
      ("--trace", Arg.Set_int trace, "0|1 report the per-layer metrics instead");
      ("--reference", Arg.Set_string reference, "FILE reference digests");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w when !trace = 0 || !trace = 1 -> w
    | _ ->
        prerr_endline usage;
        exit 2
  in
  let seed = !seed in
  load_reference !reference w ~seed;
  let metrics =
    span ("workload:" ^ w.name) (fun () ->
        if !trace = 1 then traced w ~seed
        else untraced w ~seed ~seconds:!seconds)
  in
  let metrics =
    if !trace = 0 then metrics
    else begin
      let path = Printf.sprintf ".perfbench/spans-%s-seed%d.json" w.name seed in
      write_spans path
        ~run_id:(Printf.sprintf "%s-seed%d-pid%d" w.name seed (Unix.getpid ()));
      Printf.printf "spans written to %s\n" path;
      metrics @ [ ("failed_frac", "ratio", ratio (float !failed) (float !attempted)) ]
    end
  in
  List.iter (fun (name, u, v) -> Printf.printf "%-34s %14.6g %s\n" name v u) metrics;
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool (!failed = 0));
            ("attempted", Obs.Json.Int !attempted);
            ("failed", Obs.Json.Int !failed);
            ( "metrics",
              Obs.Json.Obj
                (List.map
                   (fun (name, u, v) ->
                     ( name,
                       Obs.Json.Obj
                         [ ("value", Obs.Json.Float v); ("unit", Obs.Json.Str u) ]
                     ))
                   metrics) );
          ]))
