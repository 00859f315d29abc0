(** Shared scaffolding for the reproduction experiments.

    Every data point boots a fresh machine (64 cores: 4 sockets x 16, the
    class of box the paper evaluates on) and a fresh OS instance, runs the
    workload inside the simulation, and reports simulated time.

    All helpers take the run's [Run_ctx.t] explicitly — there is no ambient
    state here, so independent runs can execute on different [Domain]s. *)

open Sim

let sockets = 4
let cores_per_socket = 16
let total_cores = sockets * cores_per_socket

(** Popcorn kernel granularity for the scalability experiments: 16 kernels
    x 4 cores. (T1/F4 use smaller explicit configs.) *)
let default_kernels = 16

let machine (ctx : Run_ctx.t) ?seed () =
  let seed = Option.value seed ~default:ctx.Run_ctx.seed in
  let m = Hw.Machine.create ~seed ~sockets ~cores_per_socket () in
  Option.iter (Hw.Machine.attach_obs m) ctx.Run_ctx.sink;
  (match ctx.Run_ctx.prof with
  | None -> ()
  | Some p -> Obs.Prof.attach p m.Hw.Machine.eng);
  (* Recorded so the run's total event count (events/sec) can be summed
     after the body finishes. Keeping every engine until the run ends is
     cheap: a drained queue holds only its dummy payload, no closure or
     continuation, and the label table holds one entry per kind of fiber
     (labels never name an instance), however many fibers ran. *)
  ctx.Run_ctx.engines <- m.Hw.Machine.eng :: ctx.Run_ctx.engines;
  m

(** Run [f cluster root_thread] as the main thread of a fresh process on a
    fresh Popcorn cluster; returns the simulated duration of [f]. *)
let run_popcorn (ctx : Run_ctx.t) ?seed ?opts ?(kernels = default_kernels) f :
    Time.t =
  let m = machine ctx ?seed () in
  (* Experiments that pin their own options keep full control; everything
     else inherits the run's coherence protocol (the --coherence flag). *)
  let opts =
    match opts with
    | Some o -> o
    | None ->
        {
          Popcorn.Types.default_options with
          Popcorn.Types.coherence = ctx.Run_ctx.coherence;
        }
  in
  let cluster =
    Popcorn.Cluster.boot ~opts m ~kernels
      ~cores_per_kernel:(total_cores / kernels)
  in
  (* The machine already has the sink; route the cluster-level pieces
     (tracer, per-kernel rpc counters) too. *)
  Option.iter (Popcorn.Cluster.observe cluster) ctx.Run_ctx.sink;
  let eng = m.Hw.Machine.eng in
  let elapsed = ref (-1) in
  Engine.spawn eng (fun () ->
      ignore
        (Popcorn.Api.start_process cluster ~origin:0 (fun th ->
             let t0 = Engine.now eng in
             f cluster th;
             elapsed := Time.sub (Engine.now eng) t0)));
  Engine.run eng;
  if !elapsed < 0 then failwith "run_popcorn: workload did not finish";
  !elapsed

(** Same shape for the SMP-Linux model. *)
let run_smp (ctx : Run_ctx.t) ?seed f : Time.t =
  let m = machine ctx ?seed () in
  let sys = Smp.Smp_os.boot m in
  let eng = m.Hw.Machine.eng in
  let elapsed = ref (-1) in
  Engine.spawn eng (fun () ->
      ignore
        (Smp.Smp_api.start_process sys (fun th ->
             let t0 = Engine.now eng in
             f sys th;
             elapsed := Time.sub (Engine.now eng) t0)));
  Engine.run eng;
  if !elapsed < 0 then failwith "run_smp: workload did not finish";
  !elapsed

(** Multikernel: [f sys ~on_done] must eventually call [on_done]; elapsed
    is measured from boot of the domain to [on_done]. *)
let run_mk (ctx : Run_ctx.t) ?seed f : Time.t =
  let m = machine ctx ?seed () in
  let sys = Multikernel.boot m in
  let eng = m.Hw.Machine.eng in
  let elapsed = ref (-1) in
  let t0 = ref 0 in
  Engine.spawn eng (fun () ->
      t0 := Engine.now eng;
      f sys ~on_done:(fun () -> elapsed := Time.sub (Engine.now eng) !t0));
  Engine.run eng;
  if !elapsed < 0 then failwith "run_mk: workload did not finish";
  !elapsed

let ops_per_sec ~ops ~elapsed =
  if elapsed <= 0 then 0.
  else float_of_int ops /. (float_of_int elapsed /. 1e9)

let ns f = float_of_int (f : Time.t)

(** Worker-count sweep used by the scalability figures. *)
let sweep (ctx : Run_ctx.t) =
  if ctx.Run_ctx.quick then [ 1; 4; 16 ] else [ 1; 2; 4; 8; 16; 32; 64 ]
