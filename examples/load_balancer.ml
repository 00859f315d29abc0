(* Dynamic load balancing with thread migration: the capability SMP Linux
   gets from a shared runqueue, recovered on a replicated-kernel OS by
   migrating threads between kernels at runtime.

   We start 12 compute threads, all pinned by bad luck onto kernel 0, then
   run a balancer that watches per-kernel load (via the single-system
   image) and migrates threads toward idle kernels. Completion time drops
   accordingly.

   Run with: dune exec examples/load_balancer.exe *)

open Popcorn
module K = Kernelmodel

let threads = 12
let work_slices = 40

(* The run stops at 20ms; utilisation is reported per 1ms bucket. *)
let bucket_ns = Sim.Time.ms 1
let buckets = 20

(* Sample each kernel's cumulative CPU-busy time every 250us and add the
   delta to the current bucket; a bucket's busy time divided by its width
   is that kernel's utilisation. *)
let sample_utilisation cluster eng series =
  let prev = Array.make 4 0 in
  let rec loop () =
    Sim.Engine.sleep eng (Sim.Time.us 250);
    let b = Sim.Engine.now eng / bucket_ns in
    Array.iteri
      (fun k busy_ns ->
        let busy = K.Sched.total_busy (Types.kernel_of cluster k).Types.sched in
        if b < buckets then
          busy_ns.(b) <- busy_ns.(b) +. float_of_int (busy - prev.(k));
        prev.(k) <- busy)
      series;
    loop ()
  in
  Sim.Engine.spawn eng ~name:"util-sampler" loop

let run ~balance =
  let machine = Hw.Machine.create ~sockets:2 ~cores_per_socket:8 () in
  let cluster = Cluster.boot machine ~kernels:4 ~cores_per_kernel:4 in
  let eng = machine.Hw.Machine.eng in
  let series = Array.init 4 (fun _ -> Array.make buckets 0.) in
  sample_utilisation cluster eng series;
  let elapsed = ref 0 and migrations = ref 0 in
  Sim.Engine.spawn eng (fun () ->
      let proc =
        Api.start_process cluster ~origin:0 (fun th ->
            let t0 = Sim.Engine.now eng in
            let latch = Workloads.Latch.create eng threads in
            for _ = 1 to threads do
              (* Everything lands on kernel 0: a skewed arrival pattern. *)
              ignore
                (Api.spawn th ~target:0 (fun worker ->
                     for _ = 1 to work_slices do
                       Api.compute worker (Sim.Time.us 100);
                       (* Cooperative migration point: follow the balancer's
                          advice, as Popcorn's scheduler hooks do. *)
                       if balance then begin
                         let kernel = Api.current_kernel worker in
                         let load = K.Sched.total_load kernel.Types.sched in
                         let here = kernel.Types.kid in
                         let best = ref here and best_load = ref load in
                         for k = 0 to Types.nkernels worker.Api.cluster - 1 do
                           let cand = Types.kernel_of worker.Api.cluster k in
                           let l = K.Sched.total_load cand.Types.sched in
                           if l + 1 < !best_load then begin
                             best := k;
                             best_load := l
                           end
                         done;
                         if !best <> here then begin
                           ignore (Api.migrate worker ~dst:!best);
                           incr migrations
                         end
                       end
                     done;
                     Workloads.Latch.arrive latch))
            done;
            Workloads.Latch.wait latch;
            elapsed := Sim.Engine.now eng - t0)
      in
      Api.wait_exit cluster proc);
  Sim.Engine.run ~until:(Sim.Time.ms 20) eng;
  (!elapsed, !migrations, series)

(* Render per-kernel utilisation (percent of the 4 cores busy) for the
   first few milliseconds. *)
let print_utilisation label series =
  Printf.printf "\n%s — per-kernel utilisation (%% of 4 cores, 1ms buckets):\n"
    label;
  Printf.printf "  %-6s %6s %6s %6s %6s\n" "t(ms)" "k0" "k1" "k2" "k3";
  for row = 0 to 5 do
    Printf.printf "  %-6.1f" (float_of_int (row * bucket_ns) /. 1e6);
    Array.iter
      (fun busy_ns ->
        let v = busy_ns.(row) /. float_of_int bucket_ns in
        (* 4 cores per kernel: normalise to a percentage of capacity. *)
        Printf.printf " %5.0f%%" (100. *. v /. 4.))
      series;
    print_newline ()
  done

let () =
  Printf.printf "%d threads x %d slices of 100us, all born on kernel 0\n"
    threads work_slices;
  let skewed, _, series_off = run ~balance:false in
  let balanced, migs, series_on = run ~balance:true in
  print_utilisation "no balancing" series_off;
  print_utilisation "with thread migration" series_on;
  Printf.printf "\n%-32s %12s\n" "configuration" "completion";
  Printf.printf "%-32s %12s\n" "no balancing (4 cores used)"
    (Sim.Time.to_string skewed);
  Printf.printf "%-32s %12s  (%d migrations)\n" "with thread migration"
    (Sim.Time.to_string balanced)
    migs;
  Printf.printf "\nspeedup from migration: %.2fx\n"
    (float_of_int skewed /. float_of_int balanced);
  assert (balanced < skewed)
