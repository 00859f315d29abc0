(* Per-layer microbenches: hot operations the workloads cannot isolate.

   Each bench boots a fresh small machine and times [ops] back-to-back
   operations issued by one simulated thread. The host time from the
   first issue to the last completion covers everything the operation
   makes the engine do (dispatch, message workers, handler fibers); it is
   returned per operation, in nanoseconds. Where an operation leaves work
   running after it returns (a spawned thread), the window ends when the
   engine has nothing left to run. *)

let per_op ~ops f =
  let t0 = Unix.gettimeofday () in
  for i = 1 to ops do
    f i
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int ops

let ok = function Ok v -> v | Error e -> failwith e

type wire = Req of int | Resp of int

(* Msg.Rpc call and reply between two single-core kernels. *)
let rpc_roundtrip ~seed =
  let m =
    Hw.Machine.create ~seed ~frames_per_socket:16 ~sockets:2 ~cores_per_socket:1
      ()
  in
  let eng = m.Hw.Machine.eng in
  let rpc = Msg.Rpc.create eng in
  let tr =
    Msg.Transport.create m ~ring_slots:64 ~handler:(fun tr ~dst ~src _ ->
      function
      | Req ticket ->
          Msg.Transport.send tr ~src:dst ~dst:src ~bytes:64 (Resp ticket)
      | Resp ticket -> Msg.Rpc.complete rpc ~ticket ())
  in
  Msg.Transport.add_node tr 0 ~home_core:0;
  Msg.Transport.add_node tr 1 ~home_core:1;
  let ns = ref 0. in
  Sim.Engine.spawn eng (fun () ->
      ns :=
        per_op ~ops:2000 (fun _ ->
            Msg.Rpc.call rpc (fun ticket ->
                Msg.Transport.send tr ~src:0 ~dst:1 ~bytes:64 (Req ticket))));
  Sim.Engine.run eng;
  !ns

(* [f] runs as the main thread of a process on kernel 0 of a fresh
   two-kernel cluster (two cores each) and returns ns per operation. *)
let on_cluster ~seed ?(opts = Popcorn.Types.default_options) f =
  let m = Hw.Machine.create ~seed ~sockets:2 ~cores_per_socket:2 () in
  let cluster = Popcorn.Cluster.boot ~opts m ~kernels:2 ~cores_per_kernel:2 in
  let ns = ref 0. in
  Sim.Engine.spawn m.Hw.Machine.eng (fun () ->
      ignore
        (Popcorn.Api.start_process cluster ~origin:0 (fun th -> ns := f th)));
  Sim.Engine.run m.Hw.Machine.eng;
  !ns

let migrate ~seed =
  on_cluster ~seed (fun th ->
      per_op ~ops:500 (fun _ ->
          let here = (Popcorn.Api.current_kernel th).Popcorn.Types.kid in
          ignore (Popcorn.Api.migrate th ~dst:(1 - here))))

(* The children run on after [Api.spawn] returns; the window closes once
   the last of them has exited and the engine has stopped. *)
let remote_spawn ~seed =
  let ops = 500 and start = ref 0. in
  ignore
    (on_cluster ~seed (fun th ->
         start := Unix.gettimeofday ();
         for _ = 1 to ops do
           ignore (Popcorn.Api.spawn th ~target:1 (fun _ -> ()))
         done;
         0.));
  (Unix.gettimeofday () -. !start) *. 1e9 /. float_of_int ops

(* The thread first writes every page on kernel 0, then migrates to
   kernel 1: each timed write there takes over a page kernel 0 holds
   writable. *)
let write_fault coherence ~seed =
  let pages = 500 and page = Kernelmodel.Vma.page_size in
  let opts = { Popcorn.Types.default_options with Popcorn.Types.coherence } in
  on_cluster ~seed ~opts (fun th ->
      let region =
        ok
          (Popcorn.Api.mmap th ~len:(pages * page)
             ~prot:Kernelmodel.Vma.prot_rw)
      in
      let write i =
        ok
          (Popcorn.Api.write th
             ~addr:(region.Kernelmodel.Vma.start + ((i - 1) * page)))
      in
      for i = 1 to pages do
        write i
      done;
      ignore (Popcorn.Api.migrate th ~dst:1);
      per_op ~ops:pages write)

let benches =
  [
    ("msg.rpc_roundtrip_ns", rpc_roundtrip);
    ("popcorn.migrate_ns", migrate);
    ("popcorn.remote_spawn_ns", remote_spawn);
    ( "coherence.write_fault_ns.origin",
      write_fault Coherence.Protocol.Origin_home );
    ( "coherence.write_fault_ns.sharded",
      write_fault Coherence.Protocol.Sharded_dir );
  ]
