(* Tests for the hardware model: topology, memory, spinlock contention,
   cache-line serialisation, IPIs. *)

open Sim

let mk_machine () = Hw.Machine.create ~sockets:2 ~cores_per_socket:4 ()

let test_topology () =
  let topo = Hw.Topology.create ~sockets:2 ~cores_per_socket:4 in
  Alcotest.(check int) "total" 8 (Hw.Topology.total_cores topo);
  Alcotest.(check int) "socket of 3" 0 (Hw.Topology.socket_of topo 3);
  Alcotest.(check int) "socket of 4" 1 (Hw.Topology.socket_of topo 4);
  Alcotest.(check (list int)) "cores of socket 1" [ 4; 5; 6; 7 ]
    (Hw.Topology.cores_of_socket topo 1);
  Alcotest.(check bool) "same socket" true (Hw.Topology.same_socket topo 0 3);
  Alcotest.(check bool) "cross socket" false (Hw.Topology.same_socket topo 3 4);
  Alcotest.(check bool) "distance self" true
    (Hw.Topology.distance topo 2 2 = Hw.Topology.Self);
  Alcotest.(check bool) "distance cross" true
    (Hw.Topology.distance topo 0 7 = Hw.Topology.Cross_socket)

let test_params_costs () =
  let p = Hw.Params.default in
  Alcotest.(check bool) "hierarchy" true
    (p.Hw.Params.line_local < p.Hw.Params.line_same_socket
    && p.Hw.Params.line_same_socket < p.Hw.Params.line_cross_socket);
  let local = Hw.Params.copy_cost p ~bytes:4096 ~cross_socket:false in
  let cross = Hw.Params.copy_cost p ~bytes:4096 ~cross_socket:true in
  Alcotest.(check bool) "cross copy slower" true (cross > local);
  Alcotest.(check bool) "bigger copy slower" true
    (Hw.Params.copy_cost p ~bytes:8192 ~cross_socket:false > local)

let test_memory_alloc_free () =
  let topo = Hw.Topology.create ~sockets:2 ~cores_per_socket:2 in
  let mem = Hw.Memory.create topo ~frames_per_socket:4 in
  Alcotest.(check int) "total" 8 (Hw.Memory.total_frames mem);
  let f0 = Hw.Memory.alloc_exn mem ~node:0 in
  Alcotest.(check int) "node of frame" 0 (Hw.Memory.node_of_frame mem f0);
  let f1 = Hw.Memory.alloc_exn mem ~node:1 in
  Alcotest.(check int) "node of frame 1" 1 (Hw.Memory.node_of_frame mem f1);
  Alcotest.(check int) "used" 2 (Hw.Memory.used_count mem);
  Hw.Memory.free mem f0;
  Alcotest.(check int) "used after free" 1 (Hw.Memory.used_count mem);
  Alcotest.check_raises "double free"
    (Invalid_argument "Memory.free: double free") (fun () ->
      Hw.Memory.free mem f0)

let test_memory_fallback_and_exhaustion () =
  let topo = Hw.Topology.create ~sockets:2 ~cores_per_socket:1 in
  let mem = Hw.Memory.create topo ~frames_per_socket:2 in
  (* Drain node 0; next node-0 alloc falls back to node 1. *)
  let _ = Hw.Memory.alloc_exn mem ~node:0 in
  let _ = Hw.Memory.alloc_exn mem ~node:0 in
  let f = Hw.Memory.alloc_exn mem ~node:0 in
  Alcotest.(check int) "fallback node" 1 (Hw.Memory.node_of_frame mem f);
  let _ = Hw.Memory.alloc_exn mem ~node:1 in
  Alcotest.(check bool) "exhausted" true (Hw.Memory.alloc mem ~node:0 = None)

let test_spinlock_uncontended_cost () =
  let m = mk_machine () in
  let eng = m.Hw.Machine.eng in
  let lock =
    Hw.Spinlock.create eng m.Hw.Machine.params m.Hw.Machine.topo ~name:"t"
  in
  let took = ref 0 in
  Engine.spawn eng (fun () ->
      let t0 = Engine.now eng in
      Hw.Spinlock.acquire lock ~core:0;
      took := Engine.now eng - t0;
      Hw.Spinlock.release lock);
  Engine.run eng;
  Alcotest.(check bool) "nonzero but small" true (!took > 0 && !took < 500)

let test_spinlock_contention_grows () =
  (* Total wait under contention must grow superlinearly with contenders
     (the coherence-bounce term). *)
  let total_wait n =
    let m = Hw.Machine.create ~sockets:2 ~cores_per_socket:32 () in
    let eng = m.Hw.Machine.eng in
    let lock =
      Hw.Spinlock.create eng m.Hw.Machine.params m.Hw.Machine.topo ~name:"t"
    in
    for core = 0 to n - 1 do
      Engine.spawn eng (fun () ->
          for _ = 1 to 10 do
            Hw.Spinlock.acquire lock ~core;
            Engine.sleep eng (Time.ns 100);
            Hw.Spinlock.release lock
          done)
    done;
    Engine.run eng;
    (Hw.Spinlock.stats lock).Hw.Spinlock.total_wait
  in
  let w2 = total_wait 2 and w16 = total_wait 16 in
  Alcotest.(check bool) "16 cores wait much more" true (w16 > 20 * w2)

let test_spinlock_fifo () =
  let m = mk_machine () in
  let eng = m.Hw.Machine.eng in
  let lock =
    Hw.Spinlock.create eng m.Hw.Machine.params m.Hw.Machine.topo ~name:"t"
  in
  let order = ref [] in
  Engine.spawn eng (fun () ->
      Hw.Spinlock.acquire lock ~core:0;
      Engine.sleep eng (Time.us 10);
      Hw.Spinlock.release lock);
  for i = 1 to 4 do
    Engine.spawn eng (fun () ->
        Engine.sleep eng (i * 100);
        Hw.Spinlock.acquire lock ~core:i;
        order := i :: !order;
        Hw.Spinlock.release lock)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "ticket order" [ 1; 2; 3; 4 ] (List.rev !order)

let test_spinlock_release_unheld () =
  let m = mk_machine () in
  let lock =
    Hw.Spinlock.create m.Hw.Machine.eng m.Hw.Machine.params m.Hw.Machine.topo
      ~name:"x"
  in
  Alcotest.check_raises "release unheld"
    (Invalid_argument "Spinlock.release (x): not held") (fun () ->
      Hw.Spinlock.release lock)

let test_cacheline_serializes () =
  let m = mk_machine () in
  let eng = m.Hw.Machine.eng in
  let line =
    Hw.Cacheline.create eng m.Hw.Machine.params m.Hw.Machine.topo ~name:"l"
  in
  let finished = ref 0 in
  for core = 0 to 7 do
    Engine.spawn eng (fun () ->
        Hw.Cacheline.access line ~core;
        incr finished)
  done;
  Engine.run eng;
  Alcotest.(check int) "all ops done" 8 !finished;
  Alcotest.(check int) "op count" 8 (Hw.Cacheline.ops line);
  (* 8 concurrent ops serialize: elapsed >= 7 transfers (first may be free
     same-core). *)
  Alcotest.(check bool) "serialized" true (Engine.now eng >= 7 * 40)

let test_ipi_latency () =
  let m = mk_machine () in
  let eng = m.Hw.Machine.eng in
  let same = Hw.Ipi.delivery_latency m.Hw.Machine.ipi ~src:0 ~dst:1 in
  let cross = Hw.Ipi.delivery_latency m.Hw.Machine.ipi ~src:0 ~dst:7 in
  Alcotest.(check bool) "cross socket slower" true (cross > same);
  let fired_at = ref 0 in
  Engine.spawn eng (fun () ->
      Hw.Ipi.send m.Hw.Machine.ipi ~src:0 ~dst:7 (fun () ->
          fired_at := Engine.now eng));
  Engine.run eng;
  Alcotest.(check int) "handler delayed by latency" cross !fired_at;
  Alcotest.(check int) "counted" 1 (Hw.Ipi.sent m.Hw.Machine.ipi)

let test_machine_helpers () =
  let m = mk_machine () in
  let eng = m.Hw.Machine.eng in
  let t = ref (0, 0, 0) in
  Engine.spawn eng (fun () ->
      let t0 = Engine.now eng in
      Hw.Machine.compute m (Time.us 3);
      let t1 = Engine.now eng in
      Hw.Machine.copy m ~bytes:8192 ~src_socket:0 ~dst_socket:1;
      let t2 = Engine.now eng in
      Hw.Machine.line_access m ~from:0 ~core:7;
      t := (t1 - t0, t2 - t1, Engine.now eng - t2));
  Engine.run eng;
  let compute, copy, line = !t in
  Alcotest.(check int) "compute exact" (Time.us 3) compute;
  Alcotest.(check bool) "copy >= 1us for 8KiB cross" true (copy > Time.us 1);
  Alcotest.(check int) "cross-socket line" 130 line

(* Properties *)

let prop_memory_frames_unique =
  QCheck.Test.make ~name:"allocated frames are unique" ~count:100
    QCheck.(int_bound 50)
    (fun n ->
      let topo = Hw.Topology.create ~sockets:2 ~cores_per_socket:2 in
      let mem = Hw.Memory.create topo ~frames_per_socket:64 in
      let frames = List.init (n + 1) (fun i -> Hw.Memory.alloc_exn mem ~node:(i mod 2)) in
      List.length (List.sort_uniq compare frames) = List.length frames)

let prop_memory_alloc_free_roundtrip =
  QCheck.Test.make ~name:"alloc/free keeps counts consistent" ~count:100
    QCheck.(list bool)
    (fun script ->
      let topo = Hw.Topology.create ~sockets:1 ~cores_per_socket:1 in
      let mem = Hw.Memory.create topo ~frames_per_socket:16 in
      let held = ref [] in
      List.iter
        (fun alloc ->
          if alloc then (
            match Hw.Memory.alloc mem ~node:0 with
            | Some f -> held := f :: !held
            | None -> ())
          else
            match !held with
            | f :: rest ->
                Hw.Memory.free mem f;
                held := rest
            | [] -> ())
        script;
      Hw.Memory.used_count mem = List.length !held)

(* [Hw.Memory] against the eager allocator it replaced: per socket, a
   stack of every frame in ascending order, freed frames pushed on top,
   the other sockets tried in ascending order when the preferred one is
   empty. 300 frames per socket take each socket's lazy bitmap through
   several doublings (64, 128, 256, then capped at 300) and out of frames.
   [Bad f] frees a frame the model holds free: freed twice, or never
   handed out (at or above the bump cursor). *)
type mem_op = Alloc of int | Free of int | Bad of int

let prop_memory_matches_eager_model =
  let sockets = 2 and fps = 300 in
  let op =
    QCheck.Gen.(
      frequency
        [
          (7, map (fun n -> Alloc n) (int_bound (sockets - 1)));
          (2, map (fun i -> Free i) (int_bound 1000));
          (1, map (fun f -> Bad f) (int_bound ((sockets * fps) - 1)));
        ])
  in
  let print = function
    | Alloc n -> Printf.sprintf "Alloc %d" n
    | Free i -> Printf.sprintf "Free %d" i
    | Bad f -> Printf.sprintf "Bad %d" f
  in
  QCheck.Test.make ~name:"memory matches the eager LIFO-then-ascending model"
    ~count:100
    QCheck.(
      make
        ~print:Print.(list print)
        Gen.(list_size (int_range 1 2000) op))
    (fun ops ->
      let topo = Hw.Topology.create ~sockets ~cores_per_socket:1 in
      let mem = Hw.Memory.create topo ~frames_per_socket:fps in
      let free =
        Array.init sockets (fun s -> List.init fps (fun i -> (s * fps) + i))
      in
      let held = ref [] in
      let model_alloc node =
        let take s =
          match free.(s) with
          | f :: rest ->
              free.(s) <- rest;
              Some f
          | [] -> None
        in
        match take node with
        | Some f -> Some f
        | None ->
            List.find_map
              (fun s -> if s = node then None else take s)
              (List.init sockets Fun.id)
      in
      List.for_all
        (function
          | Alloc node ->
              let got = Hw.Memory.alloc mem ~node in
              let want = model_alloc node in
              Option.iter (fun f -> held := f :: !held) want;
              got = want
          | Free i -> (
              match !held with
              | [] -> true
              | l ->
                  let f = List.nth l (i mod List.length l) in
                  held := List.filter (( <> ) f) l;
                  Hw.Memory.free mem f;
                  let s = f / fps in
                  free.(s) <- f :: free.(s);
                  Hw.Memory.used_count mem = List.length !held)
          | Bad f ->
              List.mem f !held
              ||
              match Hw.Memory.free mem f with
              | () -> false
              | exception Invalid_argument msg ->
                  msg = "Memory.free: double free")
        ops)

(* A boot allocates no per-frame state: the frame bitmaps grow as frames
   are handed out, so creating the 4-socket machine every experiment
   boots adds next to nothing to the major heap (an eager byte per frame
   would add 4 x 65,536 bytes, about 32,800 words). [Gc.counters] counts
   this domain's allocations as they happen; [Gc.quick_stat] would only
   see them after the domain's next minor collection. *)
let test_machine_boot_allocation () =
  Gc.minor ();
  let major () =
    let _, _, w = Gc.counters () in
    w
  in
  let before = major () in
  let m = Hw.Machine.create ~sockets:4 ~cores_per_socket:16 () in
  let words = major () -. before in
  ignore (Sys.opaque_identity m);
  if words >= 1000. then
    Alcotest.failf "Machine.create added %.0f major words" words

let () =
  Alcotest.run "hw"
    [
      ( "topology",
        [
          Alcotest.test_case "layout" `Quick test_topology;
          Alcotest.test_case "cost hierarchy" `Quick test_params_costs;
        ] );
      ( "memory",
        [
          Alcotest.test_case "alloc/free" `Quick test_memory_alloc_free;
          Alcotest.test_case "fallback + exhaustion" `Quick
            test_memory_fallback_and_exhaustion;
          Alcotest.test_case "boot allocates no frame state" `Quick
            test_machine_boot_allocation;
        ] );
      ( "spinlock",
        [
          Alcotest.test_case "uncontended cost" `Quick
            test_spinlock_uncontended_cost;
          Alcotest.test_case "contention grows" `Quick
            test_spinlock_contention_grows;
          Alcotest.test_case "fifo" `Quick test_spinlock_fifo;
          Alcotest.test_case "release unheld" `Quick
            test_spinlock_release_unheld;
        ] );
      ( "machine",
        [ Alcotest.test_case "cost helpers" `Quick test_machine_helpers ] );
      ( "cacheline+ipi",
        [
          Alcotest.test_case "cacheline serializes" `Quick
            test_cacheline_serializes;
          Alcotest.test_case "ipi latency" `Quick test_ipi_latency;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_memory_frames_unique;
            prop_memory_alloc_free_roundtrip;
            prop_memory_matches_eager_model;
          ] );
    ]
