(* Tests for the SMP Linux baseline: rwsem semantics, clone/exit
   bookkeeping, mm operations with shootdowns, futexes, contention
   behaviour. *)

open Sim
module K = Kernelmodel

let page = 4096

let mk () =
  let m = Hw.Machine.create ~sockets:2 ~cores_per_socket:8 () in
  (m, Smp.Smp_os.boot m)

let in_proc (machine, sys) main =
  Engine.spawn machine.Hw.Machine.eng (fun () ->
      let proc = Smp.Smp_api.start_process sys main in
      Smp.Smp_api.wait_exit sys proc);
  Engine.run machine.Hw.Machine.eng

let ok = function Ok v -> v | Error e -> Alcotest.fail e

(* --- rwsem --- *)

let test_rwsem_readers_concurrent () =
  let m = Hw.Machine.create ~sockets:1 ~cores_per_socket:8 () in
  let eng = m.Hw.Machine.eng in
  let sem = Smp.Rwsem.create eng m.Hw.Machine.params m.Hw.Machine.topo ~name:"s" in
  let inside = ref 0 and max_inside = ref 0 in
  for core = 0 to 3 do
    Engine.spawn eng (fun () ->
        Smp.Rwsem.down_read sem ~core;
        incr inside;
        max_inside := max !max_inside !inside;
        Engine.sleep eng (Time.us 10);
        decr inside;
        Smp.Rwsem.up_read sem ~core)
  done;
  Engine.run eng;
  Alcotest.(check bool) "readers overlap" true (!max_inside > 1)

let test_rwsem_writer_excludes () =
  let m = Hw.Machine.create ~sockets:1 ~cores_per_socket:8 () in
  let eng = m.Hw.Machine.eng in
  let sem = Smp.Rwsem.create eng m.Hw.Machine.params m.Hw.Machine.topo ~name:"s" in
  let in_write = ref false and violation = ref false in
  Engine.spawn eng (fun () ->
      Smp.Rwsem.down_write sem ~core:0;
      in_write := true;
      Engine.sleep eng (Time.us 20);
      in_write := false;
      Smp.Rwsem.up_write sem ~core:0);
  for core = 1 to 3 do
    Engine.spawn eng (fun () ->
        Engine.sleep eng (Time.us 1);
        Smp.Rwsem.down_read sem ~core;
        if !in_write then violation := true;
        Engine.sleep eng (Time.us 5);
        Smp.Rwsem.up_read sem ~core)
  done;
  Engine.run eng;
  Alcotest.(check bool) "no reader inside writer" false !violation

let test_rwsem_writer_not_starved () =
  let m = Hw.Machine.create ~sockets:1 ~cores_per_socket:8 () in
  let eng = m.Hw.Machine.eng in
  let sem = Smp.Rwsem.create eng m.Hw.Machine.params m.Hw.Machine.topo ~name:"s" in
  let writer_done_at = ref 0 in
  (* A stream of readers; a writer arrives early and must get in before
     later readers pile past it. *)
  Engine.spawn eng (fun () ->
      Smp.Rwsem.down_read sem ~core:0;
      Engine.sleep eng (Time.us 10);
      Smp.Rwsem.up_read sem ~core:0);
  Engine.spawn eng (fun () ->
      Engine.sleep eng (Time.us 1);
      Smp.Rwsem.down_write sem ~core:1;
      writer_done_at := Engine.now eng;
      Smp.Rwsem.up_write sem ~core:1);
  Engine.spawn eng (fun () ->
      Engine.sleep eng (Time.us 2);
      Smp.Rwsem.down_read sem ~core:2;
      (* This reader must run after the queued writer. *)
      Alcotest.(check bool) "writer ran first" true (!writer_done_at > 0);
      Smp.Rwsem.up_read sem ~core:2);
  Engine.run eng

(* --- processes, threads, mm --- *)

let test_clone_and_exit_counts () =
  let sys = mk () in
  let _, os = sys in
  in_proc sys (fun th ->
      (* Park children on futexes so they stay alive for the count. *)
      for i = 1 to 5 do
        ignore
          (Smp.Smp_api.spawn th (fun child ->
               ignore (Smp.Smp_api.futex_wait child ~addr:(0xA000 + (i * 64)) ())))
      done;
      Smp.Smp_api.compute th (Time.ms 1);
      Alcotest.(check int) "live incl children" 6
        th.Smp.Smp_api.proc.Smp.Smp_os.live_threads;
      for i = 1 to 5 do
        let n = ref 0 in
        while !n = 0 do
          n := Smp.Smp_api.futex_wake th ~addr:(0xA000 + (i * 64)) ~count:1;
          if !n = 0 then Smp.Smp_api.compute th (Time.us 50)
        done
      done);
  ignore os

let test_mmap_fault_munmap () =
  let sys = mk () in
  in_proc sys (fun th ->
      let vma = ok (Smp.Smp_api.mmap th ~len:(4 * page) ~prot:K.Vma.prot_rw) in
      let addr = vma.K.Vma.start in
      ok (Smp.Smp_api.write th ~addr);
      Alcotest.(check int) "version 1" 1 (ok (Smp.Smp_api.read th ~addr));
      ok (Smp.Smp_api.write th ~addr);
      Alcotest.(check int) "version 2" 2 (ok (Smp.Smp_api.read th ~addr));
      ok (Smp.Smp_api.munmap th ~start:addr ~len:(4 * page));
      match Smp.Smp_api.read th ~addr with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "read after munmap")

let test_munmap_frees_frames () =
  let machine, os = mk () in
  let used_before = ref 0 and used_mid = ref 0 and used_after = ref 0 in
  Engine.spawn machine.Hw.Machine.eng (fun () ->
      let proc = Smp.Smp_api.start_process os (fun th ->
          used_before := Hw.Memory.used_count machine.Hw.Machine.mem;
          let vma = ok (Smp.Smp_api.mmap th ~len:(8 * page) ~prot:K.Vma.prot_rw) in
          for i = 0 to 7 do
            ok (Smp.Smp_api.write th ~addr:(vma.K.Vma.start + (i * page)))
          done;
          used_mid := Hw.Memory.used_count machine.Hw.Machine.mem;
          ok (Smp.Smp_api.munmap th ~start:vma.K.Vma.start ~len:(8 * page));
          used_after := Hw.Memory.used_count machine.Hw.Machine.mem)
      in
      Smp.Smp_api.wait_exit os proc);
  Engine.run machine.Hw.Machine.eng;
  Alcotest.(check int) "8 frames allocated" (!used_before + 8) !used_mid;
  Alcotest.(check int) "all freed" !used_before !used_after

let test_shootdown_scales_with_threads () =
  (* munmap cost must grow with the number of cores running the process. *)
  let cost_with_threads n =
    let sys = mk () in
    let _, os = sys in
    let result = ref 0 in
    in_proc sys (fun th ->
        let gate = ref 0 in
        for _ = 1 to n do
          ignore
            (Smp.Smp_api.spawn th (fun child ->
                 (* Keep running so the core stays in the mm's set. *)
                 while !gate = 0 do
                   Smp.Smp_api.compute child (Time.us 100)
                 done))
        done;
        Smp.Smp_api.compute th (Time.ms 1);
        let vma = ok (Smp.Smp_api.mmap th ~len:page ~prot:K.Vma.prot_rw) in
        ok (Smp.Smp_api.write th ~addr:vma.K.Vma.start);
        let t0 = Engine.now (Smp.Smp_os.eng os) in
        ok (Smp.Smp_api.munmap th ~start:vma.K.Vma.start ~len:page);
        result := Engine.now (Smp.Smp_os.eng os) - t0;
        gate := 1);
    !result
  in
  let c1 = cost_with_threads 1 and c12 = cost_with_threads 12 in
  Alcotest.(check bool)
    (Printf.sprintf "shootdown grows (%d vs %d)" c1 c12)
    true
    (c12 > c1 + Time.us 3)

let test_futex_roundtrip () =
  let sys = mk () in
  in_proc sys (fun th ->
      let woken = ref false in
      ignore
        (Smp.Smp_api.spawn th (fun child ->
             match Smp.Smp_api.futex_wait child ~addr:0xBEEF000 () with
             | Smp.Smp_api.Woken -> woken := true
             | Smp.Smp_api.Timed_out -> ()));
      Smp.Smp_api.compute th (Time.ms 1);
      let n = ref 0 in
      while !n = 0 do
        n := Smp.Smp_api.futex_wake th ~addr:0xBEEF000 ~count:1;
        if !n = 0 then Smp.Smp_api.compute th (Time.us 50)
      done;
      while not !woken do
        Smp.Smp_api.compute th (Time.us 50)
      done)

let test_pids_unique () =
  let machine, os = mk () in
  let pids = ref [] in
  Engine.spawn machine.Hw.Machine.eng (fun () ->
      for _ = 1 to 5 do
        let proc =
          Smp.Smp_api.start_process os (fun th ->
              Smp.Smp_api.compute th (Time.us 1))
        in
        pids := proc.Smp.Smp_os.pid :: !pids
      done);
  Engine.run machine.Hw.Machine.eng;
  Alcotest.(check int) "unique" 5 (List.length (List.sort_uniq compare !pids))

let () =
  Alcotest.run "smp"
    [
      ( "rwsem",
        [
          Alcotest.test_case "readers concurrent" `Quick
            test_rwsem_readers_concurrent;
          Alcotest.test_case "writer excludes" `Quick
            test_rwsem_writer_excludes;
          Alcotest.test_case "writer not starved" `Quick
            test_rwsem_writer_not_starved;
        ] );
      ( "threads",
        [
          Alcotest.test_case "clone/exit counts" `Quick
            test_clone_and_exit_counts;
          Alcotest.test_case "pids unique" `Quick test_pids_unique;
        ] );
      ( "mm",
        [
          Alcotest.test_case "mmap/fault/munmap" `Quick test_mmap_fault_munmap;
          Alcotest.test_case "munmap frees frames" `Quick
            test_munmap_frees_frames;
          Alcotest.test_case "shootdown scales" `Quick
            test_shootdown_scales_with_threads;
        ] );
      ( "futex",
        [ Alcotest.test_case "wait/wake roundtrip" `Quick test_futex_roundtrip ] );
    ]
