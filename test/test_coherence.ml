(* Protocol-level tests of the Popcorn subsystems: page-coherence
   invariants (single writer, read coherence), address-space consistency
   across replicas, migration fidelity, distributed futexes, and the
   single-system image. Includes randomized workloads whose final state is
   checked against the protocol invariants. *)

open Popcorn
module K = Kernelmodel

let page = 4096

let mk ?(kernels = 4) ?(cores_per_kernel = 4) ?opts ?seed () =
  let machine =
    Hw.Machine.create ?seed ~sockets:2
      ~cores_per_socket:(kernels * cores_per_kernel / 2)
      ()
  in
  (machine, Cluster.boot ?opts machine ~kernels ~cores_per_kernel)

let run machine = Sim.Engine.run machine.Hw.Machine.eng

let in_proc ?(origin = 0) (machine, cluster) main =
  Sim.Engine.spawn machine.Hw.Machine.eng (fun () ->
      let proc = Api.start_process cluster ~origin main in
      Api.wait_exit cluster proc);
  run machine

let ok = function Ok v -> v | Error e -> Alcotest.fail e

(* Scenario tests below run under both coherence protocols: the memory
   model they check is protocol-independent by design. *)
let proto_opts protocol =
  { Types.default_options with Types.coherence = protocol }

(* ------------------------------------------------------------------ *)
(* Invariant checkers (run at quiescence)                              *)
(* ------------------------------------------------------------------ *)

(* Across all kernels: at most one writable PTE per page, and a writable
   PTE excludes any other PTE for that page. *)
let check_single_writer cluster pid =
  let holders : (int, (int * bool) list) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun (k : Types.kernel) ->
      match Types.find_replica k pid with
      | None -> ()
      | Some r ->
          K.Page_table.iter r.Types.pt (fun ~vpn pte ->
              let cur =
                match Hashtbl.find_opt holders vpn with
                | Some l -> l
                | None -> []
              in
              Hashtbl.replace holders vpn
                ((k.Types.kid, pte.K.Page_table.writable) :: cur)))
    cluster.Types.kernels;
  Hashtbl.iter
    (fun vpn l ->
      let writers = List.filter snd l in
      if List.length writers > 1 then
        Alcotest.failf "page %d has %d writers" vpn (List.length writers);
      if writers <> [] && List.length l > 1 then
        Alcotest.failf "page %d writable on k%d but replicated on %d kernels"
          vpn
          (fst (List.hd writers))
          (List.length l))
    holders

(* Any kernel holding a PTE must hold the latest committed content. *)
let check_read_coherence cluster pid =
  let proc = Types.proc_exn cluster pid in
  Array.iter
    (fun (k : Types.kernel) ->
      match Types.find_replica k pid with
      | None -> ()
      | Some r ->
          K.Page_table.iter r.Types.pt (fun ~vpn _ ->
              let latest =
                match Hashtbl.find_opt proc.Types.page_version vpn with
                | Some v -> v
                | None -> 0
              in
              let held =
                match Hashtbl.find_opt r.Types.page_data vpn with
                | Some v -> v
                | None -> 0
              in
              if held <> latest then
                Alcotest.failf "kernel %d holds v%d of page %d, latest is v%d"
                  k.Types.kid held vpn latest))
    cluster.Types.kernels

(* Every replica VMA must agree (range and prot) with the origin layout. *)
let check_vma_agreement cluster pid =
  let proc = Types.proc_exn cluster pid in
  let origin = Types.kernel_of cluster proc.Types.origin in
  let master = (Types.replica_exn origin pid).Types.vmas in
  Array.iter
    (fun (k : Types.kernel) ->
      if k.Types.kid <> proc.Types.origin then
        match Types.find_replica k pid with
        | None -> ()
        | Some r ->
            List.iter
              (fun (v : K.Vma.vma) ->
                let rec covered addr =
                  if addr >= K.Vma.vma_end v then true
                  else
                    match K.Vma.find master addr with
                    | Some mv when mv.K.Vma.prot = v.K.Vma.prot ->
                        covered (K.Vma.vma_end mv)
                    | _ -> false
                in
                if not (covered v.K.Vma.start) then
                  Alcotest.failf
                    "kernel %d replica vma %x+%x disagrees with origin"
                    k.Types.kid v.K.Vma.start v.K.Vma.len)
              (K.Vma.vmas r.Types.vmas))
    cluster.Types.kernels

(* Directory writer/readers agree with actual PTE state. *)
let check_directory cluster pid =
  let proc = Types.proc_exn cluster pid in
  Hashtbl.iter
    (fun vpn (loc : Types.page_loc) ->
      match loc.Types.writer with
      | Some w -> (
          match Types.find_replica (Types.kernel_of cluster w) pid with
          | None -> Alcotest.failf "directory writer k%d has no replica" w
          | Some r -> (
              match K.Page_table.get r.Types.pt ~vpn with
              | Some pte ->
                  if not pte.K.Page_table.writable then
                    Alcotest.failf "directory says k%d writes %d; pte is ro" w
                      vpn
              | None ->
                  Alcotest.failf "directory says k%d writes %d; no pte" w vpn))
      | None -> ())
    proc.Types.directory

let check_all cluster pid =
  check_single_writer cluster pid;
  check_read_coherence cluster pid;
  check_vma_agreement cluster pid;
  check_directory cluster pid

(* ------------------------------------------------------------------ *)
(* Scenario tests                                                      *)
(* ------------------------------------------------------------------ *)

let test_write_read_across_kernels protocol () =
  let sys = mk ~opts:(proto_opts protocol) () in
  let _, cluster = sys in
  let the_pid = ref 0 in
  in_proc sys (fun th ->
      the_pid := Api.pid th;
      let vma = ok (Api.mmap th ~len:(8 * page) ~prot:K.Vma.prot_rw) in
      let addr = vma.K.Vma.start in
      (* Write 3 times at origin; remote reader must see version 3. *)
      for _ = 1 to 3 do
        ok (Api.write th ~addr)
      done;
      let done_ = Workloads.Latch.create (Types.eng cluster) 1 in
      ignore
        (Api.spawn th ~target:2 (fun child ->
             Alcotest.(check int) "sees latest" 3 (ok (Api.read child ~addr));
             (* Remote write bumps to 4... *)
             ok (Api.write child ~addr);
             Workloads.Latch.arrive done_));
      Workloads.Latch.wait done_;
      (* ...and the origin re-reads coherently. *)
      Alcotest.(check int) "origin sees remote write" 4
        (ok (Api.read th ~addr)));
  check_all cluster !the_pid

(* Two threads on kernel 1 write-fault one page at once, so the second
   fault reaches the home after the first made kernel 1 the writer. While
   that grant is in flight the first thread keeps writing; a third thread
   on kernel 1 reads throughout and must never see a version older than
   the last one committed. *)
let test_stale_write_grant_keeps_data protocol () =
  let sys = mk ~opts:(proto_opts protocol) () in
  let _, cluster = sys in
  let stale = ref 0 in
  in_proc sys (fun th ->
      let proc = Types.proc_exn cluster (Api.pid th) in
      let vma = ok (Api.mmap th ~len:(4 * page) ~prot:K.Vma.prot_rw) in
      let addr = vma.K.Vma.start in
      let vpn = K.Page_table.vpn_of_addr addr in
      ok (Api.write th ~addr);
      let latch = Workloads.Latch.create (Types.eng cluster) 3 in
      let on_k1 f =
        ignore
          (Api.spawn th ~target:1 (fun c ->
               f c;
               Workloads.Latch.arrive latch))
      in
      on_k1 (fun c ->
          ok (Api.write c ~addr);
          for _ = 1 to 10 do
            Api.compute c (Sim.Time.us 1);
            ok (Api.write c ~addr)
          done);
      on_k1 (fun c -> ok (Api.write c ~addr));
      on_k1 (fun c ->
          for _ = 1 to 40 do
            let v = ok (Api.read c ~addr) in
            if v < Hashtbl.find proc.Types.page_version vpn then incr stale;
            Api.compute c (Sim.Time.ns 50)
          done);
      Workloads.Latch.wait latch);
  Alcotest.(check int) "stale reads" 0 !stale

let test_write_invalidates_readers protocol () =
  let sys = mk ~opts:(proto_opts protocol) () in
  let _, cluster = sys in
  let the_pid = ref 0 in
  in_proc sys (fun th ->
      the_pid := Api.pid th;
      let vma = ok (Api.mmap th ~len:page ~prot:K.Vma.prot_rw) in
      let addr = vma.K.Vma.start in
      ok (Api.write th ~addr);
      (* Three remote kernels replicate the page read-only. *)
      let latch = Workloads.Latch.create (Types.eng cluster) 3 in
      for k = 1 to 3 do
        ignore
          (Api.spawn th ~target:k (fun child ->
               Alcotest.(check int) "replica read" 1 (ok (Api.read child ~addr));
               Workloads.Latch.arrive latch))
      done;
      Workloads.Latch.wait latch;
      (* Origin writes again: all replicas must be invalidated. *)
      ok (Api.write th ~addr);
      Array.iter
        (fun (k : Types.kernel) ->
          if k.Types.kid <> 0 then
            match Types.find_replica k (Api.pid th) with
            | None -> ()
            | Some r ->
                Alcotest.(check bool)
                  (Printf.sprintf "kernel %d invalidated" k.Types.kid)
                  true
                  (K.Page_table.get r.Types.pt
                     ~vpn:(K.Page_table.vpn_of_addr addr)
                  = None))
        cluster.Types.kernels);
  check_all cluster !the_pid

let test_migration_preserves_context () =
  let sys = mk () in
  in_proc sys (fun th ->
      Api.compute th (Sim.Time.us 3);
      let _ = Api.migrate th ~dst:1 in
      let d1 = K.Context.digest th.Api.task.K.Task.ctx in
      let _ = Api.migrate th ~dst:3 in
      let d2 = K.Context.digest th.Api.task.K.Task.ctx in
      Alcotest.(check bool) "ctx evolves deterministically" true (d1 <> d2);
      Alcotest.(check int) "migrations counted" 2 th.Api.task.K.Task.migrations;
      Alcotest.(check int) "hosted by k3" 3 th.Api.task.K.Task.kernel)

let test_migration_roundtrip_and_pages () =
  let sys = mk () in
  let _, cluster = sys in
  let the_pid = ref 0 in
  in_proc sys (fun th ->
      the_pid := Api.pid th;
      let vma = ok (Api.mmap th ~len:(4 * page) ~prot:K.Vma.prot_rw) in
      let addr = vma.K.Vma.start in
      ok (Api.write th ~addr);
      let _ = Api.migrate th ~dst:2 in
      (* Page follows the thread on demand. *)
      Alcotest.(check int) "page followed" 1 (ok (Api.read th ~addr));
      ok (Api.write th ~addr);
      let _ = Api.migrate th ~dst:0 in
      Alcotest.(check int) "back home, still coherent" 2
        (ok (Api.read th ~addr)));
  check_all cluster !the_pid

let test_munmap_across_kernels () =
  let sys = mk () in
  let _, cluster = sys in
  let the_pid = ref 0 in
  in_proc sys (fun th ->
      the_pid := Api.pid th;
      let vma = ok (Api.mmap th ~len:(4 * page) ~prot:K.Vma.prot_rw) in
      let addr = vma.K.Vma.start in
      let latch = Workloads.Latch.create (Types.eng cluster) 1 in
      ignore
        (Api.spawn th ~target:3 (fun child ->
             ok (Api.write child ~addr);
             Workloads.Latch.arrive latch));
      Workloads.Latch.wait latch;
      (* Unmap from the origin; kernel 3's replica must drop everything. *)
      ok (Api.munmap th ~start:addr ~len:(4 * page));
      (match Api.read th ~addr with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "read after munmap succeeded");
      let r3 = Types.replica_exn (Types.kernel_of cluster 3) (Api.pid th) in
      Alcotest.(check bool) "k3 dropped pte" true
        (K.Page_table.get r3.Types.pt ~vpn:(K.Page_table.vpn_of_addr addr)
        = None));
  check_all cluster !the_pid

let test_mprotect_enforced_remotely () =
  let sys = mk () in
  let _, cluster = sys in
  in_proc sys (fun th ->
      let vma = ok (Api.mmap th ~len:(2 * page) ~prot:K.Vma.prot_rw) in
      let addr = vma.K.Vma.start in
      let latch = Workloads.Latch.create (Types.eng cluster) 1 in
      ignore
        (Api.spawn th ~target:1 (fun child ->
             ok (Api.write child ~addr);
             Workloads.Latch.arrive latch));
      Workloads.Latch.wait latch;
      ok (Api.mprotect th ~start:addr ~len:(2 * page) ~prot:K.Vma.prot_r);
      let latch2 = Workloads.Latch.create (Types.eng cluster) 1 in
      ignore
        (Api.spawn th ~target:1 (fun child ->
             (* Reads still fine, writes now refused — also on kernel 1. *)
             ignore (ok (Api.read child ~addr));
             (match Api.write child ~addr with
             | Error _ -> ()
             | Ok () -> Alcotest.fail "write after mprotect r/o succeeded");
             Workloads.Latch.arrive latch2));
      Workloads.Latch.wait latch2)

let test_no_messages_for_local_process () =
  (* The fast-path claim: a single-kernel process performs mmap/fault/futex
     without a single inter-kernel message. *)
  let machine, cluster = mk () in
  Sim.Engine.spawn machine.Hw.Machine.eng (fun () ->
      let proc =
        Api.start_process cluster ~origin:1 (fun th ->
            let vma = ok (Api.mmap th ~len:(8 * page) ~prot:K.Vma.prot_rw) in
            for i = 0 to 7 do
              ok (Api.write th ~addr:(vma.K.Vma.start + (i * page)))
            done;
            ignore (Api.futex_wake th ~addr:vma.K.Vma.start ~count:1);
            ok (Api.munmap th ~start:vma.K.Vma.start ~len:(8 * page)))
      in
      Api.wait_exit cluster proc);
  Msg.Transport.reset_stats cluster.Types.fabric;
  run machine;
  let st = Msg.Transport.stats cluster.Types.fabric in
  Alcotest.(check int) "zero messages" 0 st.Msg.Transport.sent

let test_group_exit_wakes_waiters () =
  let machine, cluster = mk () in
  let observed = ref (-1) in
  Sim.Engine.spawn machine.Hw.Machine.eng (fun () ->
      let proc =
        Api.start_process cluster ~origin:0 (fun th ->
            for k = 1 to 3 do
              ignore
                (Api.spawn th ~target:k (fun child ->
                     Api.compute child (Sim.Time.us (100 * k))))
            done;
            Api.compute th (Sim.Time.us 50))
      in
      Api.wait_exit cluster proc;
      observed := proc.Types.live_threads);
  run machine;
  Alcotest.(check int) "all threads exited" 0 !observed

let test_ssi_global_tasks () =
  let machine, cluster = mk () in
  let listed = ref [] in
  Sim.Engine.spawn machine.Hw.Machine.eng (fun () ->
      let proc =
        Api.start_process cluster ~origin:0 (fun th ->
            let latch = Workloads.Latch.create (Types.eng cluster) 3 in
            let gate = Workloads.Latch.create (Types.eng cluster) 1 in
            for k = 1 to 3 do
              ignore
                (Api.spawn th ~target:k (fun child ->
                     Workloads.Latch.arrive latch;
                     Workloads.Latch.wait gate;
                     ignore child))
            done;
            Workloads.Latch.wait latch;
            listed := Api.global_tasks th;
            Workloads.Latch.arrive gate)
      in
      Api.wait_exit cluster proc);
  run machine;
  Alcotest.(check int) "four live threads listed" 4 (List.length !listed);
  let tids = List.map fst !listed in
  Alcotest.(check bool) "tids unique" true
    (List.length (List.sort_uniq compare tids) = List.length tids)

let test_dfutex_timeout () =
  let sys = mk () in
  let _, cluster = sys in
  in_proc sys (fun th ->
      let result = ref Api.Woken in
      let latch = Workloads.Latch.create (Types.eng cluster) 1 in
      ignore
        (Api.spawn th ~target:2 (fun child ->
             result :=
               Api.futex_wait child ~timeout:(Sim.Time.us 50) ~addr:0x800000 ();
             Workloads.Latch.arrive latch));
      Workloads.Latch.wait latch;
      Alcotest.(check bool) "timed out" true (!result = Api.Timed_out);
      (* A wake after the timeout wakes nobody. *)
      Api.compute th (Sim.Time.us 10);
      Alcotest.(check int) "nobody woken" 0
        (Api.futex_wake th ~addr:0x800000 ~count:1))

let test_dfutex_wake_count () =
  let sys = mk () in
  let _, cluster = sys in
  in_proc sys (fun th ->
      let addr = 0x800000 in
      let parked = Workloads.Latch.create (Types.eng cluster) 4 in
      let woken = ref 0 in
      for k = 0 to 3 do
        ignore
          (Api.spawn th ~target:k (fun child ->
               (match Api.futex_wait child ~addr () with
               | Api.Woken -> incr woken
               | Api.Timed_out -> ());
               Workloads.Latch.arrive parked))
      done;
      Api.compute th (Sim.Time.ms 1);
      (* Wake exactly 2, then the rest. *)
      let n = ref 0 in
      while !n < 2 do
        n := !n + Api.futex_wake th ~addr ~count:(2 - !n);
        if !n < 2 then Api.compute th (Sim.Time.us 100)
      done;
      Api.compute th (Sim.Time.ms 1);
      Alcotest.(check int) "exactly two woken so far" 2 !woken;
      let m = ref 0 in
      while !m < 2 do
        m := !m + Api.futex_wake th ~addr ~count:10;
        if !m < 2 then Api.compute th (Sim.Time.us 100)
      done;
      Workloads.Latch.wait parked)

let test_error_paths () =
  let sys = mk () in
  in_proc sys (fun th ->
      (* Unmapped access is a segfault, not a crash. *)
      (match Api.read th ~addr:0x1234_5000 with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "read of unmapped succeeded");
      (* mmap argument validation. *)
      (match Api.mmap th ~len:123 ~prot:K.Vma.prot_rw with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "unaligned mmap accepted");
      (* munmap over a hole is fine (POSIX), munmap unaligned is not. *)
      (match Api.munmap th ~start:0x7000_0000_0000 ~len:page with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      (match Api.munmap th ~start:0x7000_0000_0001 ~len:page with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "unaligned munmap accepted");
      (* Waking a futex nobody waits on. *)
      Alcotest.(check int) "wake none" 0
        (Api.futex_wake th ~addr:0xDEAD000 ~count:5);
      (* Writes to a read-only region are refused on every kernel. *)
      let vma = ok (Api.mmap th ~len:page ~prot:K.Vma.prot_r) in
      match Api.write th ~addr:vma.K.Vma.start with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "write to r/o accepted")

(* ------------------------------------------------------------------ *)
(* Cross-protocol equivalence                                          *)
(* ------------------------------------------------------------------ *)

(* Both protocols implement the same single-writer memory model; they may
   only differ in timing and message routing. A seeded, strictly
   sequential op stream — one thread migrating across all four kernels,
   reading, writing and punching munmap holes — must therefore produce
   identical read values, identical error steps and an identical final
   page-version table under either protocol. *)
type proto_trace = {
  reads : (int * int) list;  (** (step, value read) *)
  errors : (int * string) list;  (** (step, segfault/error text) *)
  versions : (int * int) list;  (** final (vpn, version), sorted *)
}

let protocol_trace protocol ~seed =
  let sys = mk ~kernels:4 ~opts:(proto_opts protocol) ~seed () in
  let machine, cluster = sys in
  let the_proc = ref None in
  let reads = ref [] and errors = ref [] in
  Sim.Engine.spawn machine.Hw.Machine.eng (fun () ->
      let proc =
        Api.start_process cluster ~origin:0 (fun th ->
            let rng = Sim.Prng.create ~seed in
            let shared = ok (Api.mmap th ~len:(24 * page) ~prot:K.Vma.prot_rw) in
            let base = shared.K.Vma.start in
            let record step = function
              | Ok v -> reads := (step, v) :: !reads
              | Error e -> errors := (step, e) :: !errors
            in
            for step = 1 to 150 do
              let addr = base + (Sim.Prng.int rng 24 * page) in
              match Sim.Prng.int rng 12 with
              | 0 | 1 | 2 | 3 -> record step (Api.read th ~addr)
              | 4 | 5 | 6 | 7 | 8 ->
                  record step (Result.map (fun () -> -1) (Api.write th ~addr))
              | 9 | 10 -> ignore (Api.migrate th ~dst:(Sim.Prng.int rng 4))
              | _ ->
                  let len = (1 + Sim.Prng.int rng 4) * page in
                  record step
                    (Result.map (fun () -> -2) (Api.munmap th ~start:addr ~len))
            done)
      in
      the_proc := Some proc;
      Api.wait_exit cluster proc);
  run machine;
  let proc = Option.get !the_proc in
  let versions =
    Hashtbl.fold (fun vpn v acc -> (vpn, v) :: acc) proc.Types.page_version []
    |> List.sort compare
  in
  { reads = List.rev !reads; errors = List.rev !errors; versions }

let test_protocol_equivalence () =
  List.iter
    (fun seed ->
      let a = protocol_trace Coherence.Protocol.Origin_home ~seed in
      let b = protocol_trace Coherence.Protocol.Sharded_dir ~seed in
      Alcotest.(check (list (pair int int))) "read values agree" a.reads b.reads;
      Alcotest.(check (list (pair int string)))
        "segfault steps agree" a.errors b.errors;
      Alcotest.(check (list (pair int int)))
        "final page versions agree" a.versions b.versions)
    [ 11; 23; 4242 ]

(* ------------------------------------------------------------------ *)
(* drop_range edge cases                                               *)
(* ------------------------------------------------------------------ *)

(* A partial munmap whose range spans origin-owned, remotely-owned,
   read-replicated and never-touched pages must clean up exactly the
   directory entries, versions and fault locks inside the hole — on
   whichever kernel homes each page — and leave the rest coherent. *)
let test_drop_range_edges protocol () =
  let sys = mk ~opts:(proto_opts protocol) () in
  let _, cluster = sys in
  let the_pid = ref 0 in
  in_proc sys (fun th ->
      the_pid := Api.pid th;
      let vma = ok (Api.mmap th ~len:(8 * page) ~prot:K.Vma.prot_rw) in
      let base = vma.K.Vma.start in
      let vpn i = K.Page_table.vpn_of_addr (base + (i * page)) in
      (* Pages 0,1 owned at the origin... *)
      ok (Api.write th ~addr:base);
      ok (Api.write th ~addr:(base + page));
      let latch = Workloads.Latch.create (Types.eng cluster) 1 in
      ignore
        (Api.spawn th ~target:2 (fun child ->
             (* ...3,4 owned on kernel 2, 1 also read-replicated there... *)
             ok (Api.write child ~addr:(base + (3 * page)));
             ok (Api.write child ~addr:(base + (4 * page)));
             ignore (ok (Api.read child ~addr:(base + page)));
             Workloads.Latch.arrive latch));
      Workloads.Latch.wait latch;
      (* ...and 6,7 never touched. Unmap the middle six pages. *)
      let drop_msgs () = cluster.Types.coh_stats.Coherence.Stats.drop_msgs in
      let drops_before = drop_msgs () in
      ok (Api.munmap th ~start:(base + page) ~len:(6 * page));
      let proc = th.Api.proc in
      (* One batched Drop_range per home other than the initiating origin:
         none under origin-home, one per remote shard under sharded. *)
      let remote_homes =
        List.init 6 (fun i ->
            Coherence.Protocol.home protocol ~origin:proc.Types.origin
              ~nkernels:(Types.nkernels cluster) ~vpn:(vpn (i + 1)))
        |> List.filter (fun h -> h <> proc.Types.origin)
        |> List.sort_uniq compare
      in
      Alcotest.(check int) "one drop message per remote home"
        (List.length remote_homes)
        (drop_msgs () - drops_before);
      for i = 1 to 6 do
        Alcotest.(check bool)
          (Printf.sprintf "page %d directory entry dropped" i)
          true
          (Option.is_none (Hashtbl.find_opt proc.Types.directory (vpn i)));
        Alcotest.(check bool)
          (Printf.sprintf "page %d version dropped" i)
          true
          (Option.is_none (Hashtbl.find_opt proc.Types.page_version (vpn i)));
        Alcotest.(check bool)
          (Printf.sprintf "page %d fault lock dropped" i)
          true
          (Option.is_none (Hashtbl.find_opt proc.Types.fault_locks (vpn i)))
      done;
      (* Outside the hole page 0 keeps its history... *)
      Alcotest.(check int) "page 0 still coherent" 1 (ok (Api.read th ~addr:base));
      (* ...while the hole segfaults on every kernel. *)
      (match Api.read th ~addr:(base + (3 * page)) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "read in hole succeeded");
      let latch2 = Workloads.Latch.create (Types.eng cluster) 1 in
      ignore
        (Api.spawn th ~target:2 (fun child ->
             (match Api.read child ~addr:(base + (4 * page)) with
             | Error _ -> ()
             | Ok _ -> Alcotest.fail "remote read in hole succeeded");
             Workloads.Latch.arrive latch2));
      Workloads.Latch.wait latch2);
  check_all cluster !the_pid

(* Origin-side mprotect drops its local copy of the range exactly as
   munmap does, TLB flush included. In a single-kernel process neither
   sends a message, so the two must take the same simulated time. *)
let test_origin_mprotect_flushes_like_munmap () =
  let sys = mk () in
  let _, cluster = sys in
  let elapsed f =
    let t0 = Sim.Engine.now (Types.eng cluster) in
    ok (f ());
    Sim.Engine.now (Types.eng cluster) - t0
  in
  let mprotect_ns = ref 0 and munmap_ns = ref 0 in
  in_proc sys (fun th ->
      let written_range () =
        let vma = ok (Api.mmap th ~len:(4 * page) ~prot:K.Vma.prot_rw) in
        for i = 0 to 3 do
          ok (Api.write th ~addr:(vma.K.Vma.start + (i * page)))
        done;
        vma.K.Vma.start
      in
      let a = written_range () in
      mprotect_ns :=
        elapsed (fun () ->
            Api.mprotect th ~start:a ~len:(4 * page) ~prot:K.Vma.prot_r);
      let b = written_range () in
      munmap_ns := elapsed (fun () -> Api.munmap th ~start:b ~len:(4 * page)));
  Alcotest.(check int) "mprotect takes as long as munmap" !munmap_ns
    !mprotect_ns

(* The documented trade-off of the sharded directory: pages hash to homes
   irrespective of the origin, so even a single-kernel process messages the
   remote shards its pages land on (cf. the origin-home zero-message test
   above). *)
let test_sharded_homes_off_origin () =
  let machine, cluster =
    mk ~opts:(proto_opts Coherence.Protocol.Sharded_dir) ()
  in
  Sim.Engine.spawn machine.Hw.Machine.eng (fun () ->
      let proc =
        Api.start_process cluster ~origin:1 (fun th ->
            let vma = ok (Api.mmap th ~len:(8 * page) ~prot:K.Vma.prot_rw) in
            for i = 0 to 7 do
              ok (Api.write th ~addr:(vma.K.Vma.start + (i * page)))
            done)
      in
      Api.wait_exit cluster proc);
  Msg.Transport.reset_stats cluster.Types.fabric;
  run machine;
  let st = Msg.Transport.stats cluster.Types.fabric in
  Alcotest.(check bool) "remote shards were consulted" true
    (st.Msg.Transport.sent > 0)

(* ------------------------------------------------------------------ *)
(* Randomized workload + invariant check                               *)
(* ------------------------------------------------------------------ *)

let random_workload ?opts ~seed ~kernels ~threads ~steps () =
  let sys = mk ~kernels ?opts ~seed () in
  let machine, cluster = sys in
  let the_pid = ref 0 in
  let rng = Sim.Prng.create ~seed in
  Sim.Engine.spawn machine.Hw.Machine.eng (fun () ->
      let proc =
        Api.start_process cluster ~origin:0 (fun th ->
            the_pid := Api.pid th;
            (* Shared region all threads fault on. *)
            let shared = ok (Api.mmap th ~len:(16 * page) ~prot:K.Vma.prot_rw) in
            let latch = Workloads.Latch.create (Types.eng cluster) threads in
            for _ = 1 to threads do
              let target = Sim.Prng.int rng kernels in
              ignore
                (Api.spawn th ~target (fun child ->
                     for _ = 1 to steps do
                       let addr =
                         shared.K.Vma.start + (Sim.Prng.int rng 16 * page)
                       in
                       match Sim.Prng.int rng 4 with
                       | 0 -> ignore (ok (Api.read child ~addr))
                       | 1 -> ok (Api.write child ~addr)
                       | 2 -> Api.compute child (Sim.Time.us 5)
                       | _ ->
                           let dst = Sim.Prng.int rng kernels in
                           ignore (Api.migrate child ~dst)
                     done;
                     Workloads.Latch.arrive latch))
            done;
            Workloads.Latch.wait latch)
      in
      Api.wait_exit cluster proc);
  run machine;
  (cluster, !the_pid)

(* The determinism claim, end to end: identical seeds give bit-identical
   simulations — same final clock, same message counts, same event count. *)
let test_whole_system_determinism () =
  let drive (machine, cluster) ~seed =
    let rng = Sim.Prng.create ~seed in
    Sim.Engine.spawn machine.Hw.Machine.eng (fun () ->
        let proc =
          Api.start_process cluster ~origin:0 (fun th ->
              let shared =
                ok (Api.mmap th ~len:(8 * page) ~prot:K.Vma.prot_rw)
              in
              let latch = Workloads.Latch.create (Types.eng cluster) 5 in
              for _ = 1 to 5 do
                ignore
                  (Api.spawn th ~target:(Sim.Prng.int rng 4) (fun child ->
                       for _ = 1 to 10 do
                         let addr =
                           shared.K.Vma.start + (Sim.Prng.int rng 8 * page)
                         in
                         if Sim.Prng.bool rng then ok (Api.write child ~addr)
                         else
                           ignore
                             (Api.migrate child ~dst:(Sim.Prng.int rng 4))
                       done;
                       Workloads.Latch.arrive latch))
              done;
              Workloads.Latch.wait latch)
        in
        Api.wait_exit cluster proc);
    run machine
  in
  (* The determinism claim, end to end: identical seeds give bit-identical
     simulations — same final clock, same message and event counts. *)
  let fingerprint seed =
    let sys = mk ~seed () in
    let machine, cluster = sys in
    drive sys ~seed;
    let st = Msg.Transport.stats cluster.Types.fabric in
    ( Sim.Engine.now machine.Hw.Machine.eng,
      Sim.Engine.events_processed machine.Hw.Machine.eng,
      st.Msg.Transport.sent,
      st.Msg.Transport.doorbells )
  in
  let a = fingerprint 77 and b = fingerprint 77 and c = fingerprint 78 in
  Alcotest.(check bool) "same seed, same universe" true (a = b);
  Alcotest.(check bool) "different seed, different universe" true (a <> c)

(* Seeded (threads, steps, seed) runs. Some are regression inputs for
   two address-space-consistency races, each of which failed here:
   - origin 912 and sharded 651: a grant without data overwrote the
     requester's copy with the version the home read when it built the
     grant, rolling back a commit by a thread already writing there
     ([Impl.install]);
   - 6521 (both protocols) and origin 135: two threads arriving on a
     kernel at once each created its replica, and the second replaced
     the one the first had already faulted pages into
     ([Thread_group.ensure_replica]). *)
let seeded_invariant_runs ?opts runs () =
  List.iter
    (fun (threads, steps, seed) ->
      let cluster, pid =
        random_workload ?opts ~seed ~kernels:4 ~threads ~steps ()
      in
      check_all cluster pid)
    runs

let test_random_invariants =
  seeded_invariant_runs
    [
      (8, 30, 1); (8, 30, 2); (8, 30, 3); (8, 30, 42); (8, 30, 1337);
      (8, 30, 912); (6, 15, 6521); (6, 15, 135);
    ]

let test_random_invariants_sharded =
  seeded_invariant_runs
    ~opts:(proto_opts Coherence.Protocol.Sharded_dir)
    [
      (8, 30, 1); (8, 30, 2); (8, 30, 42); (8, 30, 1337); (8, 30, 651);
      (6, 15, 6521);
    ]

let prop_random_coherence =
  QCheck.Test.make ~name:"random workload keeps coherence invariants"
    ~count:15
    QCheck.(int_bound 10_000)
    (fun seed ->
      let cluster, pid =
        random_workload ~seed ~kernels:4 ~threads:6 ~steps:15 ()
      in
      check_all cluster pid;
      true)

let () =
  Alcotest.run "popcorn-protocols"
    [
      ( "coherence",
        [
          Alcotest.test_case "write/read across kernels (origin)" `Quick
            (test_write_read_across_kernels Coherence.Protocol.Origin_home);
          Alcotest.test_case "write/read across kernels (sharded)" `Quick
            (test_write_read_across_kernels Coherence.Protocol.Sharded_dir);
          Alcotest.test_case "write invalidates readers (origin)" `Quick
            (test_write_invalidates_readers Coherence.Protocol.Origin_home);
          Alcotest.test_case "write invalidates readers (sharded)" `Quick
            (test_write_invalidates_readers Coherence.Protocol.Sharded_dir);
          Alcotest.test_case "stale write grant keeps data (origin)" `Quick
            (test_stale_write_grant_keeps_data Coherence.Protocol.Origin_home);
          Alcotest.test_case "stale write grant keeps data (sharded)" `Quick
            (test_stale_write_grant_keeps_data Coherence.Protocol.Sharded_dir);
          Alcotest.test_case "protocols are memory-model equivalent" `Quick
            test_protocol_equivalence;
        ] );
      ( "migration",
        [
          Alcotest.test_case "context preserved" `Quick
            test_migration_preserves_context;
          Alcotest.test_case "roundtrip with pages" `Quick
            test_migration_roundtrip_and_pages;
        ] );
      ( "addr-space",
        [
          Alcotest.test_case "munmap across kernels" `Quick
            test_munmap_across_kernels;
          Alcotest.test_case "mprotect enforced remotely" `Quick
            test_mprotect_enforced_remotely;
          Alcotest.test_case "local process sends no messages" `Quick
            test_no_messages_for_local_process;
          Alcotest.test_case "drop_range edge cases (origin)" `Quick
            (test_drop_range_edges Coherence.Protocol.Origin_home);
          Alcotest.test_case "drop_range edge cases (sharded)" `Quick
            (test_drop_range_edges Coherence.Protocol.Sharded_dir);
          Alcotest.test_case "sharded homes pages off-origin" `Quick
            test_sharded_homes_off_origin;
          Alcotest.test_case "origin mprotect flushes like munmap" `Quick
            test_origin_mprotect_flushes_like_munmap;
        ] );
      ( "groups+ssi",
        [
          Alcotest.test_case "group exit wakes waiters" `Quick
            test_group_exit_wakes_waiters;
          Alcotest.test_case "global task list" `Quick test_ssi_global_tasks;
        ] );
      ( "errors",
        [ Alcotest.test_case "syscall error paths" `Quick test_error_paths ] );
      ( "dfutex",
        [
          Alcotest.test_case "timeout" `Quick test_dfutex_timeout;
          Alcotest.test_case "wake count" `Quick test_dfutex_wake_count;
        ] );
      ( "random",
        Alcotest.test_case "whole-system determinism" `Quick
          test_whole_system_determinism
        :: Alcotest.test_case "seeded invariant runs" `Quick
          test_random_invariants
        :: Alcotest.test_case "seeded invariant runs (sharded)" `Quick
          test_random_invariants_sharded
        :: List.map QCheck_alcotest.to_alcotest [ prop_random_coherence ] );
    ]
