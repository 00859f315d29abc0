(** Barrelfish-style multikernel baseline.

    One CPU driver per core; {e no} shared kernel state, no single-system
    image, no transparent thread migration. An application is a {e domain}
    that spans cores by explicitly spawning one dispatcher per core; each
    dispatcher owns a private address space (so mm operations are purely
    local and scale perfectly), and dispatchers communicate over explicit
    message channels (UMP-style: shared-memory rings with notification).

    This is the comparison point for the paper's claim that a
    replicated-kernel OS "scales as well as a multikernel OS" while keeping
    the shared-memory programming model: here the {e application} must be
    rewritten around message passing and partitioning. *)

open Sim
module K = Kernelmodel

type payload =
  | Spawn_req of { ticket : int; domain_id : int }
  | Spawn_ack of { ticket : int }
  | User_msg of { chan_id : int; data : int; bytes : int }

type t = {
  machine : Hw.Machine.t;
  fabric : payload Msg.Transport.t;
  cpus : K.Cpu.t array; (* one per core; single dispatcher each, RR *)
  rpc : payload Msg.Rpc.t array; (* per-core ticket tables *)
  chans : (int, chan) Hashtbl.t;
  mutable next_chan : int;
  mutable next_domain : int;
  domains : (int, domain) Hashtbl.t;
  dispatcher_label : Engine.label;
      (** interned at boot: one fiber per dispatcher spawned *)
}

and domain = {
  sys : t;
  id : int;
  mutable dispatchers : int; (* live count *)
  exit_waiters : unit Waitq.t;
}

and dispatcher = {
  dom : domain;
  core : Hw.Topology.core;
  vmas : K.Vma.t;
  pt : K.Page_table.t;
}

and chan = {
  chan_id : int;
  inbox : (int * int) Queue.t; (* (data, bytes) *)
  recv_waiters : (int * int) Waitq.t;
}

let eng t = t.machine.Hw.Machine.eng
let params t = t.machine.Hw.Machine.params

(* Barrelfish syscalls are cheap (small CPU driver). *)
let syscall_cost = Time.ns 80
let vma_op_cost = Time.ns 350
let dispatcher_create_cost = Time.us 20
let frame_alloc_cost = Time.ns 300
let zero_page_cost = Time.ns 600

let boot (machine : Hw.Machine.t) : t =
  let e = machine.Hw.Machine.eng in
  let p = machine.Hw.Machine.params in
  let topo = machine.Hw.Machine.topo in
  let ncores = Hw.Topology.total_cores topo in
  let sys_ref = ref None in
  let fabric =
    Msg.Transport.create machine ~ring_slots:64
      ~handler:(fun _t ~dst ~src _delivery payload ->
        let sys = match !sys_ref with Some s -> s | None -> assert false in
        match payload with
        | Spawn_req { ticket; domain_id } ->
            (* Monitor on [dst] constructs the dispatcher, then acks. *)
            Engine.sleep e dispatcher_create_cost;
            ignore domain_id;
            Msg.Transport.send sys.fabric ~src:dst ~dst:src ~bytes:48
              (Spawn_ack { ticket })
        | Spawn_ack { ticket } -> Msg.Rpc.complete sys.rpc.(dst) ~ticket payload
        | User_msg { chan_id; data; bytes } -> (
            match Hashtbl.find_opt sys.chans chan_id with
            | None -> ()
            | Some c ->
                if not (Waitq.wake_one c.recv_waiters (data, bytes)) then
                  Queue.push (data, bytes) c.inbox))
  in
  List.iter
    (fun core -> Msg.Transport.add_node fabric core ~home_core:core)
    (Hw.Topology.all_cores topo);
  let sys =
    {
      machine;
      fabric;
      cpus =
        Array.init ncores (fun core ->
            K.Cpu.create e p ~core ~quantum:(Time.ms 1));
      rpc = Array.init ncores (fun _ -> Msg.Rpc.create e);
      chans = Hashtbl.create 64;
      next_chan = 1;
      next_domain = 1;
      domains = Hashtbl.create 16;
      dispatcher_label = Engine.label e ~tag:"mk" "mk-dispatcher";
    }
  in
  sys_ref := Some sys;
  sys

let compute (d : dispatcher) dt = K.Cpu.compute d.dom.sys.cpus.(d.core) dt

let fresh_vmas () =
  let vmas = K.Vma.create () in
  List.iter
    (fun (start, len, prot, kind) ->
      match K.Vma.map vmas ~fixed:start ~len ~prot ~kind () with
      | Ok _ -> ()
      | Error e -> invalid_arg e)
    [
      (0x400000, 0x100000, K.Vma.prot_rx, K.Vma.File "domain");
      (0x800000, 0x400000, K.Vma.prot_rw, K.Vma.Heap);
    ];
  vmas

let make_dispatcher dom core =
  { dom; core; vmas = fresh_vmas (); pt = K.Page_table.create () }

(** Start a domain with its first dispatcher on [core]. *)
let start_domain t ~core main : domain =
  Hw.Machine.metric_incr t.machine "mk.domains";
  Hw.Machine.metric_incr t.machine ~kernel:core "mk.dispatchers";
  let id = t.next_domain in
  t.next_domain <- id + 1;
  let dom = { sys = t; id; dispatchers = 1; exit_waiters = Waitq.create ~eng:(eng t) () } in
  Hashtbl.replace t.domains id dom;
  let d = make_dispatcher dom core in
  Engine.spawn_label (eng t) t.dispatcher_label (fun () ->
      Engine.sleep (eng t) dispatcher_create_cost;
      main d;
      dom.dispatchers <- dom.dispatchers - 1;
      if dom.dispatchers = 0 then ignore (Waitq.wake_all dom.exit_waiters ()));
  dom

(** Explicitly span the domain onto another core: ship a spawn request to
    the remote monitor, wait for the dispatcher to be constructed, then run
    [body] there. This is the multikernel's (non-transparent) analogue of
    remote thread creation. *)
let spawn_dispatcher (d : dispatcher) ~core body : unit =
  let t = d.dom.sys in
  Hw.Machine.metric_incr t.machine ~kernel:core "mk.dispatchers";
  Engine.sleep (eng t) syscall_cost;
  (match
     Msg.Rpc.call t.rpc.(d.core) (fun ticket ->
         Msg.Transport.send t.fabric ~src:d.core ~dst:core ~bytes:96
           (Spawn_req { ticket; domain_id = d.dom.id }))
   with
  | Spawn_ack _ -> ()
  | _ -> assert false);
  d.dom.dispatchers <- d.dom.dispatchers + 1;
  let child = make_dispatcher d.dom core in
  Engine.spawn_label (eng t) t.dispatcher_label (fun () ->
      Engine.sleep (eng t) (params t).Hw.Params.context_switch;
      body child;
      d.dom.dispatchers <- d.dom.dispatchers - 1;
      if d.dom.dispatchers = 0 then
        ignore (Waitq.wake_all d.dom.exit_waiters ()))

(* --- local memory: private per dispatcher, no global consistency --- *)

let mmap (d : dispatcher) ~len ~prot =
  Engine.sleep (eng d.dom.sys) (Time.add syscall_cost vma_op_cost);
  K.Vma.map d.vmas ~len ~prot ~kind:K.Vma.Anon ()

let munmap (d : dispatcher) ~start ~len =
  let t = d.dom.sys in
  Engine.sleep (eng t) (Time.add syscall_cost vma_op_cost);
  let removed = K.Page_table.clear_range d.pt ~start ~len in
  List.iter
    (fun (pte : K.Page_table.pte) ->
      Hw.Memory.free t.machine.Hw.Machine.mem pte.K.Page_table.frame)
    removed;
  if removed <> [] then
    Engine.sleep (eng t) (params t).Hw.Params.tlb_flush_local;
  K.Vma.unmap d.vmas ~start ~len

let touch (d : dispatcher) ~addr ~access :
    (K.Fault.classification, string) result =
  let t = d.dom.sys in
  let p = params t in
  Engine.sleep (eng t) p.Hw.Params.l1_hit;
  match K.Fault.classify d.vmas d.pt ~addr ~access with
  | K.Fault.Present -> Ok K.Fault.Present
  | K.Fault.Segv -> Error "segmentation fault"
  | (K.Fault.Minor | K.Fault.Cow_or_upgrade) as c ->
      Hw.Machine.metric_incr t.machine ~kernel:d.core "fault.serviced";
      Engine.sleep (eng t)
        (Time.add p.Hw.Params.page_table_walk
           (Time.add frame_alloc_cost zero_page_cost));
      let node = Hw.Topology.socket_of t.machine.Hw.Machine.topo d.core in
      let frame = Hw.Memory.alloc_exn t.machine.Hw.Machine.mem ~node in
      K.Page_table.set d.pt
        ~vpn:(K.Page_table.vpn_of_addr addr)
        { K.Page_table.frame; writable = true };
      Engine.sleep (eng t) p.Hw.Params.page_table_walk;
      Ok c

(* --- explicit channels --- *)

let make_chan t : chan =
  let c =
    {
      chan_id = t.next_chan;
      inbox = Queue.create ();
      recv_waiters = Waitq.create ~eng:(eng t) ();
    }
  in
  t.next_chan <- t.next_chan + 1;
  Hashtbl.replace t.chans c.chan_id c;
  c

let chan_send (d : dispatcher) (c : chan) ~dst_core ~data ~bytes =
  let t = d.dom.sys in
  Msg.Transport.send t.fabric ~src:d.core ~dst:dst_core ~bytes
    (User_msg { chan_id = c.chan_id; data; bytes })

let chan_recv (d : dispatcher) (c : chan) : int * int =
  let t = d.dom.sys in
  match Queue.take_opt c.inbox with
  | Some v -> v
  | None -> Waitq.wait (eng t) c.recv_waiters

let wait_domain (dom : domain) =
  if dom.dispatchers > 0 then Waitq.wait (eng dom.sys) dom.exit_waiters
