open Sim

type t = {
  eng : Engine.t;
  params : Params.t;
  topo : Topology.t;
  mem : Memory.t;
  ipi : Ipi.t;
  mutable metrics : Obs.Metrics.t option;
  mutable spans : Obs.Span.t option;
  mutable causal : Obs.Causal.t option;
}

let create ?seed ?(params = Params.default) ?(frames_per_socket = 65536)
    ~sockets ~cores_per_socket () =
  let eng = Engine.create ?seed () in
  let topo = Topology.create ~sockets ~cores_per_socket in
  let mem = Memory.create topo ~frames_per_socket in
  let ipi = Ipi.create eng params topo in
  { eng; params; topo; mem; ipi; metrics = None; spans = None; causal = None }

let attach_obs t (sink : Obs.Sink.t) =
  t.metrics <- Some sink.metrics;
  Obs.Causal.new_run sink.causal;
  t.causal <- Some sink.causal;
  Obs.Span.new_run sink.spans;
  t.spans <- Some sink.spans

(* Instrumentation helpers: single option check when observability is off,
   and never sleeping or touching the RNG, so simulated behaviour is
   unchanged either way. *)
let metric_incr t ?kernel name =
  match t.metrics with None -> () | Some m -> Obs.Metrics.incr m ?kernel name

let metric_add t ?kernel name n =
  match t.metrics with None -> () | Some m -> Obs.Metrics.add m ?kernel name n

let metric_observe t ?kernel name x =
  match t.metrics with
  | None -> ()
  | Some m -> Obs.Metrics.observe m ?kernel name x

let causal_send t ~id ~src ~dst ~bytes ~from_span =
  match t.causal with
  | None -> ()
  | Some c ->
      Obs.Causal.emit_send c ~id ~src ~dst ~at:(Engine.now t.eng) ~bytes
        ~from_span

let causal_deliver t ~id ~dst =
  match t.causal with
  | None -> ()
  | Some c -> Obs.Causal.emit_deliver c ~id ~dst ~at:(Engine.now t.eng)

let causal_link t ~id ~span =
  match t.causal with
  | None -> ()
  | Some c -> Obs.Causal.link c ~id ~span

let now t = Engine.now t.eng

let compute t dt = Engine.sleep t.eng dt

let copy t ~bytes ~src_socket ~dst_socket =
  let cross_socket = src_socket <> dst_socket in
  Engine.sleep t.eng (Params.copy_cost t.params ~bytes ~cross_socket)

let line_access t ~from ~core =
  let same_core = from = core in
  let same_socket = Topology.same_socket t.topo from core in
  Engine.sleep t.eng (Params.line_transfer t.params ~same_core ~same_socket)
