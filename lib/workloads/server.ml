(** Open-loop server workload (see the interface for the discipline). *)

open Sim

type config = {
  requests : int;
  interarrival : int -> Time.t;
  cost_ns : int;
  deadline_ns : Time.t option;
}

type stats = {
  offered : int;
  completed : int;
  rejected : int;
  failed : int;
  retried : int;
  within_deadline : int;
  latency : Stats.Histogram.t;
  elapsed : Time.t;
}

let goodput s =
  if s.offered = 0 then 0. else float_of_int s.completed /. float_of_int s.offered

let shed_rate s =
  if s.offered = 0 then 0. else float_of_int s.rejected /. float_of_int s.offered

let goodput_within s =
  if s.offered = 0 then 0.
  else float_of_int s.within_deadline /. float_of_int s.offered

let run cluster dispatcher config =
  let eng = Popcorn.Types.eng cluster in
  let latency = Stats.Histogram.create () in
  let completed = ref 0 and rejected = ref 0 and failed = ref 0 in
  let retried = ref 0 and within = ref 0 in
  let latch = Latch.create eng config.requests in
  let started = Engine.now eng in
  (* The generator never waits for outcomes: arrival [i] fires
     [interarrival i] after arrival [i-1], full stop. Each request rides
     its own fiber so a slow placement delays nothing but itself. *)
  let req = Engine.label eng ~tag:"workload" "req" in
  Engine.spawn eng ~tag:"workload" ~name:"server-gen" (fun () ->
      for i = 1 to config.requests do
        Engine.sleep eng (config.interarrival i);
        Engine.spawn_label eng req (fun () ->
            let t0 = Engine.now eng in
            (match
               Popcorn.Placement.dispatch ?deadline:config.deadline_ns
                 dispatcher ~cost_ns:config.cost_ns
             with
            | Popcorn.Placement.Placed { attempts; _ } ->
                incr completed;
                if attempts > 1 then incr retried;
                let lat = Time.sub (Engine.now eng) t0 in
                (match config.deadline_ns with
                | Some d when lat <= d -> incr within
                | Some _ | None -> ());
                Stats.Histogram.add latency (float_of_int lat);
                Popcorn.Types.m_observe cluster "server.latency_ns"
                  (float_of_int lat)
            | Popcorn.Placement.Rejected -> incr rejected
            | Popcorn.Placement.Failed _ -> incr failed);
            Latch.arrive latch)
      done);
  Latch.wait latch;
  {
    offered = config.requests;
    completed = !completed;
    rejected = !rejected;
    failed = !failed;
    retried = !retried;
    within_deadline = !within;
    latency;
    elapsed = Time.sub (Engine.now eng) started;
  }
