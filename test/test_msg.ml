(* Tests for the inter-kernel messaging layer: transport, RPC, gather. *)

open Sim

type proto = Ping of int | Req of { ticket : int } | Resp of { ticket : int }

let mk_machine () = Hw.Machine.create ~sockets:2 ~cores_per_socket:4 ()

let test_transport_delivery () =
  let m = mk_machine () in
  let eng = m.Hw.Machine.eng in
  let got = ref [] in
  let fabric =
    Msg.Transport.create m ~ring_slots:16 ~handler:(fun _t ~dst ~src _d p ->
        match p with Ping i -> got := (src, dst, i) :: !got | _ -> ())
  in
  Msg.Transport.add_node fabric 0 ~home_core:0;
  Msg.Transport.add_node fabric 1 ~home_core:4;
  Engine.spawn eng (fun () ->
      for i = 1 to 3 do
        Msg.Transport.send fabric ~src:0 ~dst:1 ~bytes:64 (Ping i)
      done);
  Engine.run eng;
  Alcotest.(check (list (triple int int int)))
    "delivered in order"
    [ (0, 1, 1); (0, 1, 2); (0, 1, 3) ]
    (List.rev !got);
  let st = Msg.Transport.stats fabric in
  Alcotest.(check int) "sent" 3 st.Msg.Transport.sent;
  Alcotest.(check int) "delivered" 3 st.Msg.Transport.delivered;
  Alcotest.(check bool) "doorbells <= sent" true
    (st.Msg.Transport.doorbells <= st.Msg.Transport.sent)

let test_transport_latency_positive () =
  let m = mk_machine () in
  let eng = m.Hw.Machine.eng in
  let arrival = ref 0 in
  let fabric =
    Msg.Transport.create m ~ring_slots:16 ~handler:(fun _t ~dst:_ ~src:_ _ _ ->
        arrival := Engine.now eng)
  in
  Msg.Transport.add_node fabric 0 ~home_core:0;
  Msg.Transport.add_node fabric 1 ~home_core:4;
  Engine.spawn eng (fun () ->
      Msg.Transport.send fabric ~src:0 ~dst:1 ~bytes:64 (Ping 0));
  Engine.run eng;
  (* At least IPI + irq entry. *)
  Alcotest.(check bool) "doorbell cost" true (!arrival > Time.ns 1500)

let test_transport_backpressure () =
  (* A tiny ring with a handler that never finishes draining quickly:
     senders must block rather than overflow. *)
  let m = mk_machine () in
  let eng = m.Hw.Machine.eng in
  let handled = ref 0 in
  let fabric =
    Msg.Transport.create m ~ring_slots:2 ~handler:(fun _t ~dst:_ ~src:_ _ _ ->
        incr handled)
  in
  Msg.Transport.add_node fabric 0 ~home_core:0;
  Msg.Transport.add_node fabric 1 ~home_core:1;
  let sent = ref 0 in
  Engine.spawn eng (fun () ->
      for _ = 1 to 50 do
        Msg.Transport.send fabric ~src:0 ~dst:1 ~bytes:64 (Ping 0);
        incr sent
      done);
  Engine.run eng;
  Alcotest.(check int) "all eventually delivered" 50 !handled;
  Alcotest.(check int) "all sent" 50 !sent

let test_unknown_node_raises () =
  (* Both ends of a send must be nodes of the transport. *)
  let m = mk_machine () in
  let eng = m.Hw.Machine.eng in
  let fabric =
    Msg.Transport.create m ~ring_slots:4 ~handler:(fun _t ~dst:_ ~src:_ _ _ ->
        ())
  in
  Msg.Transport.add_node fabric 0 ~home_core:0;
  Engine.spawn eng (fun () ->
      Alcotest.check_raises "unknown dst"
        (Invalid_argument "Transport: unknown node 1") (fun () ->
          Msg.Transport.send fabric ~src:0 ~dst:1 ~bytes:64 (Ping 0));
      Alcotest.check_raises "unknown src"
        (Invalid_argument "Transport: unknown node 1") (fun () ->
          Msg.Transport.send_from_core fabric ~src:1 ~src_core:4 ~dst:0
            ~bytes:64 (Ping 0)));
  Engine.run eng

let test_rpc_roundtrip () =
  let m = mk_machine () in
  let eng = m.Hw.Machine.eng in
  let rpc : proto Msg.Rpc.t = Msg.Rpc.create eng in
  let fabric_ref = ref None in
  let fabric =
    Msg.Transport.create m ~ring_slots:16 ~handler:(fun _t ~dst ~src _d p ->
        let fabric = Option.get !fabric_ref in
        match p with
        | Req { ticket } ->
            Msg.Transport.send fabric ~src:dst ~dst:src ~bytes:64
              (Resp { ticket })
        | Resp { ticket } -> Msg.Rpc.complete rpc ~ticket p
        | _ -> ())
  in
  fabric_ref := Some fabric;
  Msg.Transport.add_node fabric 0 ~home_core:0;
  Msg.Transport.add_node fabric 1 ~home_core:4;
  let ok = ref false in
  Engine.spawn eng (fun () ->
      match
        Msg.Rpc.call rpc (fun ticket ->
            Msg.Transport.send fabric ~src:0 ~dst:1 ~bytes:64 (Req { ticket }))
      with
      | Resp _ -> ok := true
      | _ -> ());
  Engine.run eng;
  Alcotest.(check bool) "resp received" true !ok;
  Alcotest.(check int) "no pending" 0 (Msg.Rpc.pending rpc)

let test_rpc_immediate_completion () =
  (* A response arriving while the caller is still inside [send] must be
     buffered, not lost. *)
  let eng = Engine.create () in
  let rpc : int Msg.Rpc.t = Msg.Rpc.create eng in
  let got = ref 0 in
  Engine.spawn eng (fun () ->
      got := Msg.Rpc.call rpc (fun ticket -> Msg.Rpc.complete rpc ~ticket 99));
  Engine.run eng;
  Alcotest.(check int) "buffered response" 99 !got

let test_rpc_timeout_and_stale () =
  let eng = Engine.create () in
  let rpc : int Msg.Rpc.t = Msg.Rpc.create eng in
  let result = ref (Some 0) in
  let the_ticket = ref 0 in
  Engine.spawn eng (fun () ->
      result :=
        Msg.Rpc.call_timeout rpc ~timeout:(Time.us 10) (fun ticket ->
            the_ticket := ticket));
  Engine.run eng;
  Alcotest.(check bool) "timed out" true (!result = None);
  (* A stale completion is dropped silently. *)
  Msg.Rpc.complete rpc ~ticket:!the_ticket 1;
  Alcotest.(check int) "no pending" 0 (Msg.Rpc.pending rpc)

let test_rpc_stale_ticket_vs_later_call () =
  (* A response that arrives after its call timed out must not complete a
     LATER call: the stale ticket was forgotten, and the new call has its
     own ticket. If stale completion leaked into the new call it would see
     666 (and the real response, 42, would then be dropped as unknown). *)
  let eng = Engine.create () in
  let rpc : int Msg.Rpc.t = Msg.Rpc.create eng in
  let first = ref (Some 0) in
  let stale_ticket = ref 0 in
  let second = ref 0 in
  Engine.spawn eng (fun () ->
      first :=
        Msg.Rpc.call_timeout rpc ~timeout:(Time.us 10) (fun ticket ->
            stale_ticket := ticket);
      second :=
        Msg.Rpc.call rpc (fun ticket ->
            (* The late response to the timed-out call lands first... *)
            Engine.schedule eng ~after:(Time.us 5) (fun () ->
                Msg.Rpc.complete rpc ~ticket:!stale_ticket 666);
            (* ...then the genuine response. *)
            Engine.schedule eng ~after:(Time.us 20) (fun () ->
                Msg.Rpc.complete rpc ~ticket 42)));
  Engine.run eng;
  Alcotest.(check bool) "first call timed out" true (!first = None);
  Alcotest.(check int) "second call got its own response" 42 !second;
  Alcotest.(check int) "no pending" 0 (Msg.Rpc.pending rpc)

let test_rpc_forget () =
  let eng = Engine.create () in
  let rpc : int Msg.Rpc.t = Msg.Rpc.create eng in
  let ticket = Msg.Rpc.register rpc (fun _ -> Alcotest.fail "must not run") in
  Alcotest.(check bool) "forgotten" true (Msg.Rpc.forget rpc ~ticket);
  Alcotest.(check bool) "already gone" false (Msg.Rpc.forget rpc ~ticket);
  Msg.Rpc.complete rpc ~ticket 5

let test_gather () =
  let eng = Engine.create () in
  let g = Msg.Gather.create eng ~expected:3 in
  let released = ref false in
  Engine.spawn eng (fun () ->
      Msg.Gather.wait g;
      released := true);
  Engine.schedule eng ~after:10 (fun () -> Msg.Gather.ack g);
  Engine.schedule eng ~after:20 (fun () -> Msg.Gather.ack g);
  Engine.run eng;
  Alcotest.(check bool) "not yet" false !released;
  Msg.Gather.ack g;
  Engine.run eng;
  Alcotest.(check bool) "released" true !released;
  Alcotest.check_raises "extra ack"
    (Invalid_argument "Gather.ack: more acks than expected") (fun () ->
      Msg.Gather.ack g)

let test_gather_zero () =
  let eng = Engine.create () in
  let g = Msg.Gather.create eng ~expected:0 in
  let released = ref false in
  Engine.spawn eng (fun () ->
      Msg.Gather.wait g;
      released := true);
  Engine.run eng;
  Alcotest.(check bool) "immediate" true !released

(* Property: every message is delivered exactly once, in per-ring order,
   even under receive-side jitter. *)
let prop_exactly_once_under_jitter =
  QCheck.Test.make ~name:"transport delivers exactly once under jitter"
    ~count:40
    QCheck.(pair (int_range 1 6) (int_range 1 30))
    (fun (senders, msgs) ->
      let m = mk_machine () in
      let eng = m.Hw.Machine.eng in
      let got : (int, int list) Hashtbl.t = Hashtbl.create 8 in
      let fabric =
        Msg.Transport.create m ~ring_slots:8 ~handler:(fun _t ~dst:_ ~src _d p ->
            match p with
            | Ping i ->
                let cur =
                  Option.value ~default:[] (Hashtbl.find_opt got src)
                in
                Hashtbl.replace got src (i :: cur)
            | _ -> ())
      in
      Msg.Transport.set_jitter fabric ~max_extra:(Time.us 5);
      Msg.Transport.add_node fabric 0 ~home_core:0;
      for s = 1 to senders do
        Msg.Transport.add_node fabric s ~home_core:(s mod 8)
      done;
      for s = 1 to senders do
        Engine.spawn eng (fun () ->
            for i = 1 to msgs do
              Msg.Transport.send fabric ~src:s ~dst:0 ~bytes:64 (Ping i)
            done)
      done;
      Engine.run eng;
      List.for_all
        (fun s ->
          match Hashtbl.find_opt got s with
          | Some l -> List.rev l = List.init msgs (fun i -> i + 1)
          | None -> msgs = 0)
        (List.init senders (fun i -> i + 1)))

(* Property: many concurrent RPCs all match their own ticket. *)
let prop_rpc_matching =
  QCheck.Test.make ~name:"concurrent rpcs match tickets" ~count:50
    QCheck.(int_range 1 30)
    (fun n ->
      let eng = Engine.create () in
      let rpc : int Msg.Rpc.t = Msg.Rpc.create eng in
      let ok = ref 0 in
      for i = 1 to n do
        Engine.spawn eng (fun () ->
            let v =
              Msg.Rpc.call rpc (fun ticket ->
                  Engine.schedule eng
                    ~after:(Prng.int (Engine.rng eng) 100 + 1)
                    (fun () -> Msg.Rpc.complete rpc ~ticket (i * 1000)))
            in
            if v = i * 1000 then incr ok)
      done;
      Engine.run eng;
      !ok = n)

let () =
  Alcotest.run "msg"
    [
      ( "transport",
        [
          Alcotest.test_case "delivery order + stats" `Quick
            test_transport_delivery;
          Alcotest.test_case "latency includes doorbell" `Quick
            test_transport_latency_positive;
          Alcotest.test_case "backpressure" `Quick test_transport_backpressure;
          Alcotest.test_case "unknown node raises" `Quick
            test_unknown_node_raises;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "roundtrip over transport" `Quick
            test_rpc_roundtrip;
          Alcotest.test_case "immediate completion buffered" `Quick
            test_rpc_immediate_completion;
          Alcotest.test_case "timeout + stale drop" `Quick
            test_rpc_timeout_and_stale;
          Alcotest.test_case "stale ticket cannot complete later call" `Quick
            test_rpc_stale_ticket_vs_later_call;
          Alcotest.test_case "forget" `Quick test_rpc_forget;
        ] );
      ( "gather",
        [
          Alcotest.test_case "acks release waiter" `Quick test_gather;
          Alcotest.test_case "zero expected" `Quick test_gather_zero;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_rpc_matching; prop_exactly_once_under_jitter ] );
    ]
