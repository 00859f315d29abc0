(* Typed causal events of the messaging layer. Each Transport message gets
   a unique id per (transport, run); the three event kinds are the edges a
   happens-before reconstruction needs: a span sent a message (Send,
   [from_span]), the message reached its destination worker (Deliver), and
   a span on the destination was opened to handle it (Link). Recording is
   append-only and allocation-light; like Span, the recorder never touches
   the engine clock or RNG, so instrumented runs are bit-identical. *)

type event =
  | Send of {
      id : int;
      run : int;
      src : int;
      dst : int;
      at : Sim.Time.t;
      bytes : int;
      from_span : int option;
    }
  | Deliver of { id : int; run : int; dst : int; at : Sim.Time.t }
  | Link of { id : int; run : int; span : int }

type t = {
  mutable run : int; (* bumped per machine boot, mirrors Span.run *)
  mutable acc : event list; (* newest first; [events] reverses *)
  mutable count : int;
}

let create () = { run = -1; acc = []; count = 0 }
let new_run t = t.run <- t.run + 1
let run t = Stdlib.max 0 t.run

let push t e =
  t.acc <- e :: t.acc;
  t.count <- t.count + 1

let emit_send t ~id ~src ~dst ~at ~bytes ~from_span =
  push t (Send { id; run = run t; src; dst; at; bytes; from_span })

let emit_deliver t ~id ~dst ~at = push t (Deliver { id; run = run t; dst; at })
let link t ~id ~span = push t (Link { id; run = run t; span })
let events t = List.rev t.acc
let count t = t.count

(* --- JSON: one shape for a results document's "causal" entries and the
   [args] of Chrome-trace flow events (see DESIGN.md, causal model) --- *)

let opt_int = function None -> Json.Null | Some i -> Json.Int i

let event_to_json ?(run_offset = 0) = function
  | Send { id; run; src; dst; at; bytes; from_span } ->
      Json.Obj
        [
          ("ev", Json.Str "send");
          ("id", Json.Int id);
          ("run", Json.Int (run_offset + run));
          ("src", Json.Int src);
          ("dst", Json.Int dst);
          ("at", Json.Int at);
          ("bytes", Json.Int bytes);
          ("from_span", opt_int from_span);
        ]
  | Deliver { id; run; dst; at } ->
      Json.Obj
        [
          ("ev", Json.Str "deliver");
          ("id", Json.Int id);
          ("run", Json.Int (run_offset + run));
          ("dst", Json.Int dst);
          ("at", Json.Int at);
        ]
  | Link { id; run; span } ->
      Json.Obj
        [
          ("ev", Json.Str "link");
          ("id", Json.Int id);
          ("run", Json.Int (run_offset + run));
          ("span", Json.Int span);
        ]

let to_json t = Json.Arr (List.map event_to_json (events t))

(* Tolerant decoding: an analyzer must survive truncated or hand-edited
   documents, so unknown shapes are skipped rather than fatal. *)

let slot = function
  | "ev" -> 0
  | "id" -> 1
  | "run" -> 2
  | "src" -> 3
  | "dst" -> 4
  | "at" -> 5
  | "bytes" -> 6
  | "from_span" -> 7
  | "span" -> 8
  | _ -> -1

let int = Fields.int ~default:0
let is_int = Fields.is_int

let event_of_json = function
  | Json.Obj fields -> (
      match Fields.read ~slot 9 fields with
      | [| Json.Str "send"; id; run; src; dst; at; bytes; from_span; _ |]
        when is_int id && is_int src && is_int dst && is_int at ->
          Some
            (Send
               {
                 id = int id;
                 run = int run;
                 src = int src;
                 dst = int dst;
                 at = int at;
                 bytes = int bytes;
                 from_span = Fields.int_opt from_span;
               })
      | [| Json.Str "deliver"; id; run; _; dst; at; _; _; _ |]
        when is_int id && is_int dst && is_int at ->
          Some
            (Deliver { id = int id; run = int run; dst = int dst; at = int at })
      | [| Json.Str "link"; id; run; _; _; _; _; _; span |]
        when is_int id && is_int span ->
          Some (Link { id = int id; run = int run; span = int span })
      | _ -> None)
  | _ -> None

let events_of_json = function
  | Json.Arr items -> List.filter_map event_of_json items
  | _ -> []
