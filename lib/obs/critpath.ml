(* Happens-before reconstruction + critical path. See the .mli for the
   model. Everything is keyed by (run, id): span ids are unique within a
   recorder but message ids restart per machine boot, and spans parsed
   back from JSON carry no uniqueness guarantee at all. *)

open Span

(* ------------------------------------------------------------------ *)
(* The happens-before index of one (spans, causal) data set.          *)
(* ------------------------------------------------------------------ *)

type send_rec = { s_src : int; s_dst : int; s_at : int; s_from : int option }

(* (run, id) keys hashed and compared as two ints: no C hash and no
   polymorphic compare per probe. Parsed documents may hold any ints, so
   the pair is not packed into one. *)
module Key = struct
  type t = int * int

  let equal ((r : int), (i : int)) (r', i') = r = r' && i = i'
  let hash ((r : int), (i : int)) = (i * 65599) + r
end

module Tbl = Hashtbl.Make (Key)

module Runs = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (r : int) = r
end)

type t = {
  spans : span list; (* creation order *)
  span_by_id : span Tbl.t; (* (run, id) *)
  children : int list Tbl.t; (* (run, sid) -> child sids *)
  sends : send_rec Tbl.t; (* (run, msg id) *)
  delivers : int Tbl.t; (* (run, msg id) -> at *)
  links : int list Tbl.t; (* (run, msg id) -> span sids *)
  sends_by_span : int list Tbl.t; (* (run, sid) -> msg ids *)
  run_end : int Runs.t; (* run -> latest timestamp seen *)
}

let find_all tbl key = Option.value (Tbl.find_opt tbl key) ~default:[]
let add_multi tbl key v = Tbl.replace tbl key (v :: find_all tbl key)

let build ~spans ~causal =
  let ix =
    {
      spans;
      span_by_id = Tbl.create 256;
      children = Tbl.create 256;
      sends = Tbl.create 256;
      delivers = Tbl.create 256;
      links = Tbl.create 64;
      sends_by_span = Tbl.create 64;
      run_end = Runs.create 4;
    }
  in
  let bump_end run at =
    let cur = Option.value (Runs.find_opt ix.run_end run) ~default:0 in
    Runs.replace ix.run_end run (Int.max cur at)
  in
  List.iter
    (fun s ->
      Tbl.replace ix.span_by_id (s.run, s.id) s;
      (match s.parent with
      | Some p -> add_multi ix.children (s.run, p) s.id
      | None -> ());
      bump_end s.run (Int.max s.start s.stop))
    spans;
  List.iter
    (fun (e : Causal.event) ->
      match e with
      | Causal.Send { id; run; src; dst; at; from_span; _ } ->
          if not (Tbl.mem ix.sends (run, id)) then
            Tbl.add ix.sends (run, id)
              { s_src = src; s_dst = dst; s_at = at; s_from = from_span };
          (match from_span with
          | Some sp -> add_multi ix.sends_by_span (run, sp) id
          | None -> ());
          bump_end run at
      | Causal.Deliver { id; run; at; _ } ->
          (* first delivery wins (duplicates are suppressed downstream) *)
          if not (Tbl.mem ix.delivers (run, id)) then
            Tbl.add ix.delivers (run, id) at;
          bump_end run at
      | Causal.Link { id; run; span } -> add_multi ix.links (run, id) span)
    causal;
  ix

let stop_eff ix (s : span) =
  if s.stop >= 0 then s.stop
  else
    Int.max s.start
      (Option.value (Runs.find_opt ix.run_end s.run) ~default:s.start)

let duration ix (s : span) = stop_eff ix s - s.start

(* ------------------------------------------------------------------ *)
(* Critical path.                                                      *)
(* ------------------------------------------------------------------ *)

type seg = { label : string; on_wire : bool; seg_start : int; seg_stop : int }
type path = { root : span; total_ns : int; segs : seg list }

(* An interval competing for slices of the root window. Innermost-active
   wins: latest start first, wire beats the span it was sent from on ties,
   id as the deterministic tiebreak. *)
type ival = {
  i_start : int;
  i_stop : int;
  i_wire : bool;
  i_id : int;
  i_label : string;
}

let rank iv = (iv.i_start, (if iv.i_wire then 1 else 0), iv.i_id)

(* Component of the happens-before DAG reachable from [root]: children via
   parent edges, messages via their sending span, remote spans via Link. *)
let component ix (root : span) =
  let run = root.run in
  let comp_spans = Hashtbl.create 64 in
  let comp_msgs = Hashtbl.create 64 in
  let pending = Queue.create () in
  Queue.add (`Span root.id) pending;
  while not (Queue.is_empty pending) do
    match Queue.pop pending with
    | `Span sid ->
        if not (Hashtbl.mem comp_spans sid) then begin
          Hashtbl.replace comp_spans sid ();
          List.iter
            (fun c -> Queue.add (`Span c) pending)
            (find_all ix.children (run, sid));
          List.iter
            (fun m -> Queue.add (`Msg m) pending)
            (find_all ix.sends_by_span (run, sid))
        end
    | `Msg id ->
        if not (Hashtbl.mem comp_msgs id) then begin
          Hashtbl.replace comp_msgs id ();
          List.iter
            (fun sp -> Queue.add (`Span sp) pending)
            (find_all ix.links (run, id))
        end
  done;
  (comp_spans, comp_msgs)

let critical_path ix ~root =
  let run = root.run in
  let comp_spans, comp_msgs = component ix root in
  let w_start = root.start and w_stop = stop_eff ix root in
  let intervals = ref [] in
  Hashtbl.iter
    (fun sid () ->
      match Tbl.find_opt ix.span_by_id (run, sid) with
      | None -> ()
      | Some s ->
          intervals :=
            {
              i_start = s.start;
              i_stop = stop_eff ix s;
              i_wire = false;
              i_id = sid;
              i_label = Printf.sprintf "%s@k%d" (kind_name s.kind) s.kernel;
            }
            :: !intervals)
    comp_spans;
  Hashtbl.iter
    (fun id () ->
      match
        (Tbl.find_opt ix.sends (run, id), Tbl.find_opt ix.delivers (run, id))
      with
      | Some sr, Some d_at when d_at > sr.s_at ->
          intervals :=
            {
              i_start = sr.s_at;
              i_stop = d_at;
              i_wire = true;
              i_id = id;
              i_label = Printf.sprintf "wire k%d->k%d" sr.s_src sr.s_dst;
            }
            :: !intervals
      | _ -> () (* dropped or instant: time stays with the sender span *))
    comp_msgs;
  (* Slice boundaries: every interval edge inside the window. *)
  let module IS = Set.Make (Int) in
  let bounds =
    List.fold_left
      (fun acc iv ->
        let acc =
          if iv.i_start > w_start && iv.i_start < w_stop then
            IS.add iv.i_start acc
          else acc
        in
        if iv.i_stop > w_start && iv.i_stop < w_stop then IS.add iv.i_stop acc
        else acc)
      (IS.of_list [ w_start; w_stop ])
      !intervals
  in
  let bounds = IS.elements bounds in
  let pick a b =
    (* Innermost interval covering [a, b); the root always qualifies. *)
    List.fold_left
      (fun best iv ->
        if iv.i_start <= a && iv.i_stop >= b then
          match best with
          | Some bv when rank bv >= rank iv -> best
          | _ -> Some iv
        else best)
      None !intervals
  in
  let rec slices acc = function
    | a :: (b :: _ as rest) when a < b -> (
        match pick a b with
        | Some iv -> slices ((iv, a, b) :: acc) rest
        | None -> slices acc rest (* unreachable: root covers the window *))
    | _ :: rest -> slices acc rest
    | [] -> List.rev acc
  in
  let segs =
    List.fold_left
      (fun acc (iv, a, b) ->
        match acc with
        | { label; on_wire; seg_stop; seg_start } :: tl
          when label = iv.i_label && on_wire = iv.i_wire && seg_stop = a ->
            { label; on_wire; seg_start; seg_stop = b } :: tl
        | _ ->
            { label = iv.i_label; on_wire = iv.i_wire; seg_start = a; seg_stop = b }
            :: acc)
      []
      (slices [] bounds)
  in
  { root; total_ns = w_stop - w_start; segs = List.rev segs }

let roots ix ~kind =
  List.filter (fun s -> s.parent = None && kind_name s.kind = kind) ix.spans

(* ------------------------------------------------------------------ *)
(* Per-subsystem self time.                                            *)
(* ------------------------------------------------------------------ *)

let subsystem = function
  | "migration" | "context_capture" | "transfer" | "import" | "resume" ->
      "migration"
  | "page_fault" -> "coherence"
  | "futex" -> "futex"
  | "thread_group_create" | "thread_import" -> "thread_group"
  | "task_list" | "ssi_task_list" -> "ssi"
  | other -> other

(* Total length of the union of [intervals], each clipped to [lo, hi]. *)
let union_len ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Int.max a lo and b = Int.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort (fun ((a : int), (b : int)) (a', b') ->
           if a <> a' then Int.compare a a' else Int.compare b b')
  in
  let _, total =
    List.fold_left
      (fun (edge, total) (a, b) ->
        if b <= edge then (edge, total)
        else (b, total + (b - Int.max a edge)))
      (lo, 0) clipped
  in
  total

let self_times ix =
  let acc = Hashtbl.create 16 in
  let add name ns =
    if ns > 0 then
      Hashtbl.replace acc name
        (ns + Option.value (Hashtbl.find_opt acc name) ~default:0)
  in
  List.iter
    (fun s ->
      let lo = s.start and hi = stop_eff ix s in
      let child_ivals =
        List.filter_map
          (fun c ->
            Option.map
              (fun cs -> (cs.start, stop_eff ix cs))
              (Tbl.find_opt ix.span_by_id (s.run, c)))
          (find_all ix.children (s.run, s.id))
      in
      let wire_ivals =
        List.filter_map
          (fun id ->
            match
              ( Tbl.find_opt ix.sends (s.run, id),
                Tbl.find_opt ix.delivers (s.run, id) )
            with
            | Some sr, Some d_at when d_at > sr.s_at -> Some (sr.s_at, d_at)
            | _ -> None)
          (find_all ix.sends_by_span (s.run, s.id))
      in
      add (subsystem (kind_name s.kind))
        (hi - lo - union_len ~lo ~hi (child_ivals @ wire_ivals)))
    ix.spans;
  Tbl.iter
    (fun key d_at ->
      match Tbl.find_opt ix.sends key with
      | Some sr when d_at > sr.s_at -> add "msg" (d_at - sr.s_at)
      | _ -> ())
    ix.delivers;
  Hashtbl.fold (fun name ns l -> (name, ns) :: l) acc []
  |> List.sort (fun (na, a) (nb, b) -> compare (-a, na) (-b, nb))
