type frame = int

(* Free frames are represented lazily: a per-socket bump cursor over the
   never-yet-allocated range plus a stack of explicitly freed frames.
   Materializing every frame id up front (the old eager per-socket stack)
   allocated frames_per_socket x sockets cons cells — several MB of
   short-lived garbage per machine boot, paid again for every data point
   that boots a fresh machine. Allocation order is unchanged: freed frames
   are LIFO and always preferred (in the eager stack they sat above the
   untouched range), then pristine frames ascend — exactly the order the
   eager stack popped.

   The allocated-bit map is lazy too: one bitmap per socket (a byte per
   frame) covering only the offsets below that socket's cursor, doubled
   as [take] advances the cursor. No offset at or above the cursor was
   ever handed out, so it needs no bit; a boot allocates no per-frame
   state at all. *)
type t = {
  topo : Topology.t;
  frames_per_socket : int;
  next : int array; (* per-socket: first never-allocated frame offset *)
  freed : frame Stack.t array; (* one per socket: explicitly freed frames *)
  allocated : Bytes.t array;
      (* per socket, 1 byte per offset below [next]: 0 free, 1 used *)
  mutable used : int;
}

let create topo ~frames_per_socket =
  assert (frames_per_socket > 0);
  let sockets = Topology.sockets topo in
  {
    topo;
    frames_per_socket;
    next = Array.make sockets 0;
    freed = Array.init sockets (fun _ -> Stack.create ());
    allocated = Array.make sockets Bytes.empty;
    used = 0;
  }

let frames_per_socket t = t.frames_per_socket
let total_frames t = Topology.sockets t.topo * t.frames_per_socket

let take t node =
  let off =
    match Stack.pop_opt t.freed.(node) with
    | Some f -> f - (node * t.frames_per_socket)
    | None ->
        let n = t.next.(node) in
        if n >= t.frames_per_socket then -1
        else begin
          t.next.(node) <- n + 1;
          let bits = t.allocated.(node) in
          if n >= Bytes.length bits then begin
            let cap = min t.frames_per_socket (max 64 (2 * n)) in
            let bits' = Bytes.make cap '\000' in
            Bytes.blit bits 0 bits' 0 n;
            t.allocated.(node) <- bits'
          end;
          n
        end
  in
  if off < 0 then None
  else begin
    Bytes.set t.allocated.(node) off '\001';
    t.used <- t.used + 1;
    Some ((node * t.frames_per_socket) + off)
  end

let alloc t ~node =
  assert (node >= 0 && node < Topology.sockets t.topo);
  match take t node with
  | Some f -> Some f
  | None ->
      let sockets = Topology.sockets t.topo in
      let rec try_nodes i =
        if i >= sockets then None
        else if i = node then try_nodes (i + 1)
        else match take t i with Some f -> Some f | None -> try_nodes (i + 1)
      in
      try_nodes 0

let alloc_exn t ~node =
  match alloc t ~node with
  | Some f -> f
  | None -> failwith "Memory.alloc_exn: out of physical frames"

let node_of_frame t f =
  assert (f >= 0 && f < total_frames t);
  f / t.frames_per_socket

let free t f =
  if f < 0 || f >= total_frames t then
    invalid_arg "Memory.free: frame out of range";
  let node = node_of_frame t f in
  let off = f - (node * t.frames_per_socket) in
  (* An offset at or above the cursor was never handed out. *)
  if off >= t.next.(node) || Bytes.get t.allocated.(node) off = '\000' then
    invalid_arg "Memory.free: double free";
  Bytes.set t.allocated.(node) off '\000';
  t.used <- t.used - 1;
  Stack.push f t.freed.(node)

let used_count t = t.used
