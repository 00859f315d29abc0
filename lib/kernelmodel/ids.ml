type pid = int
type tid = int

type allocator = { mutable next : int; stride : int }

let make_shared () = { next = 1; stride = 1 }

let make_partitioned ~kernel ~stride =
  assert (kernel >= 0 && kernel < stride);
  (* Skip id 0 on kernel 0 (reserved, like PID 0). *)
  let first = if kernel = 0 then stride else kernel in
  { next = first; stride }

let next a =
  let id = a.next in
  a.next <- id + a.stride;
  id

let owner_kernel ~stride id = id mod stride
