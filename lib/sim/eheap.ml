type 'a cell = { at : Time.t; seq : int; v : 'a }

type 'a t = {
  mutable a : 'a cell array;
  mutable n : int;
  mutable max_n : int;
  dummy : 'a cell option;
      (** When set, [pop] overwrites the slot it vacates with this cell, so
          the heap never retains a reference to an already-executed payload
          (event closures can pin whole object graphs through their captured
          continuations). Without it, vacated slots keep their old cell. *)
}

let create ?dummy () =
  {
    a = [||];
    n = 0;
    max_n = 0;
    dummy = Option.map (fun v -> { at = 0; seq = 0; v }) dummy;
  }

let before x y = x.at < y.at || (x.at = y.at && x.seq < y.seq)

let grow t =
  let cap = Array.length t.a in
  let ncap = if cap = 0 then 16 else 2 * cap in
  (* Fresh slots are never observed ([n] bounds access); fill them with the
     dummy when there is one so they hold no live payload. *)
  let fill = match t.dummy with Some d -> d | None -> t.a.(0) in
  let a' = Array.make ncap fill in
  Array.blit t.a 0 a' 0 t.n;
  t.a <- a'

let push t ~at ~seq v =
  let c = { at; seq; v } in
  if t.n = 0 && Array.length t.a = 0 then
    t.a <- Array.make 16 (match t.dummy with Some d -> d | None -> c);
  if t.n = Array.length t.a then grow t;
  t.a.(t.n) <- c;
  t.n <- t.n + 1;
  if t.n > t.max_n then t.max_n <- t.n;
  (* sift up *)
  let i = ref (t.n - 1) in
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    before t.a.(!i) t.a.(p)
  do
    let p = (!i - 1) / 2 in
    let tmp = t.a.(p) in
    t.a.(p) <- t.a.(!i);
    t.a.(!i) <- tmp;
    i := p
  done

(* Raw pop: removes the root and returns only its payload. The engine's
   dispatch loop pairs this with [next_at], so the hot path allocates
   nothing (no [Some], no tuple); [pop] below wraps it for callers that
   want the key too. *)
let pop_exn t =
  if t.n = 0 then invalid_arg "Eheap.pop_exn: empty";
  let root = t.a.(0) in
  t.n <- t.n - 1;
  (match t.dummy with
  | Some d ->
      let last = t.a.(t.n) in
      t.a.(t.n) <- d;
      if t.n > 0 then t.a.(0) <- last
  | None -> if t.n > 0 then t.a.(0) <- t.a.(t.n));
  if t.n > 0 then begin
    (* sift down *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.n && before t.a.(l) t.a.(!smallest) then smallest := l;
      if r < t.n && before t.a.(r) t.a.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        let tmp = t.a.(!smallest) in
        t.a.(!smallest) <- t.a.(!i);
        t.a.(!i) <- tmp;
        i := !smallest
      end
    done
  end;
  root.v

let pop t =
  if t.n = 0 then None
  else begin
    let root = t.a.(0) in
    let at = root.at and seq = root.seq in
    let v = pop_exn t in
    Some (at, seq, v)
  end

let next_at t = if t.n = 0 then -1 else t.a.(0).at
let length t = t.n
let max_length t = t.max_n
let is_empty t = t.n = 0
