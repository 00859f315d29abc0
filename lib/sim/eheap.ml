(* Three parallel arrays: [at] and [seq] hold the keys unboxed, [v] the
   payloads. A push allocates nothing (until the arrays double), and
   comparing two entries reads two int arrays. Sifting moves a hole rather
   than swapping: each level of a sift writes one key pair and one payload,
   and the moving entry is written once, where the hole stops. *)

type 'a t = {
  mutable at : Time.t array;
  mutable seq : int array;
  mutable v : 'a array;
  mutable n : int;
  mutable max_n : int;
  dummy : 'a option;
      (** When set, [pop] overwrites the payload slot it vacates with this
          value, so the heap never retains a reference to an already-popped
          payload (event payloads can pin whole object graphs through the
          continuations they carry). Without it, vacated slots keep their
          old payload. *)
}

let create ?dummy () =
  { at = [||]; seq = [||]; v = [||]; n = 0; max_n = 0; dummy }

(* Double the arrays; [x] fills the fresh payload slots when there is no
   dummy (they are never read: [n] bounds access). *)
let grow t x =
  let cap = Array.length t.at in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let at' = Array.make ncap 0 and seq' = Array.make ncap 0 in
  let v' = Array.make ncap (match t.dummy with Some d -> d | None -> x) in
  Array.blit t.at 0 at' 0 t.n;
  Array.blit t.seq 0 seq' 0 t.n;
  Array.blit t.v 0 v' 0 t.n;
  t.at <- at';
  t.seq <- seq';
  t.v <- v'

let push t ~at ~seq x =
  if t.n = Array.length t.at then grow t x;
  let i = ref t.n in
  t.n <- t.n + 1;
  if t.n > t.max_n then t.max_n <- t.n;
  (* sift the hole up from the new last slot *)
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let pat = t.at.(p) in
    if at < pat || (at = pat && seq < t.seq.(p)) then begin
      t.at.(!i) <- pat;
      t.seq.(!i) <- t.seq.(p);
      t.v.(!i) <- t.v.(p);
      i := p
    end
    else continue := false
  done;
  t.at.(!i) <- at;
  t.seq.(!i) <- seq;
  t.v.(!i) <- x

(* Raw pop: removes the root and returns only its payload. The engine's
   dispatch loop pairs this with [next_at], so the hot path allocates
   nothing (no [Some], no tuple); [pop] below wraps it for callers that
   want the key too. *)
let pop_exn t =
  if t.n = 0 then invalid_arg "Eheap.pop_exn: empty";
  let root = t.v.(0) in
  let n = t.n - 1 in
  t.n <- n;
  (* Sift the last entry down from the root's hole. *)
  let at = t.at.(n) and seq = t.seq.(n) and x = t.v.(n) in
  (match t.dummy with Some d -> t.v.(n) <- d | None -> ());
  if n > 0 then begin
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && (t.at.(r) < t.at.(l)
               || (t.at.(r) = t.at.(l) && t.seq.(r) < t.seq.(l)))
          then r
          else l
        in
        let cat = t.at.(c) in
        if cat < at || (cat = at && t.seq.(c) < seq) then begin
          t.at.(!i) <- cat;
          t.seq.(!i) <- t.seq.(c);
          t.v.(!i) <- t.v.(c);
          i := c
        end
        else continue := false
      end
    done;
    t.at.(!i) <- at;
    t.seq.(!i) <- seq;
    t.v.(!i) <- x
  end;
  root

let pop t =
  if t.n = 0 then None
  else begin
    let at = t.at.(0) and seq = t.seq.(0) in
    let v = pop_exn t in
    Some (at, seq, v)
  end

let next_at t = if t.n = 0 then -1 else t.at.(0)
let length t = t.n
let max_length t = t.max_n
let is_empty t = t.n = 0
