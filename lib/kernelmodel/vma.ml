type prot = { read : bool; write : bool; exec : bool }

let prot_rw = { read = true; write = true; exec = false }
let prot_r = { read = true; write = false; exec = false }
let prot_rx = { read = true; write = false; exec = true }

let pp_prot fmt p =
  Format.fprintf fmt "%c%c%c"
    (if p.read then 'r' else '-')
    (if p.write then 'w' else '-')
    (if p.exec then 'x' else '-')

type kind = Anon | Stack | Heap | File of string

type vma = { start : int; len : int; prot : prot; kind : kind }

let vma_end v = v.start + v.len

module M = Map.Make (Int)

type t = { mutable by_start : vma M.t }

let page_size = 4096
let mmap_base = 0x7F00_0000_0000
let address_top = 0x7FFF_FFFF_F000

let create () = { by_start = M.empty }

let aligned x = x land (page_size - 1) = 0

(* VMA with the greatest start <= addr, if it covers addr. *)
let find t addr =
  match M.find_last_opt (fun s -> s <= addr) t.by_start with
  | Some (_, v) when addr < vma_end v -> Some v
  | _ -> None

(* Any VMA overlapping [start, start+len)? *)
let overlaps t ~start ~len =
  let stop = start + len in
  match M.find_last_opt (fun s -> s < stop) t.by_start with
  | Some (_, v) -> vma_end v > start
  | None -> false

let find_free t ~len =
  (* First fit from mmap_base, walking existing mappings in address order:
     advance past every VMA that intrudes on the current candidate hole. *)
  let candidate = ref mmap_base in
  (try
     M.iter
       (fun _ v ->
         if v.start >= !candidate + len then raise Exit
         else candidate := max !candidate (vma_end v))
       t.by_start
   with Exit -> ());
  if !candidate + len <= address_top then Some !candidate else None

let map t ?fixed ~len ~prot ~kind () =
  if len <= 0 then Error "map: non-positive length"
  else if not (aligned len) then Error "map: unaligned length"
  else
    match fixed with
    | Some start ->
        if not (aligned start) then Error "map: unaligned fixed address"
        else if overlaps t ~start ~len then Error "map: fixed range overlaps"
        else begin
          let v = { start; len; prot; kind } in
          t.by_start <- M.add start v t.by_start;
          Ok v
        end
    | None -> (
        match find_free t ~len with
        | None -> Error "map: address space exhausted"
        | Some start ->
            let v = { start; len; prot; kind } in
            t.by_start <- M.add start v t.by_start;
            Ok v)

(* All VMAs overlapping the range. *)
let overlapping t ~start ~len =
  let stop = start + len in
  M.fold
    (fun _ v acc ->
      if v.start < stop && vma_end v > start then v :: acc else acc)
    t.by_start []
  |> List.rev

let unmap t ~start ~len =
  if len <= 0 then Error "unmap: non-positive length"
  else if not (aligned start && aligned len) then Error "unmap: unaligned"
  else begin
    let stop = start + len in
    List.iter
      (fun v ->
        t.by_start <- M.remove v.start t.by_start;
        (* Left remainder. *)
        if v.start < start then begin
          let left = { v with len = start - v.start } in
          t.by_start <- M.add left.start left t.by_start
        end;
        (* Right remainder. *)
        if vma_end v > stop then begin
          let right = { v with start = stop; len = vma_end v - stop } in
          t.by_start <- M.add right.start right t.by_start
        end)
      (overlapping t ~start ~len);
    Ok ()
  end

let protect t ~start ~len ~prot =
  if len <= 0 then Error "protect: non-positive length"
  else if not (aligned start && aligned len) then Error "protect: unaligned"
  else begin
    let stop = start + len in
    (* Linux requires the whole range to be mapped. *)
    let covered =
      let rec check addr =
        if addr >= stop then true
        else
          match find t addr with
          | None -> false
          | Some v -> check (vma_end v)
      in
      check start
    in
    if not covered then Error "protect: range not fully mapped"
    else begin
      List.iter
        (fun v ->
          t.by_start <- M.remove v.start t.by_start;
          if v.start < start then begin
            let left = { v with len = start - v.start } in
            t.by_start <- M.add left.start left t.by_start
          end;
          if vma_end v > stop then begin
            let right = { v with start = stop; len = vma_end v - stop } in
            t.by_start <- M.add right.start right t.by_start
          end;
          let mid_start = max v.start start in
          let mid_end = min (vma_end v) stop in
          let mid =
            { v with start = mid_start; len = mid_end - mid_start; prot }
          in
          t.by_start <- M.add mid.start mid t.by_start)
        (overlapping t ~start ~len);
      Ok ()
    end
  end

let vmas t = M.fold (fun _ v acc -> v :: acc) t.by_start [] |> List.rev
let count t = M.cardinal t.by_start
let mapped_bytes t = M.fold (fun _ v acc -> acc + v.len) t.by_start 0
let equal_layout a b = vmas a = vmas b

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun v ->
      Format.fprintf fmt "%x-%x %a %s@,"
        v.start (vma_end v) pp_prot v.prot
        (match v.kind with
        | Anon -> "anon"
        | Stack -> "stack"
        | Heap -> "heap"
        | File f -> f))
    (vmas t);
  Format.fprintf fmt "@]"
