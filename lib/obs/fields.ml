(* Bit [i] of [taken] marks slot [i] as filled by an earlier field. *)
let rec fill slot vals taken = function
  | [] -> ()
  | (k, v) :: rest ->
      let i = slot k in
      if i >= 0 && taken land (1 lsl i) = 0 then begin
        vals.(i) <- v;
        fill slot vals (taken lor (1 lsl i)) rest
      end
      else fill slot vals taken rest

let read ~slot n fields =
  let vals = Array.make n Json.Null in
  fill slot vals 0 fields;
  vals

let is_int = function Json.Int _ | Json.Float _ -> true | _ -> false

let int ~default = function
  | Json.Int i -> i
  | Json.Float f -> int_of_float f
  | _ -> default

let int_opt = function
  | Json.Int i -> Some i
  | Json.Float f -> Some (int_of_float f)
  | _ -> None
