(* Cells are keyed by (name, kernel scope). Names are interned into dense
   ids ([Names]); per name, cells live in a slot holding the unscoped cell
   plus a kernel-indexed array — so an update through the by-name API is
   one string-hash (the intern) and two array reads, and an update through
   a pre-resolved handle touches no hash at all. All read-out goes through
   [rows], which reconstructs (name, kernel) keys and sorts, so consumers
   see exactly the same deterministic order (and byte-identical JSON) as
   the original hashtable-of-(string * int option) implementation. *)

type cell =
  | CCounter of int ref
  | CGauge of float ref
  | CHist of Stats.Histogram.t

(** All cells of one name: the global (unscoped) cell and the per-kernel
    cells, indexed by kernel id (dense small ints in every model). *)
type slot = {
  mutable s_global : cell option;
  mutable s_kernels : cell option array;
}

type t = { names : Names.t; mutable slots : slot option array }

type view =
  | Counter of int
  | Gauge of float
  | Hist of {
      count : int;
      mean : float;
      p50 : float;
      p99 : float;
      p999 : float;
      max : float;
    }

let create () = { names = Names.create (); slots = [||] }

let kind_name = function
  | CCounter _ -> "counter"
  | CGauge _ -> "gauge"
  | CHist _ -> "histogram"

let slot t id =
  if id >= Array.length t.slots then begin
    let a = Array.make (max 16 (2 * (id + 1))) None in
    Array.blit t.slots 0 a 0 (Array.length t.slots);
    t.slots <- a
  end;
  match t.slots.(id) with
  | Some s -> s
  | None ->
      let s = { s_global = None; s_kernels = [||] } in
      t.slots.(id) <- Some s;
      s

(* Read-only probe: never mints a name id, a slot or a cell. *)
let find_cell t ~kernel name =
  match Names.find t.names name with
  | None -> None
  | Some id -> (
      if id >= Array.length t.slots then None
      else
        match t.slots.(id) with
        | None -> None
        | Some s -> (
            match kernel with
            | None -> s.s_global
            | Some k ->
                if k >= 0 && k < Array.length s.s_kernels then
                  s.s_kernels.(k)
                else None))

let cell_in_slot s ~kernel name make =
  match kernel with
  | None -> (
      match s.s_global with
      | Some c -> c
      | None ->
          let c = make () in
          s.s_global <- Some c;
          c)
  | Some k -> (
      if k < 0 then
        invalid_arg
          (Printf.sprintf "Metrics: negative kernel scope %d for %s" k name);
      if k >= Array.length s.s_kernels then begin
        let a = Array.make (max 16 (2 * (k + 1))) None in
        Array.blit s.s_kernels 0 a 0 (Array.length s.s_kernels);
        s.s_kernels <- a
      end;
      match s.s_kernels.(k) with
      | Some c -> c
      | None ->
          let c = make () in
          s.s_kernels.(k) <- Some c;
          c)

let cell t ~kernel name make =
  cell_in_slot (slot t (Names.intern t.names name)) ~kernel name make

let wrong_kind name c want =
  invalid_arg
    (Printf.sprintf "Metrics: %s is a %s, not a %s" name (kind_name c) want)

let add t ?kernel name n =
  match cell t ~kernel name (fun () -> CCounter (ref 0)) with
  | CCounter r -> r := !r + n
  | c -> wrong_kind name c "counter"

let incr t ?kernel name = add t ?kernel name 1

let set_gauge t ?kernel name v =
  match cell t ~kernel name (fun () -> CGauge (ref 0.)) with
  | CGauge r -> r := v
  | c -> wrong_kind name c "gauge"

let observe t ?kernel name x =
  match cell t ~kernel name (fun () -> CHist (Stats.Histogram.create ())) with
  | CHist h -> Stats.Histogram.add h x
  | c -> wrong_kind name c "histogram"

(* Pre-resolved handles. Updating through one is a single option check +
   mutation — no name hashing at all. The name is interned at resolution
   (ids without cells never reach an export), but the underlying cell is
   materialized on the first update: a handle that is resolved but never
   updated leaves the registry (and every metrics export) exactly as if it
   never existed, so callers can resolve a full bundle of handles up front
   without minting zero-valued cells. Once materialized, a cell is never
   removed, so the cached ref stays valid for the registry's lifetime. *)
type counter_handle = {
  ch_reg : t;
  ch_id : int;
  ch_name : string;
  ch_kernel : int option;
  mutable ch_cell : int ref option;
}

type hist_handle = {
  hh_reg : t;
  hh_id : int;
  hh_name : string;
  hh_kernel : int option;
  mutable hh_cell : Stats.Histogram.t option;
}

let counter_handle t ?kernel name =
  (* Kind mismatch with an existing cell surfaces here; a fresh name is
     only checked on first update (when the cell is created). *)
  (match find_cell t ~kernel name with
  | None | Some (CCounter _) -> ()
  | Some c -> wrong_kind name c "counter");
  {
    ch_reg = t;
    ch_id = Names.intern t.names name;
    ch_name = name;
    ch_kernel = kernel;
    ch_cell = None;
  }

let hist_handle t ?kernel name =
  (match find_cell t ~kernel name with
  | None | Some (CHist _) -> ()
  | Some c -> wrong_kind name c "histogram");
  {
    hh_reg = t;
    hh_id = Names.intern t.names name;
    hh_name = name;
    hh_kernel = kernel;
    hh_cell = None;
  }

let handle_add h n =
  match h.ch_cell with
  | Some r -> r := !r + n
  | None -> (
      match
        cell_in_slot
          (slot h.ch_reg h.ch_id)
          ~kernel:h.ch_kernel h.ch_name
          (fun () -> CCounter (ref 0))
      with
      | CCounter r ->
          h.ch_cell <- Some r;
          r := !r + n
      | c -> wrong_kind h.ch_name c "counter")

let handle_incr h = handle_add h 1

let handle_observe h x =
  match h.hh_cell with
  | Some hist -> Stats.Histogram.add hist x
  | None -> (
      match
        cell_in_slot
          (slot h.hh_reg h.hh_id)
          ~kernel:h.hh_kernel h.hh_name
          (fun () -> CHist (Stats.Histogram.create ()))
      with
      | CHist hist ->
          h.hh_cell <- Some hist;
          Stats.Histogram.add hist x
      | c -> wrong_kind h.hh_name c "histogram")

let counter t ?kernel name =
  match find_cell t ~kernel name with
  | Some (CCounter r) -> !r
  | Some c -> wrong_kind name c "counter"
  | None -> 0

let gauge t ?kernel name =
  match find_cell t ~kernel name with
  | Some (CGauge r) -> !r
  | Some c -> wrong_kind name c "gauge"
  | None -> 0.

let view = function
  | CCounter r -> Counter !r
  | CGauge r -> Gauge !r
  | CHist h ->
      Hist
        {
          count = Stats.Histogram.count h;
          mean = Stats.Histogram.mean h;
          p50 = Stats.Histogram.median h;
          p99 = Stats.Histogram.p99 h;
          p999 = Stats.Histogram.p999 h;
          max = Stats.Histogram.max h;
        }

(* (name, kernel) ascending, with the unscoped (global) entry of a name
   before its per-kernel entries — [None < Some _] under compare. The
   (name, kernel) keys are reconstructed from the interned store, so the
   result (and every export below) is indistinguishable from the original
   string-keyed implementation. *)
let rows t =
  let acc = ref [] in
  for id = Array.length t.slots - 1 downto 0 do
    match t.slots.(id) with
    | None -> ()
    | Some s ->
        let name = Names.to_string t.names id in
        Array.iteri
          (fun k c ->
            match c with
            | None -> ()
            | Some c -> acc := ((name, Some k), view c) :: !acc)
          s.s_kernels;
        (match s.s_global with
        | None -> ()
        | Some c -> acc := ((name, None), view c) :: !acc)
  done;
  List.sort (fun (ka, _) (kb, _) -> compare ka kb) !acc

(* Exported JSON must be byte-stable regardless of the order metrics were
   first touched: the parallel suite runner serializes one sink per
   experiment and tier-1 compares the result byte for byte with the
   committed baselines.
   Entries are sorted by (name, kernel) here — the same order [rows]
   guarantees — so the export does not depend on [rows] keeping that
   property. *)
let to_json t =
  let scope kernel =
    match kernel with None -> Json.Null | Some k -> Json.Int k
  in
  let entry extra ((name, kernel), _) =
    Json.Obj (("name", Json.Str name) :: ("kernel", scope kernel) :: extra)
  in
  let counters, gauges, hists =
    List.fold_left
      (fun (cs, gs, hs) ((_, v) as row) ->
        match v with
        | Counter n -> (entry [ ("value", Json.Int n) ] row :: cs, gs, hs)
        | Gauge x -> (cs, entry [ ("value", Json.Float x) ] row :: gs, hs)
        | Hist h ->
            ( cs,
              gs,
              entry
                [
                  ("count", Json.Int h.count);
                  ("mean", Json.Float h.mean);
                  ("p50", Json.Float h.p50);
                  ("p99", Json.Float h.p99);
                  ("p999", Json.Float h.p999);
                  ("max", Json.Float h.max);
                ]
                row
              :: hs ))
      ([], [], [])
      (List.sort (fun (ka, _) (kb, _) -> compare ka kb) (rows t))
  in
  Json.Obj
    [
      ("counters", Json.Arr (List.rev counters));
      ("gauges", Json.Arr (List.rev gauges));
      ("histograms", Json.Arr (List.rev hists));
    ]

let pp fmt t =
  List.iter
    (fun ((name, kernel), v) ->
      let scope =
        match kernel with
        | None -> "-"
        | Some k -> Printf.sprintf "k%d" k
      in
      let value =
        match v with
        | Counter n -> string_of_int n
        | Gauge x -> Printf.sprintf "%.2f" x
        | Hist h ->
            Printf.sprintf
              "n=%d mean=%.0f p50=%.0f p99=%.0f p999=%.0f max=%.0f" h.count
              h.mean h.p50 h.p99 h.p999 h.max
      in
      Format.fprintf fmt "%-28s %-5s %s@\n" name scope value)
    (rows t)
