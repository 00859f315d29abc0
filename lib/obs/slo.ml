(* Worst-case & SLO analysis. Pure functions of spans/causal/counters —
   no wall clock, no randomness — so summaries are byte-stable: `diff`
   compares them, and R4's digest holds across --jobs levels. *)

type phase = { ph_label : string; ph_ns : int }

type kind_summary = {
  ks_kind : string;
  ks_roots : int;
  ks_mean_ns : int;
  ks_p99_ns : int;
  ks_worst_ns : int;
  ks_worst_sid : int;
  ks_worst_run : int;
  ks_worst_kernel : int;
  ks_phases : phase list;
}

type counters = {
  met : int;
  violations : int;
  dispatch_met : int;
  dispatch_violations : int;
}

let no_counters =
  { met = 0; violations = 0; dispatch_met = 0; dispatch_violations = 0 }

let counters_of_registry m =
  {
    met = Metrics.counter m "slo.met";
    violations = Metrics.counter m "slo.violations";
    dispatch_met = Metrics.counter m "slo.dispatch.met";
    dispatch_violations = Metrics.counter m "slo.dispatch.violations";
  }

let counters_of_json metrics_json =
  let sum name =
    List.fold_left
      (fun acc row ->
        match Json.(str_field "name" row, int_field "value" row) with
        | Some n, Some v when n = name -> acc + v
        | _ -> acc)
      0
      (Json.arr_field "counters" metrics_json)
  in
  {
    met = sum "slo.met";
    violations = sum "slo.violations";
    dispatch_met = sum "slo.dispatch.met";
    dispatch_violations = sum "slo.dispatch.violations";
  }

type t = { kinds : kind_summary list; counters : counters }

let kinds_analyzed = [ "migration"; "thread_group_create" ]

(* Exact p-th percentile over the full latency list (nearest-rank, the
   same convention as Stats.Histogram.percentile but with no bucket
   error: we have every sample). *)
let exact_percentile sorted p =
  match Array.length sorted with
  | 0 -> 0
  | n ->
      let target =
        Stdlib.max 1
          (int_of_float (Float.round (p /. 100. *. float_of_int n)))
      in
      sorted.(Stdlib.min (n - 1) (target - 1))

(* Phase label of one critical-path segment: the span kind for span
   segments ("context_capture@k3" -> "context_capture"), "wire" for
   in-flight time. *)
let seg_phase (s : Critpath.seg) =
  if s.Critpath.on_wire then "wire"
  else
    match String.index_opt s.Critpath.label '@' with
    | Some i -> String.sub s.Critpath.label 0 i
    | None -> s.Critpath.label

let phases_of_path (p : Critpath.path) =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (s : Critpath.seg) ->
      let label = seg_phase s in
      let ns = s.Critpath.seg_stop - s.Critpath.seg_start in
      Hashtbl.replace tbl label
        (ns + Option.value (Hashtbl.find_opt tbl label) ~default:0))
    p.Critpath.segs;
  Hashtbl.fold (fun ph_label ph_ns acc -> { ph_label; ph_ns } :: acc) tbl []
  |> List.sort (fun a b ->
         match compare b.ph_ns a.ph_ns with
         | 0 -> compare a.ph_label b.ph_label
         | c -> c)

let summarize_kind ix ~kind =
  match Critpath.roots ix ~kind with
  | [] -> None
  | first :: _ as roots ->
      let latency = Critpath.duration ix in
      (* First strict max: the earliest-created of equally slow roots. *)
      let worst =
        List.fold_left
          (fun best r -> if latency r > latency best then r else best)
          first roots
      in
      let totals = Array.of_list (List.map latency roots) in
      let n = Array.length totals in
      let sum = Array.fold_left ( + ) 0 totals in
      Array.sort compare totals;
      Some
        {
          ks_kind = kind;
          ks_roots = n;
          ks_mean_ns = sum / n;
          ks_p99_ns = exact_percentile totals 99.;
          ks_worst_ns = latency worst;
          ks_worst_sid = worst.Span.id;
          ks_worst_run = worst.Span.run;
          ks_worst_kernel = worst.Span.kernel;
          ks_phases = phases_of_path (Critpath.critical_path ix ~root:worst);
        }

let summarize ?(counters = no_counters) ix =
  {
    kinds =
      List.filter_map (fun kind -> summarize_kind ix ~kind) kinds_analyzed;
    counters;
  }

(* The first root carrying everything [ks] names is the one [summarize]
   picked: an earlier root with the same latency would have won its
   first-strict-max tie-break. *)
let worst_path ix ks =
  List.find_opt
    (fun (r : Span.span) ->
      r.Span.id = ks.ks_worst_sid
      && r.Span.run = ks.ks_worst_run
      && Critpath.duration ix r = ks.ks_worst_ns)
    (Critpath.roots ix ~kind:ks.ks_kind)
  |> Option.map (fun root -> Critpath.critical_path ix ~root)

let record t m =
  List.iter
    (fun ks ->
      Metrics.set_gauge m
        (Printf.sprintf "slo.%s.worst_case_ns" ks.ks_kind)
        (float_of_int ks.ks_worst_ns);
      Metrics.set_gauge m
        (Printf.sprintf "slo.%s.mean_ns" ks.ks_kind)
        (float_of_int ks.ks_mean_ns))
    t.kinds

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str "popcornsim-slo-v1");
      ( "counters",
        Json.Obj
          [
            ("met", Json.Int t.counters.met);
            ("violations", Json.Int t.counters.violations);
            ("dispatch_met", Json.Int t.counters.dispatch_met);
            ("dispatch_violations", Json.Int t.counters.dispatch_violations);
          ] );
      ( "kinds",
        Json.Arr
          (List.map
             (fun ks ->
               Json.Obj
                 [
                   ("kind", Json.Str ks.ks_kind);
                   ("roots", Json.Int ks.ks_roots);
                   ("mean_ns", Json.Int ks.ks_mean_ns);
                   ("p99_ns", Json.Int ks.ks_p99_ns);
                   ("worst_ns", Json.Int ks.ks_worst_ns);
                   ("worst_sid", Json.Int ks.ks_worst_sid);
                   ("worst_run", Json.Int ks.ks_worst_run);
                   ("worst_kernel", Json.Int ks.ks_worst_kernel);
                   ( "phases",
                     Json.Arr
                       (List.map
                          (fun p ->
                            Json.Obj
                              [
                                ("label", Json.Str p.ph_label);
                                ("ns", Json.Int p.ph_ns);
                              ])
                          ks.ks_phases) );
                 ])
             t.kinds) );
    ]

let of_json j =
  let open Json in
  match str_field "schema" j with
  | Some "popcornsim-slo-v1" ->
      let counters =
        match field "counters" j with
        | Some c ->
            let i k = Option.value (int_field k c) ~default:0 in
            {
              met = i "met";
              violations = i "violations";
              dispatch_met = i "dispatch_met";
              dispatch_violations = i "dispatch_violations";
            }
        | None -> no_counters
      in
      let kinds =
        List.filter_map
          (fun k ->
            match (str_field "kind" k, int_field "worst_ns" k) with
            | Some ks_kind, Some ks_worst_ns ->
                let i name = Option.value (int_field name k) ~default:0 in
                Some
                  {
                    ks_kind;
                    ks_roots = i "roots";
                    ks_mean_ns = i "mean_ns";
                    ks_p99_ns = i "p99_ns";
                    ks_worst_ns;
                    ks_worst_sid = i "worst_sid";
                    ks_worst_run = i "worst_run";
                    ks_worst_kernel = i "worst_kernel";
                    ks_phases =
                      List.filter_map
                        (fun p ->
                          match (str_field "label" p, int_field "ns" p) with
                          | Some ph_label, Some ph_ns ->
                              Some { ph_label; ph_ns }
                          | _ -> None)
                        (arr_field "phases" k);
                  }
            | _ -> None)
          (arr_field "kinds" j)
      in
      Some { kinds; counters }
  | _ -> None

let buf_addf b fmt = Printf.ksprintf (Buffer.add_string b) fmt

let render t =
  let b = Buffer.create 1024 in
  buf_addf b "  worst-case & SLO:\n";
  buf_addf b "    %-22s %6s %12s %12s %12s\n" "kind" "roots" "mean" "p99"
    "worst";
  List.iter
    (fun ks ->
      buf_addf b "    %-22s %6d %9d ns %9d ns %9d ns  (span %d, run %d, k%d)\n"
        ks.ks_kind ks.ks_roots ks.ks_mean_ns ks.ks_p99_ns ks.ks_worst_ns
        ks.ks_worst_sid ks.ks_worst_run ks.ks_worst_kernel;
      buf_addf b "      worst-case budget:";
      List.iteri
        (fun i p ->
          buf_addf b "%s %s %d ns (%.1f%%)"
            (if i = 0 then "" else ",")
            p.ph_label p.ph_ns
            (100. *. float_of_int p.ph_ns
            /. float_of_int (Stdlib.max 1 ks.ks_worst_ns)))
        ks.ks_phases;
      Buffer.add_char b '\n')
    t.kinds;
  let c = t.counters in
  if c.met + c.violations + c.dispatch_met + c.dispatch_violations > 0 then
    buf_addf b
      "    deadlines: migrations %d met / %d violated; dispatches %d met / \
       %d violated\n"
      c.met c.violations c.dispatch_met c.dispatch_violations;
  Buffer.contents b
