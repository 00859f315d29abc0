(* ASCII reports for `popcornsim analyze` / `popcornsim diff`. Everything
   here is a pure function of the parsed document, so output is stable
   across hosts and runs: tier-1 pins R4's whole analyze report byte for
   byte. *)

type dataset = {
  label : string;
  spans : Span.span list;
  causal : Causal.event list;
  slo_counters : Slo.counters;
      (* deadline accounting from the experiment's metrics section (zero
         when the document carries none, e.g. a Chrome trace). *)
}

open Json

(* --- document -> datasets --- *)

(* A Chrome trace's span and causal events carry, as [args], the same
   objects a results document lists under "spans" and "causal". *)
let datasets_of_chrome_trace j =
  let events = arr_field "traceEvents" j in
  let args cat decode =
    List.filter_map
      (fun e ->
        if str_field "cat" e = Some cat then Option.bind (field "args" e) decode
        else None)
      events
  in
  let spans = args "span" Span.of_json in
  let causal = args "causal" Causal.event_of_json in
  if spans = [] && causal = [] then []
  else [ { label = "trace"; spans; causal; slo_counters = Slo.no_counters } ]

let datasets_of_results j =
  List.filter_map
    (fun e ->
      let label = Option.value (str_field "id" e) ~default:"?" in
      let spans = List.filter_map Span.of_json (arr_field "spans" e) in
      let causal =
        match field "causal" e with
        | Some c -> Causal.events_of_json c
        | None -> []
      in
      let slo_counters =
        match field "metrics" e with
        | Some m -> Slo.counters_of_json m
        | None -> Slo.no_counters
      in
      if spans = [] && causal = [] then None
      else Some { label; spans; causal; slo_counters })
    (arr_field "experiments" j)

let datasets_of_doc j =
  match field "traceEvents" j with
  | Some _ -> datasets_of_chrome_trace j
  | None -> datasets_of_results j

(* --- analysis rendering --- *)

let buf_addf b fmt = Printf.ksprintf (Buffer.add_string b) fmt

let render_path b indent (p : Critpath.path) =
  List.iter
    (fun (s : Critpath.seg) ->
      buf_addf b "%s+%-10d %-28s %10d ns\n" indent
        (s.Critpath.seg_start - p.Critpath.root.Span.start)
        s.Critpath.label
        (s.Critpath.seg_stop - s.Critpath.seg_start))
    p.Critpath.segs;
  let sum =
    List.fold_left
      (fun a (s : Critpath.seg) -> a + s.Critpath.seg_stop - s.Critpath.seg_start)
      0 p.Critpath.segs
  in
  buf_addf b "%s= total %d ns (%d segments%s)\n" indent p.Critpath.total_ns
    (List.length p.Critpath.segs)
    (if sum = p.Critpath.total_ns then ", sum exact"
     else Printf.sprintf ", SUM MISMATCH %d" sum)

(* The causal/critical-path report for one dataset: span and message
   counts, per-subsystem self time, the worst-case & SLO block, the
   per-root-kind critical-path summary, and the segment listing of the
   slowest migration and thread-group-create. All of it reads one
   [Critpath.t] built for the dataset. *)
let render_analysis (d : dataset) =
  let b = Buffer.create 4096 in
  buf_addf b "== %s ==\n" d.label;
  let unclosed =
    List.length (List.filter (fun (s : Span.span) -> s.stop < 0) d.spans)
  in
  let sends, delivers =
    List.fold_left
      (fun (s, dl) (e : Causal.event) ->
        match e with
        | Causal.Send _ -> (s + 1, dl)
        | Causal.Deliver _ -> (s, dl + 1)
        | Causal.Link _ -> (s, dl))
      (0, 0) d.causal
  in
  buf_addf b "  spans: %d (%d unclosed)   messages: %d sent, %d delivered"
    (List.length d.spans) unclosed sends delivers;
  if sends > delivers then buf_addf b ", %d lost" (sends - delivers);
  Buffer.add_char b '\n';
  let ix = Critpath.build ~spans:d.spans ~causal:d.causal in
  (match Critpath.self_times ix with
  | [] -> ()
  | self ->
      let total = List.fold_left (fun a (_, ns) -> a + ns) 0 self in
      buf_addf b "  self time by subsystem:\n";
      List.iter
        (fun (name, ns) ->
          buf_addf b "    %-16s %12d ns  %5.1f%%\n" name ns
            (100. *. float_of_int ns /. float_of_int (Stdlib.max 1 total)))
        self);
  (* Worst-case & SLO block: the exact bound (not a percentile) per root
     kind, the worst path's phase budget, and deadline accounting. *)
  let slo = Slo.summarize ~counters:d.slo_counters ix in
  if slo.Slo.kinds <> [] then Buffer.add_string b (Slo.render slo);
  List.iter
    (fun (ks : Slo.kind_summary) ->
      buf_addf b "  %s: %d roots, mean %d ns, max %d ns\n" ks.Slo.ks_kind
        ks.Slo.ks_roots ks.Slo.ks_mean_ns ks.Slo.ks_worst_ns;
      buf_addf b "  critical path of slowest %s (span %d, run %d, k%d):\n"
        ks.Slo.ks_kind ks.Slo.ks_worst_sid ks.Slo.ks_worst_run
        ks.Slo.ks_worst_kernel;
      Option.iter (render_path b "    ") (Slo.worst_path ix ks))
    slo.Slo.kinds;
  Buffer.contents b

let analyze_doc j =
  match datasets_of_doc j with
  | [] ->
      Error
        "no span/causal data found (expected a popcornsim-bench-v2 results \
         document produced with --json, or a Chrome trace from --trace-out)"
  | ds -> Ok (String.concat "\n" (List.map render_analysis ds))

(* --- diff --- *)

(* One comparable scalar. Histograms project to .mean / .p99 / .max — max
   included so a pure tail regression (mean and p99 flat, worst case blown
   out) still shows up as a regression. *)
type metric = { m_exp : string; m_name : string; m_kernel : int option }

let metric_compare a b =
  compare (a.m_exp, a.m_name, a.m_kernel) (b.m_exp, b.m_name, b.m_kernel)

let metric_label m =
  Printf.sprintf "%s %s%s" m.m_exp m.m_name
    (match m.m_kernel with None -> "" | Some k -> Printf.sprintf " k%d" k)

let metrics_of_doc j =
  List.concat_map
    (fun e ->
      let m_exp = Option.value (str_field "id" e) ~default:"?" in
      match field "metrics" e with
      | None -> []
      | Some m ->
          let entry suffixes row =
            match str_field "name" row with
            | None -> []
            | Some name ->
                let m_kernel = int_field "kernel" row in
                List.filter_map
                  (fun (suffix, key) ->
                    Option.map
                      (fun v ->
                        ({ m_exp; m_name = name ^ suffix; m_kernel }, v))
                      (num_field key row))
                  suffixes
          in
          List.concat_map (entry [ ("", "value") ]) (arr_field "counters" m)
          @ List.concat_map (entry [ ("", "value") ]) (arr_field "gauges" m)
          @ List.concat_map
              (entry
                 [
                   (".mean", "mean");
                   (".p99", "p99");
                   (".p999", "p999");
                   (".max", "max");
                 ])
              (arr_field "histograms" m))
    (arr_field "experiments" j)

let is_time_metric name =
  (* e.g. migration.total_ns, msg.latency_ns.mean *)
  let has_sub sub s =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  has_sub "_ns" name

let is_badness_counter name =
  List.exists
    (fun suffix ->
      let n = String.length name and m = String.length suffix in
      n >= m && String.sub name (n - m) m = suffix)
    [ ".failed"; ".dropped"; ".gave_up"; ".dup_suppressed"; ".unclosed";
      ".violations"; "doorbells_lost" ]

let diff ?(fail_pct = 10.) ~old_doc ~new_doc () =
  let olds = List.sort (fun (a, _) (b, _) -> metric_compare a b)
      (metrics_of_doc old_doc)
  and news = List.sort (fun (a, _) (b, _) -> metric_compare a b)
      (metrics_of_doc new_doc) in
  let b = Buffer.create 4096 in
  let regressions = ref 0 in
  let compared = ref 0 in
  let line tag m detail = buf_addf b "  [%s] %-60s %s\n" tag (metric_label m) detail in
  let rec walk olds news =
    match (olds, news) with
    | [], [] -> ()
    | (m, _) :: rest, [] ->
        line "gone" m "present in old only";
        walk rest []
    | [], (m, _) :: rest ->
        line "new" m "present in new only";
        walk [] rest
    | ((mo, vo) :: ro as allo), ((mn, vn) :: rn as alln) ->
        let c = metric_compare mo mn in
        if c < 0 then begin
          line "gone" mo "present in old only";
          walk ro alln
        end
        else if c > 0 then begin
          line "new" mn "present in new only";
          walk allo rn
        end
        else begin
          incr compared;
          let pct =
            if vo = 0. then if vn = 0. then 0. else infinity
            else (vn -. vo) /. Float.abs vo *. 100.
          in
          let detail op =
            if pct = infinity then
              Printf.sprintf "%.0f -> %.0f (was zero)" vo vn
            else Printf.sprintf "%.0f -> %.0f (%+.1f%% %s %.1f%%)" vo vn pct op fail_pct
          in
          (if is_time_metric mo.m_name && pct > fail_pct then begin
             incr regressions;
             line "REGRESS" mo (detail ">")
           end
           else if is_badness_counter mo.m_name && vn > vo then begin
             incr regressions;
             line "REGRESS" mo
               (Printf.sprintf "%.0f -> %.0f (failure counter increased)" vo vn)
           end
           else if is_time_metric mo.m_name && pct < -.fail_pct then
             line "better" mo (detail "<")
           else if vn <> vo then line "change" mo (detail "|"));
          walk ro rn
        end
  in
  Buffer.add_string b "metric comparison (old -> new):\n";
  walk olds news;
  buf_addf b
    "summary: %d metrics compared, %d regression%s (time threshold +%.1f%%)\n"
    !compared !regressions
    (if !regressions = 1 then "" else "s")
    fail_pct;
  (Buffer.contents b, !regressions)
