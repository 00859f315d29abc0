(* Tests for the measurement library. *)

let test_histogram_percentiles () =
  let h = Stats.Histogram.create () in
  for i = 1 to 1000 do
    Stats.Histogram.add h (float_of_int i)
  done;
  let p50 = Stats.Histogram.median h in
  let p99 = Stats.Histogram.p99 h in
  (* Log-bucketed: ±10% relative accuracy is the contract. *)
  Alcotest.(check bool) "p50 near 500" true (p50 > 400. && p50 < 600.);
  Alcotest.(check bool) "p99 near 990" true (p99 > 850. && p99 < 1100.);
  let p999 = Stats.Histogram.p999 h in
  Alcotest.(check bool) "p999 near 999" true (p999 > 890. && p999 < 1110.);
  Alcotest.(check bool) "ordered" true (p50 <= p99 && p99 <= p999);
  Alcotest.(check bool) "p999 bounded by exact max" true
    (p999 <= Stats.Histogram.max h *. 1.1);
  Alcotest.(check (float 1.)) "mean" 500.5 (Stats.Histogram.mean h)

let test_histogram_empty () =
  let h = Stats.Histogram.create () in
  Alcotest.(check (float 0.)) "empty p99" 0. (Stats.Histogram.p99 h);
  Alcotest.(check (float 0.)) "empty p999" 0. (Stats.Histogram.p999 h);
  Alcotest.(check (float 0.)) "empty mean" 0. (Stats.Histogram.mean h);
  Alcotest.(check (float 0.)) "empty max" 0. (Stats.Histogram.max h);
  Alcotest.(check int) "empty count" 0 (Stats.Histogram.count h)

let test_histogram_single_sample () =
  let h = Stats.Histogram.create () in
  Stats.Histogram.add h 42.;
  (* With one sample every percentile lands in the same log bucket
     (±10% relative accuracy), and mean/max are exact. *)
  List.iter
    (fun p ->
      let v = Stats.Histogram.percentile h p in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f within bucket accuracy" p)
        true
        (v > 42. *. 0.9 && v < 42. *. 1.1))
    [ 0.; 50.; 99.; 100. ];
  Alcotest.(check (float 1e-9)) "mean exact" 42. (Stats.Histogram.mean h);
  Alcotest.(check (float 1e-9)) "max exact" 42. (Stats.Histogram.max h);
  Alcotest.(check int) "count" 1 (Stats.Histogram.count h)

let test_histogram_max_tracks_largest () =
  let h = Stats.Histogram.create () in
  List.iter (Stats.Histogram.add h) [ 5.; 100.; 3.; 99. ];
  Alcotest.(check (float 1e-9)) "max is largest seen" 100.
    (Stats.Histogram.max h);
  (* Zero is a legal observation and does not disturb max. *)
  Stats.Histogram.add h 0.;
  Alcotest.(check (float 1e-9)) "zero observation kept" 100.
    (Stats.Histogram.max h);
  Alcotest.(check int) "count includes zero" 5 (Stats.Histogram.count h)

let test_table_render () =
  let t = Stats.Table.create ~title:"demo" ~columns:[ "a"; "bb" ] in
  Stats.Table.add_row t [ "x"; "1" ];
  Stats.Table.add_row t [ "yy"; "22" ];
  let s = Stats.Table.render t in
  Alcotest.(check bool) "has title" true
    (String.length s > 0 && String.sub s 0 7 = "== demo");
  Alcotest.(check bool) "aligned" true
    (String.split_on_char '\n' s
    |> List.filter (fun l -> String.length l > 0 && l.[0] = '|')
    |> fun rows ->
    List.length (List.sort_uniq compare (List.map String.length rows)) = 1);
  Alcotest.check_raises "column mismatch"
    (Invalid_argument "Table.add_row: column count mismatch") (fun () ->
      Stats.Table.add_row t [ "only-one" ])

let test_formatting () =
  Alcotest.(check string) "ns" "750ns" (Stats.Table.fmt_ns 750.);
  Alcotest.(check string) "us" "1.50us" (Stats.Table.fmt_ns 1500.);
  Alcotest.(check string) "ms" "2.000ms" (Stats.Table.fmt_ns 2e6);
  Alcotest.(check string) "rate K" "1.5K/s" (Stats.Table.fmt_rate 1500.);
  Alcotest.(check string) "rate M" "2.50M/s" (Stats.Table.fmt_rate 2.5e6)

let test_series () =
  let t =
    Stats.Table.series ~title:"curves" ~x_label:"n"
      [ ("a", [ (1., 10.); (2., 20.) ]); ("b", [ (2., 5.) ]) ]
  in
  let s = Stats.Table.render t in
  Alcotest.(check bool) "missing as dash" true
    (String.length s > 0
    && String.split_on_char '\n' s |> List.exists (fun l ->
           String.length l > 0 && l.[0] = '|'
           && String.index_opt l '-' <> None))

let prop_histogram_percentile_monotone =
  QCheck.Test.make ~name:"histogram percentiles monotone" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 100) (float_bound_exclusive 1e6))
    (fun xs ->
      let h = Stats.Histogram.create () in
      List.iter (fun x -> Stats.Histogram.add h (Float.abs x)) xs;
      let ps = [ 10.; 25.; 50.; 75.; 90.; 99.; 100. ] in
      let vals = List.map (Stats.Histogram.percentile h) ps in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && mono rest
        | _ -> true
      in
      mono vals)

let () =
  Alcotest.run "stats"
    [
      ( "histogram",
        [
          Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "single sample" `Quick test_histogram_single_sample;
          Alcotest.test_case "max tracks largest" `Quick
            test_histogram_max_tracks_largest;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "formatting" `Quick test_formatting;
          Alcotest.test_case "series" `Quick test_series;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_histogram_percentile_monotone ] );
    ]
