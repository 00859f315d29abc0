(* Host-time attribution rides the engine's observer hook. The clock is
   bechamel's monotonic clock (CLOCK_MONOTONIC, integer nanoseconds, no
   allocation); GC deltas come from [Gc.counters]. Everything here runs on
   the host side of the observer contract: no simulated time, no RNG, no
   event scheduling — see prof.mli for the inertness argument. *)

let clock () = Int64.to_int (Monotonic_clock.now ())

type stat = {
  mutable st_events : int;
  mutable st_self_ns : int;
  mutable st_minor : float;
  mutable st_major : float;
}

type row = {
  name : string;
  tag : string option;
  events : int;
  self_ns : int;
  minor_words : float;
  major_words : float;
}

type sample = {
  boot : int;
  at : Sim.Time.t;
  s_events : int;
  queue_len : int;
  queue_max : int;
  s_parks : int;
  s_resumes : int;
  s_waitq_dead : int;
  s_chan_queued : int;
}

let max_samples = 4096

type t = {
  labels : (string * string option, stat) Hashtbl.t;
  (* Per-boot cache: engine label id -> stat. Engine labels are dense ints
     minted per engine, so after the first event of each distinct label the
     hot path is one array read, with no hashing.
     Reset on [attach]: a fresh engine is a fresh id space. *)
  mutable by_label : stat option array;
  mutable boots : int;
  mutable total_events : int;
  mutable sched_ns : int;
  (* state of the event currently executing *)
  mutable cur : stat option;
  mutable t0 : int;
  mutable minor0 : float;
  mutable major0 : float;
  (* host time of the previous event's end (or run start), -1 outside
     [Engine.run]: the gap to the next event's start is scheduler time. *)
  mutable last_end : int;
  (* virtual-time sampling *)
  mutable sample_every : Sim.Time.t;
  mutable next_sample : Sim.Time.t;
  mutable n_samples : int;
  mutable samples_rev : sample list;
}

let create ?(sample_every = Sim.Time.us 100) () =
  {
    labels = Hashtbl.create 64;
    by_label = [||];
    boots = 0;
    total_events = 0;
    sched_ns = 0;
    cur = None;
    t0 = 0;
    minor0 = 0.;
    major0 = 0.;
    last_end = -1;
    sample_every;
    next_sample = 0;
    n_samples = 0;
    samples_rev = [];
  }

let stat t ~name ~tag =
  let key = (name, tag) in
  match Hashtbl.find_opt t.labels key with
  | Some s -> s
  | None ->
      let s =
        { st_events = 0; st_self_ns = 0; st_minor = 0.; st_major = 0. }
      in
      Hashtbl.add t.labels key s;
      s

(* Cold path: first event of a label this boot. Resolve the engine's label
   id to its (name, tag) and cache the accumulator cell so every later
   event of this label is an array read. *)
let resolve t eng (lbl : Sim.Engine.label) =
  let n = (lbl :> int) in
  if n >= Array.length t.by_label then begin
    let ncap = max 64 (2 * (n + 1)) in
    let a = Array.make ncap None in
    Array.blit t.by_label 0 a 0 (Array.length t.by_label);
    t.by_label <- a
  end;
  match t.by_label.(n) with
  | Some s -> s
  | None ->
      let s =
        stat t
          ~name:(Sim.Engine.label_name eng lbl)
          ~tag:(Sim.Engine.label_tag eng lbl)
      in
      t.by_label.(n) <- Some s;
      s

(* Thin the sample buffer in place of failing on long runs: drop every
   other retained sample and double the interval. *)
let thin t =
  let keep = ref [] and n = ref 0 and i = ref 0 in
  List.iter
    (fun s ->
      if !i land 1 = 0 then begin
        keep := s :: !keep;
        incr n
      end;
      incr i)
    t.samples_rev;
  t.samples_rev <- List.rev !keep;
  t.n_samples <- !n;
  t.sample_every <- 2 * t.sample_every

let take_sample t eng ~now =
  let s =
    {
      boot = t.boots;
      at = now;
      s_events = Sim.Engine.events_processed eng;
      queue_len = Sim.Engine.queue_length eng;
      queue_max = Sim.Engine.queue_max_length eng;
      s_parks = Sim.Engine.parks eng;
      s_resumes = Sim.Engine.resumes eng;
      s_waitq_dead = Sim.Engine.waitq_dead eng;
      s_chan_queued = Sim.Engine.chan_queued eng;
    }
  in
  t.samples_rev <- s :: t.samples_rev;
  t.n_samples <- t.n_samples + 1;
  if t.n_samples >= max_samples then thin t;
  t.next_sample <- Sim.Time.add now t.sample_every

let observer t eng : Sim.Engine.observer =
  {
    on_run_start =
      (fun ~now:_ ->
        (* Count heap-pop/dispatch time from here; the gap before the first
           event is scheduler work too. *)
        t.last_end <- clock ());
    on_event =
      (fun ~label ~now ->
        let c = clock () in
        if t.last_end >= 0 then t.sched_ns <- t.sched_ns + (c - t.last_end);
        if now >= t.next_sample then take_sample t eng ~now;
        let minor, _promoted, major = Gc.counters () in
        let n = (label :> int) in
        let s =
          if n < Array.length t.by_label then
            match Array.unsafe_get t.by_label n with
            | Some s -> s
            | None -> resolve t eng label
          else resolve t eng label
        in
        t.cur <- Some s;
        t.t0 <- c;
        t.minor0 <- minor;
        t.major0 <- major);
    on_event_done =
      (fun () ->
        match t.cur with
        | None -> ()
        | Some s ->
            let c = clock () in
            let minor, _promoted, major = Gc.counters () in
            s.st_events <- s.st_events + 1;
            s.st_self_ns <- s.st_self_ns + (c - t.t0);
            s.st_minor <- s.st_minor +. (minor -. t.minor0);
            s.st_major <- s.st_major +. (major -. t.major0);
            t.total_events <- t.total_events + 1;
            t.cur <- None;
            t.last_end <- c);
    on_run_stop =
      (fun ~now:_ ->
        (* Close the trailing dispatch gap and stop counting: host time
           between engine runs belongs to the harness, not the scheduler. *)
        if t.last_end >= 0 then
          t.sched_ns <- t.sched_ns + (clock () - t.last_end);
        t.last_end <- -1);
  }

let attach t eng =
  t.boots <- t.boots + 1;
  t.next_sample <- 0;
  (* Fresh engine, fresh label-id space: drop the per-boot cache (the
     accumulated per-name stats in [labels] survive across boots). *)
  t.by_label <- [||];
  Sim.Engine.set_observer eng (Some (observer t eng))

let detach eng = Sim.Engine.set_observer eng None

let boots t = t.boots
let total_events t = t.total_events
let sched_ns t = t.sched_ns

let rows t =
  Hashtbl.fold
    (fun (name, tag) s acc ->
      {
        name;
        tag;
        events = s.st_events;
        self_ns = s.st_self_ns;
        minor_words = s.st_minor;
        major_words = s.st_major;
      }
      :: acc)
    t.labels []
  |> List.sort (fun a b ->
         match compare b.self_ns a.self_ns with
         | 0 -> compare (a.name, a.tag) (b.name, b.tag)
         | c -> c)

let attributed_ns t =
  Hashtbl.fold (fun _ s acc -> acc + s.st_self_ns) t.labels 0

let samples t = List.rev t.samples_rev

(* --- rendering --- *)

let label_string r =
  match r.tag with None -> r.name | Some tag -> tag ^ ":" ^ r.name

let report t ~host_ms ~top =
  let b = Buffer.create 4096 in
  let addf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let total_ns = host_ms *. 1e6 in
  let pct ns = if total_ns <= 0. then 0. else 100. *. float_of_int ns /. total_ns in
  let all = rows t in
  let shown, rest =
    let rec split i = function
      | r :: tl when i < top ->
          let s, t = split (i + 1) tl in
          (r :: s, t)
      | tl -> ([], tl)
    in
    split 0 all
  in
  addf "host-time attribution (%d events over %d engine boot%s):\n"
    (total_events t) (boots t)
    (if boots t = 1 then "" else "s");
  addf "  %-32s %10s %9s %6s %9s %9s\n" "label" "self(ms)" "events" "%" "ns/ev"
    "words/ev";
  let row_line label ns events minor major =
    let per d = if events = 0 then 0. else d /. float_of_int events in
    addf "  %-32s %10.2f %9d %5.1f%% %9.0f %9.1f\n" label
      (float_of_int ns /. 1e6)
      events (pct ns)
      (per (float_of_int ns))
      (per (minor +. major))
  in
  List.iter
    (fun r -> row_line (label_string r) r.self_ns r.events r.minor_words r.major_words)
    shown;
  (match rest with
  | [] -> ()
  | _ ->
      let ns, ev, mw, mj =
        List.fold_left
          (fun (ns, ev, mw, mj) r ->
            (ns + r.self_ns, ev + r.events, mw +. r.minor_words,
             mj +. r.major_words))
          (0, 0, 0., 0.) rest
      in
      row_line
        (Printf.sprintf "(other: %d labels)" (List.length rest))
        ns ev mw mj);
  row_line "[engine dispatch]" t.sched_ns (total_events t) 0. 0.;
  let unattributed =
    int_of_float total_ns - attributed_ns t - t.sched_ns
  in
  addf "  %-32s %10.2f %19s %5.1f%%\n" "[harness, unattributed]"
    (float_of_int unattributed /. 1e6)
    "" (pct unattributed);
  addf "  %-32s %10.2f %19s %5.1f%%\n" "= total host time" host_ms "" 100.;
  (* scheduler telemetry: final values of the introspection series *)
  (match List.rev t.samples_rev with
  | [] -> ()
  | samples ->
      let last = List.hd (List.rev samples) in
      addf
        "scheduler telemetry (%d samples, final boot): eheap depth %d (max \
         %d), parks %d, resumes %d, waitq dead %d, chan queued %d\n"
        (List.length samples) last.queue_len last.queue_max last.s_parks
        last.s_resumes last.s_waitq_dead last.s_chan_queued);
  Buffer.contents b

let folded t =
  let b = Buffer.create 1024 in
  let lines =
    List.map
      (fun r ->
        Printf.sprintf "popcornsim;%s;%s %d"
          (match r.tag with None -> "sim" | Some tag -> tag)
          r.name r.self_ns)
      (rows t)
    @ [ Printf.sprintf "popcornsim;sim;[dispatch] %d" t.sched_ns ]
  in
  List.iter
    (fun l ->
      Buffer.add_string b l;
      Buffer.add_char b '\n')
    (List.sort compare lines);
  Buffer.contents b

let to_json t ~host_ms =
  let row_json r =
    Json.Obj
      [
        ("name", Json.Str r.name);
        ("tag", match r.tag with None -> Json.Null | Some s -> Json.Str s);
        ("events", Json.Int r.events);
        ("self_ns", Json.Int r.self_ns);
        ("minor_words", Json.Float r.minor_words);
        ("major_words", Json.Float r.major_words);
      ]
  in
  let sample_json s =
    Json.Obj
      [
        ("boot", Json.Int s.boot);
        ("at_ns", Json.Int s.at);
        ("events", Json.Int s.s_events);
        ("queue_len", Json.Int s.queue_len);
        ("queue_max", Json.Int s.queue_max);
        ("parks", Json.Int s.s_parks);
        ("resumes", Json.Int s.s_resumes);
        ("waitq_dead", Json.Int s.s_waitq_dead);
        ("chan_queued", Json.Int s.s_chan_queued);
      ]
  in
  Json.Obj
    [
      ("schema", Json.Str "popcornsim-profile-v1");
      ("host_ms", Json.Float host_ms);
      ("boots", Json.Int t.boots);
      ("events", Json.Int t.total_events);
      ("attributed_ns", Json.Int (attributed_ns t));
      ("sched_ns", Json.Int t.sched_ns);
      ("labels", Json.Arr (List.map row_json (rows t)));
      ("samples", Json.Arr (List.map sample_json (samples t)));
    ]
