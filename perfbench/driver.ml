(* One benchmark run: set-up, the timed window, and the metrics. *)

open Workloads

type rep = {
  dt : float;  (** host wall seconds *)
  alloc : float;  (** host bytes allocated *)
  minor_gcs : int;
  major_gcs : int;
  traced : bool;
  outcome : outcome;
  probe : float;  (** the reference probe taken just before the rep *)
}

let timed ~traced f =
  let probe = Reference.probe () in
  Span.enabled := traced;
  let g0 = Gc.quick_stat () in
  let a0 = Span.allocated_bytes () in
  let t0 = Span.now () in
  let outcome = Span.with_ "rep" f in
  let dt = Span.now () -. t0 in
  let alloc = Span.allocated_bytes () -. a0 in
  let g1 = Gc.quick_stat () in
  { dt; alloc; traced; outcome; probe;
    minor_gcs = g1.minor_collections - g0.minor_collections;
    major_gcs = g1.major_collections - g0.major_collections }

(* Reps until [seconds] have passed. With [alternate], every other rep
   is traced, so traced and untraced reps see the same host phases;
   there are then at least two reps, otherwise at least one. *)
let window ?(alternate = false) ~seconds rep =
  let stop = Span.now () +. seconds in
  let rec go i acc =
    let acc = timed ~traced:(alternate && i mod 2 = 1) rep :: acc in
    if Span.now () < stop || (alternate && i = 0) then go (i + 1) acc
    else List.rev acc
  in
  go 0 []

let median = Layers.median
let items r = Float.of_int (max 1 r.outcome.items)

(* A rep's items over the sum of its parts' fastest times in the
   window: items per host second in the window's least contended
   moments. The host's speed comes in phases of seconds to minutes:
   identical work takes up to 2.4 times as long in a slow phase. Noise only
   ever adds time, so each part's fastest time is its steadiest
   estimate; a median rep flips between the phases from run to run. *)
let raw_throughput reps =
  let parts = (List.hd reps).outcome.parts in
  let fastest (key, _) =
    List.fold_left (fun m r -> Float.min m (List.assoc key r.outcome.parts)) infinity reps
  in
  items (List.hd reps) /. List.fold_left (fun acc p -> acc +. fastest p) 0.0 parts

(* The reference kernel's fastest time in the window: the least, over
   reps, of the median of the probe before that rep and the probes
   before its two neighbours. One probe is short enough to land in a
   brief quiet moment that no part of a slow window saw; three in a row
   rarely do. *)
let fastest_probe reps =
  let probes = Array.of_list (List.map (fun r -> r.probe) reps) in
  let n = Array.length probes in
  let around i =
    let lo = max 0 (i - 1) and hi = min (n - 1) (i + 1) in
    median (Array.to_list (Array.sub probes lo (hi - lo + 1)))
  in
  Seq.fold_left (fun m i -> Float.min m (around i)) infinity (Seq.init n Fun.id)

(* [raw_throughput] at the host's quiet speed. When a whole window falls
   in a slow phase, its fastest parts are slow, and so is its fastest
   probe; rescaling by the probe takes most of that phase out. *)
let throughput reps =
  raw_throughput reps *. fastest_probe reps /. Reference.quiet_s

(* High-water resident set, from the kernel's accounting. *)
let peak_rss_mb () =
  let prefix = "VmHWM:" in
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> 0.0
        | Some l when String.starts_with ~prefix l ->
          let n = String.length prefix in
          Scanf.sscanf (String.sub l n (String.length l - n)) " %f" (fun kb -> kb /. 1024.0)
        | Some _ -> scan ()
      in
      scan ())

(* The median set-up, rescaled to the host's quiet speed like the
   window. A single probe is too short to tell the speed of a
   set-up of a second or more, so the run's window stands for it: when
   the whole run falls in a slow phase, both are slow. *)
let setup_s durations reps =
  median durations *. Reference.quiet_s /. fastest_probe reps

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

let run ?(sizes = full) ~(w : Workloads.t) ~seed ~seconds ~trace () =
  Reference.init ();
  Span.enabled := trace;
  (* Set-up: the seeded inputs plus one untimed warm-up rep, whose
     outputs are checked and become the reference every timed rep must
     reproduce. Each repetition starts from a collected heap so the peak
     RSS reflects one set of inputs. *)
  let durations = ref [] and last = ref None and warms = ref [] in
  for _ = 1 to w.setups do
    last := None;
    Gc.full_major ();
    let t0 = Span.now () in
    let rep, warm =
      Span.with_ "setup" (fun () ->
          let rep = w.setup ~seed sizes in
          (rep, rep ()))
    in
    durations := (Span.now () -. t0) :: !durations;
    warms := warm :: !warms;
    last := Some (rep, warm)
  done;
  let rep, warm = Option.get !last in
  (* A traced run alternates untraced and traced reps over the window,
     then measures the layer table. *)
  let win = ref None in
  let reps =
    if trace then begin
      let reps = ref [] in
      win := Some (Span.scope "window" (fun () -> reps := window ~alternate:true ~seconds rep));
      Span.enabled := true;
      !reps
    end
    else window ~seconds rep
  in
  (* Progress goes to stderr only now: printing between reps would shift
     the host allocation the reps measure. *)
  List.iter (fun d -> Printf.eprintf "setup: %.4f s\n" d) (List.rev !durations);
  List.iteri
    (fun i r ->
      Printf.eprintf "rep %d: %.4f s, %d items, %.0f B, probe %.4f s\n" i r.dt
        r.outcome.items r.alloc r.probe)
    reps;
  Printf.eprintf "raw throughput %.6g/s, fastest probe %.4f s, corrected %.6g/s\n"
    (raw_throughput reps) (fastest_probe reps) (throughput reps);
  let outcomes = !warms @ List.map (fun r -> r.outcome) reps in
  let attempted = List.fold_left (fun a (o : outcome) -> a + o.attempted) 0 outcomes in
  let failed = List.fold_left (fun a (o : outcome) -> a + o.failed) 0 outcomes in
  let repeatable = List.for_all (fun (o : outcome) -> o.counts = warm.counts) outcomes in
  let count name = List.assoc name warm.counts in
  let metrics =
    match !win with
    | None ->
      [ ("setup_s", setup_s !durations reps, "s");
        ("throughput_per_s", throughput reps, "1/s");
        (* The first timed rep: later reps reuse the collectors' recycled
           scratch buffers in a history-dependent way, so only a rep at
           a fixed position repeats exactly from run to run. *)
        ("host_alloc_bytes_per_item", (let r = List.hd reps in r.alloc /. items r), "B");
        ("peak_rss_mb", peak_rss_mb (), "MB");
        ("sim_lxr_time_ms", count "sim_lxr_time_ms", "sim_ms");
        ("sim_lxr_p99_us", count "sim_lxr_p99_us", "sim_us") ]
    | Some win ->
      let top_heap_mb =
        Float.of_int (Gc.quick_stat ()).top_heap_words *. Span.word_bytes /. 1048576.0
      in
      let layers = Layers.measure ~seed sizes in
      (* Tracing overhead: each traced rep against the untraced rep just
         before it, which ran in nearly the same host phase. *)
      let plain = List.filteri (fun i _ -> i mod 2 = 0 && i + 1 < List.length reps) reps in
      let traced = List.filter (fun r -> r.traced) reps in
      let slowdown p t = t.dt /. p.dt in
      (* Shares of the time inside traced reps. *)
      let dur = List.fold_left (fun a s -> a +. Span.duration s) 0.0 (Span.find ~within:win "rep") in
      let total name = List.fold_left (fun a s -> a +. Span.duration s) 0.0 (Span.find ~within:win name) in
      let pct x = 100.0 *. x /. dur in
      (* The differ's checkpoint + oracle share: each differ call minus
         the replay work of its lanes. *)
      let checkpoint_oracle =
        List.fold_left
          (fun a (s : Span.t) ->
            let name = List.hd (String.split_on_char '/' s.key) in
            a +. Span.duration s -. List.assoc name layers.lane_cost_s)
          0.0
          (Span.find ~within:win "differ.run")
      in
      layers.metrics
      @ [ ("host.raw_throughput_per_s", raw_throughput reps, "1/s");
          ("host.reference_ms", fastest_probe reps *. 1e3, "ms");
          ("window.tracing_overhead_pct", 100.0 *. (median (List.map2 slowdown plain traced) -. 1.0), "%");
          ("window.lane_share_pct", pct (total "lane"), "%");
          ("window.checkpoint_oracle_share_pct", pct checkpoint_oracle, "%");
          ("window.service_share_pct", pct (total "fleet.run"), "%");
          ("window.decode_differ_spans",
           Float.of_int
             (List.length (Span.find ~within:win "trace.decode")
             + List.length (Span.find ~within:win "differ.run")),
           "count");
          ("ocaml.minor_gcs_per_rep",
           median (List.map (fun r -> Float.of_int r.minor_gcs) reps), "count");
          ("ocaml.major_gcs_per_rep",
           median (List.map (fun r -> Float.of_int r.major_gcs) reps), "count");
          ("ocaml.top_heap_mb", top_heap_mb, "MB") ]
  in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  { correct = failed = 0 && repeatable && finite; attempted; failed; metrics }

let json r =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
          r.metrics))
