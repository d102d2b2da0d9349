(* The three benchmark workloads: seeded input generation, one timed
   repetition ("rep") each, and the output checks every rep is held to.
   All runs are closed-loop, single-domain and single GC thread. Calls
   into the simulator go through [Span.with_] so a traced run can
   attribute host time to the layer behind each public function. *)

open Repro_util
open Repro_heap
open Repro_engine
module Runner = Repro_harness.Runner
module Trace_format = Repro_trace.Trace_format
module Replay = Repro_trace.Replay
module Differ = Repro_trace.Differ
module Fleet = Repro_service.Fleet

let factory name =
  match Repro_harness.Collector_set.find name with
  | Ok f -> f
  | Error e -> failwith e

let workload name =
  match Repro_harness.Collector_set.find_workload name with
  | Ok w -> w
  | Error e -> failwith e

let ok_or what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* Recordings and span files live here, inside the checkout. *)
let out_dir = ".bench_build/perfbench"

let rec ensure_dir d =
  if not (Sys.file_exists d) then begin
    ensure_dir (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

(* --- Sizes ---------------------------------------------------------- *)

type sizes = {
  replay_traces : (string * float) list;  (** workload, scale *)
  check_latency_scale : float;
      (** lusearch recording the check's latency trace is cut from *)
  check_throughput_events : int;  (** events of the xalan trace kept *)
  fleet_requests : int;
}

(* lusearch's LXR p99 sits where requests start to meet pauses, so it
   needs many requests to settle: at scale 0.8 (9,600 requests) it
   varies by about 3% from seed to seed, at 0.2 by 40%. The check's
   lusearch recording is that long for the same reason, although only
   its first request is diffed: every explicit safepoint is a full
   checkpoint. xalan's length at a given scale varies by half from seed
   to seed (a few large objects use up its allocation budget), so the
   check keeps a fixed 40,960 of its events: 10 interval checkpoints. *)
let full =
  { replay_traces = [ ("lusearch", 0.8); ("xalan", 0.1); ("jflood", 0.03) ];
    check_latency_scale = 0.8;
    check_throughput_events = 40_960;
    fleet_requests = 20_000 }

(* Small enough for the self-tests. *)
let tiny =
  { replay_traces = [ ("lusearch", 0.005); ("xalan", 0.005); ("jflood", 0.002) ];
    check_latency_scale = 0.004;
    check_throughput_events = 12_000;
    fleet_requests = 1_000 }

(* What one rep did: items timed, operations checked and failed, the
   deterministic figures (simulated metrics and counts) it produced, and
   the host seconds each of its parts took. *)
type outcome = {
  items : int;
  attempted : int;
  failed : int;
  counts : (string * float) list;
  parts : (string * float) list;
}

(* [f ()] and the host seconds it took. *)
let clock f =
  let t0 = Span.now () in
  let r = f () in
  (r, Span.now () -. t0)

type t = {
  name : string;
  setup : seed:int -> sizes -> unit -> outcome;
      (** generates the seeded inputs and returns the rep *)
  setups : int;
      (** how many times a run sets up; [setup_s] is their median. Fixed
          per workload, so every run of a seed has the same history
          before its first timed rep, whose host allocation is reported:
          the simulator recycles scratch buffers across calls. *)
}

let collectors = [ "lxr"; "g1"; "shenandoah"; "journal_rc" ]

(* Replaying an LXR-recorded lusearch trace under G1 raises
   Invalid_argument "index out of bounds" (Blocks.young, reached from
   G1.on_write) once the trace is long enough: for 2 of 8 seeds at
   scale 0.2, 6 of 8 at 0.4 and all 8 at 0.6 and 0.8. Both replay loops
   raise. A live G1 run of the same seed does not, but its trace
   differs from LXR's. xalan and jflood replay cleanly under G1. That is
   a simulator defect, not a property of the workload, so the lane is
   left out of the replay workload until it is fixed; selftest.ml fails
   once the defect stops reproducing. *)
let replay_collectors trace =
  if trace = "lusearch" then List.filter (( <> ) "g1") collectors else collectors
let check_lanes = [ "lxr"; "g1"; "shenandoah" ]
let heap_factor = 1.5

(* --- Simulated outcomes ---------------------------------------------- *)

(* What a run reports about the simulated system; replay must reproduce
   the live recording's exactly. *)
type sim = {
  wall_ns : float;
  mutator_cpu_ns : float;
  gc_cpu_ns : float;
  stw_wall_ns : float;
  stw_cpu_ns : float;
  alloc_stall_ns : float;
  barrier_cpu_ns : float;
  pause_count : int;
  requests : int;
  alloc_bytes : int;
  alloc_count : int;
  survived_bytes : int;
  large_bytes : int;
  latency : Histogram.t option;
}

let sim_of_result (r : Runner.result) =
  { wall_ns = r.wall_ns; mutator_cpu_ns = r.mutator_cpu_ns;
    gc_cpu_ns = r.gc_cpu_ns; stw_wall_ns = r.stw_wall_ns;
    stw_cpu_ns = r.stw_cpu_ns; alloc_stall_ns = r.alloc_stall_ns;
    barrier_cpu_ns = r.barrier_cpu_ns; pause_count = r.pause_count;
    requests = r.requests; alloc_bytes = r.alloc_bytes;
    alloc_count = r.alloc_count; survived_bytes = r.survived_bytes;
    large_bytes = r.large_bytes; latency = r.latency }

let sim_equal a b =
  { a with latency = None } = { b with latency = None }
  &&
  match (a.latency, b.latency) with
  | Some x, Some y -> Histogram.equal x y
  | None, None -> true
  | _ -> false

let p99_us = function
  | Some h -> (
    match Histogram.percentile_opt h 99.0 with
    | Some v -> Float.of_int v /. 1e3
    | None -> 0.0)
  | None -> 0.0

(* --- Inputs ---------------------------------------------------------- *)

type trace_input = {
  name : string;
  bytes : string;  (** the encoded trace *)
  trace : Trace_format.t;
  events : int;
  alloc_failed : int;  (** [Alloc_failed] events in the stream *)
  live : Runner.result;  (** the LXR run that recorded it *)
}

let decode ~name ~live bytes =
  let trace =
    Span.with_ ~key:name "trace.decode" (fun () -> Trace_format.of_string bytes)
    |> ok_or ("decoding " ^ name)
  in
  let n = Trace_format.num_events trace in
  let alloc_failed = ref 0 in
  for i = 0 to n - 1 do
    if Trace_format.tag_at trace i = Trace_format.tag_alloc_failed then
      incr alloc_failed
  done;
  { name; bytes; trace; events = n; alloc_failed = !alloc_failed; live }

(* A live LXR run of [name] teed into a trace file. *)
let record ~seed ~name ~scale =
  ensure_dir out_dir;
  let path =
    Filename.concat out_dir
      (Printf.sprintf "%s-%d-%d.lxrtrace" name seed (Unix.getpid ()))
  in
  let live =
    Span.with_ ~key:name "runner.run" (fun () ->
        Runner.run ~seed ~scale ~record_to:path ~workload:(workload name)
          ~factory:(factory "lxr") ~heap_factor ())
  in
  if not live.ok then
    failwith
      (Printf.sprintf "recording %s failed: %s" name
         (Option.value live.error ~default:"?"));
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  (live, bytes)

(* The first [keep] events of [src] plus a Finish marker, re-encoded. *)
let prefix (src : Trace_format.t) keep =
  let evs =
    Array.init (keep + 1) (fun i ->
        if i < keep then Trace_format.event src i else Trace_format.Finish)
  in
  Trace_format.to_string (Trace_format.of_events src.header evs)

(* Index just past the first request's end. *)
let after_first_request (t : Trace_format.t) =
  let total = Trace_format.num_events t in
  let rec go i =
    if i >= total then total
    else if Trace_format.tag_at t i = Trace_format.tag_request_end then i + 1
    else go (i + 1)
  in
  go 0

let replay_inputs ~seed sizes =
  List.map
    (fun (name, scale) ->
      let live, bytes = record ~seed ~name ~scale in
      decode ~name ~live bytes)
    sizes.replay_traces

(* The check's two traces: lusearch cut after its first request (a
   latency trace, checkpointed at its explicit safepoints) and xalan at
   its minimum length (a throughput trace, checkpointed every 4,096
   events). *)
let check_inputs ~seed sizes =
  let cut ~name ~scale keep =
    let live, bytes = record ~seed ~name ~scale in
    let full =
      Trace_format.of_string bytes |> ok_or ("decoding " ^ name)
    in
    let keep = keep full in
    let bytes =
      if keep >= Trace_format.num_events full then bytes else prefix full keep
    in
    decode ~name ~live bytes
  in
  [ cut ~name:"lusearch" ~scale:sizes.check_latency_scale after_first_request;
    cut ~name:"xalan" ~scale:0.001 (fun t ->
        min sizes.check_throughput_events (Trace_format.num_events t)) ]

(* lusearch on four LXR replicas with gc-aware routing and the whole
   resilience stack on. The seed fixes arrivals, replica seeds and the
   chaos schedule's targets. *)
let fleet_config ~seed sizes =
  Fleet.config ~replicas:4 ~policy:Repro_service.Policy.Gc_aware ~seed
    ~requests:sizes.fleet_requests ~load:0.25 ~domains:1 ~gc_threads:1
    ~chaos:
      (Repro_service.Chaos.of_spec "crash@0.3:r0,heap-shrink@0.6x0.7,restart:5us"
      |> ok_or "chaos")
    ~retry:
      (Repro_service.Policy.Retry.of_spec "timeout:80ms,max:3,backoff:200us"
      |> ok_or "retry")
    ~slo:(Repro_service.Slo.of_spec "p99.9:10ms" |> ok_or "slo")
    ~autoscale:(Repro_service.Slo.Autoscale.of_spec "min:3,max:6" |> ok_or "autoscale")
    ~workload:(workload "lusearch") ~factory:(factory "lxr") ()

(* --- Calls into the simulator, one span each ------------------------- *)

type lane = { ok : bool; anomalies : int; sim : sim }

(* One replay lane: build an engine for the trace's heap geometry, then
   replay the whole trace through it. A replay halts only on OOM, and
   the only replay anomaly is an [Alloc_failed] event whose allocation
   succeeded, so an OOM-free replay saw one anomaly per such event. *)
let lane (tr : trace_input) cname =
  let key = tr.name ^ "/" ^ cname in
  let fac = factory cname in
  Span.with_ ~key "lane" (fun () ->
      let api =
        Span.with_ ~key "engine.build" (fun () ->
            let _, max_id = Trace_format.alloc_stats tr.trace in
            let heap =
              Heap.create ~ids_hint:(max 16 (max_id + 2))
                (Trace_format.heap_config tr.trace.header)
            in
            Api.create (Sim.create Cost_model.default) heap fac)
      in
      let s = Api.sim api in
      let start = ref 0.0 in
      let on_measurement_start () =
        Sim.reset_measurement s;
        start := Sim.now s
      in
      let out =
        Span.with_ ~key "replay.run" (fun () ->
            Replay.run ~on_measurement_start api tr.trace)
      in
      let ok = out.oom = None in
      { ok;
        anomalies = (if ok then tr.alloc_failed else 0);
        sim =
          { wall_ns = Sim.now s -. !start; mutator_cpu_ns = Sim.mutator_cpu s;
            gc_cpu_ns = Sim.gc_cpu s; stw_wall_ns = Sim.stw_wall s;
            stw_cpu_ns = Sim.stw_cpu s; alloc_stall_ns = Sim.alloc_stall_ns s;
            barrier_cpu_ns = Sim.barrier_cpu s; pause_count = Sim.pause_count s;
            requests = out.requests; alloc_bytes = Sim.alloc_bytes s;
            alloc_count = Sim.alloc_count s;
            survived_bytes = out.survived_bytes;
            large_bytes = out.large_bytes; latency = out.latency } })

(* The latency trace (lusearch) is checkpointed at its explicit
   safepoints only, the throughput trace (xalan) every 4,096 events. *)
let diff ?inject ~verify (tr : trace_input) =
  Span.with_
    ~key:(tr.name ^ if verify then "/verify" else "/no-verify")
    "differ.run"
    (fun () ->
      Differ.run ~verify ?inject ~trace:tr.trace
        ~every:(if tr.name = "lusearch" then 0 else 4096)
        ~collectors:(List.map (fun c -> (c, factory c)) check_lanes)
        ())

(* Lanes a differ report convicts: each lane a divergence names or the
   differ skipped, every lane when a divergence names none, and every
   lane when the oracle did not run once per lane per checkpoint. *)
let failed_lanes (r : Differ.report) =
  let lanes = List.length check_lanes in
  let contains s sub =
    let n = String.length sub in
    let rec at i =
      i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
    in
    at 0
  in
  let named =
    List.length
      (List.filter
         (fun label ->
           List.mem_assoc label r.skipped
           || List.exists
                (fun (d : Differ.divergence) ->
                  contains d.subject label || contains d.detail label)
                r.divergences)
         check_lanes)
  in
  if r.oracle_checks <> r.checkpoints * lanes then lanes
  else if r.total_divergences > 0 && named = 0 then lanes
  else named

(* --- Reps ------------------------------------------------------------ *)

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

(* The simulated figures of the LXR lanes, summed over traces; the p99
   is lusearch's, the one trace with requests to spare beyond it. *)
let lxr_counts (lxr : (string * sim) list) =
  let ms f = sum (fun (_, s) -> f s) lxr /. 1e6 in
  [ ("sim_lxr_time_ms", ms (fun s -> s.wall_ns));
    ("sim_lxr_p99_us",
     p99_us (Option.bind (List.assoc_opt "lusearch" lxr) (fun s -> s.latency)));
    ("sim.lxr.pauses", sum (fun (_, s) -> Float.of_int s.pause_count) lxr);
    ("sim.lxr.stw_ms", ms (fun s -> s.stw_wall_ns));
    ("sim.lxr.gc_cpu_ms", ms (fun s -> s.gc_cpu_ns));
    ("sim.lxr.barrier_cpu_ms", ms (fun s -> s.barrier_cpu_ns));
    ("sim.lxr.alloc_stall_ms", ms (fun s -> s.alloc_stall_ns)) ]

(* A call that raises counts as a failed operation, not a crash. *)
let protect f =
  try Ok (f ())
  with e ->
    let msg = Printexc.to_string e in
    prerr_endline ("perfbench: operation failed: " ^ msg);
    Error msg

(* Every (trace, collector) lane once. The recording collector's lane
   must reproduce the live run exactly; every lane must reproduce its
   own first replay (the warm-up) exactly. *)
let replay_rep inputs =
  let reference = Hashtbl.create 16 in
  List.iter
    (fun tr -> Hashtbl.replace reference (tr.name, "lxr") (sim_of_result tr.live))
    inputs;
  let good (tr, c, l, _) =
    match l with
    | Error _ -> false
    | Ok (l : lane) ->
      let same =
        match Hashtbl.find_opt reference (tr.name, c) with
        | Some s -> sim_equal s l.sim
        | None ->
          Hashtbl.replace reference (tr.name, c) l.sim;
          true
      in
      l.ok && l.anomalies = 0 && same
  in
  fun () ->
    let lanes =
      List.concat_map
        (fun tr ->
          List.map
            (fun c ->
              let l, dt = clock (fun () -> protect (fun () -> lane tr c)) in
              (tr, c, l, dt))
            (replay_collectors tr.name))
        inputs
    in
    { items = List.fold_left (fun acc (tr, _, _, _) -> acc + tr.events) 0 lanes;
      attempted = List.length lanes;
      failed = List.length (List.filter (fun l -> not (good l)) lanes);
      parts = List.map (fun (tr, c, _, dt) -> (tr.name ^ "/" ^ c, dt)) lanes;
      counts =
        lxr_counts
          (List.filter_map
             (fun (tr, c, l, _) ->
               match l with Ok l when c = "lxr" -> Some (tr.name, l.sim) | _ -> None)
             lanes) }

(* Both traces through the lockstep differ with the oracle on. Its
   simulated figures are those of the LXR recordings the traces came
   from (replay reproduces them exactly; the replay workload checks
   that). *)
let check_rep ?inject inputs () =
  let lanes = List.length check_lanes in
  let diffs =
    List.map
      (fun tr -> (tr, clock (fun () -> protect (fun () -> diff ?inject ~verify:true tr))))
      inputs
  in
  let reports = List.filter_map (fun (_, (r, _)) -> Result.to_option r) diffs in
  let count f = sum (fun (r : Differ.report) -> Float.of_int (f r)) reports in
  let lusearch = List.find (fun tr -> tr.name = "lusearch") inputs in
  { items = List.fold_left (fun acc (r : Differ.report) -> acc + (r.trace_events * lanes)) 0 reports;
    attempted = lanes * List.length diffs;
    failed =
      List.fold_left
        (fun acc (_, (r, _)) ->
          acc + match r with Ok r -> failed_lanes r | Error _ -> lanes)
        0 diffs;
    parts = List.map (fun (tr, (_, dt)) -> (tr.name, dt)) diffs;
    counts =
      [ ("sim_lxr_time_ms", sum (fun tr -> tr.live.Runner.wall_ns) inputs /. 1e6);
        ("sim_lxr_p99_us", p99_us lusearch.live.latency);
        ("differ.checkpoints", count (fun r -> r.checkpoints));
        ("verify.oracle_checks", count (fun r -> r.oracle_checks)) ] }

(* A fleet run is one long call. To time it in parts as short as a
   replay lane, so that each part can find a quiet moment of the host,
   the rep splits it into [fleet_segments] runs of fleet windows,
   timestamped from [on_burn], which the fleet calls at every window
   boundary. The first rep of a set-up (its warm-up) counts the windows
   and is timed whole; the windows of a run are fixed by its inputs, so
   every later rep splits at the same boundaries. *)
let fleet_segments = 16

(* One whole fleet run. Simulated rejections, drops and sheds are
   outcomes; a request fails only if it reaches no terminal bucket. *)
let fleet_rep (cfg : Fleet.config) =
  let windows = ref 0 in
  fun () ->
    let per = if !windows = 0 then max_int else max 1 (!windows / fleet_segments) in
    let marks = Array.make fleet_segments Float.nan in
    let n = ref 0 in
    let on_burn _ =
      incr n;
      if !n mod per = 0 && !n / per < fleet_segments then marks.(!n / per) <- Span.now ()
    in
    let t0 = Span.now () in
    let r =
      Span.with_ "fleet.run" (fun () -> Fleet.run { cfg with on_burn = Some on_burn })
    in
    let t1 = Span.now () in
    if !windows = 0 then windows := !n;
    let bounds = (t0 :: List.filter (fun t -> not (Float.is_nan t)) (Array.to_list marks)) @ [ t1 ] in
    let rec segments i = function
      | a :: (b :: _ as rest) -> (Printf.sprintf "fleet/%02d" i, b -. a) :: segments (i + 1) rest
      | _ -> []
    in
    let terminal = r.completed + r.rejected + r.dropped + r.shed in
    let sumr f = sum f r.per_replica in
    { items = min terminal cfg.requests;
      attempted = cfg.requests;
      failed = (if r.ok then abs (cfg.requests - terminal) else cfg.requests);
      parts = segments 0 bounds;
      counts =
        [ ("sim_lxr_time_ms", r.wall_ns /. 1e6);
          ("sim_lxr_p99_us", p99_us (Some r.latency));
          ("sim.fleet.availability_pct", r.availability *. 100.0);
          ("sim.fleet.restarts", sumr (fun s -> Float.of_int s.r_restarts));
          ("sim.fleet.pauses", sumr (fun s -> Float.of_int s.r_pause_count));
          ("sim.fleet.gc_cpu_ms", sumr (fun s -> s.r_gc_cpu_ns) /. 1e6) ] }

(* --- The workload table ---------------------------------------------- *)

let all =
  [ { name = "replay";
      setup = (fun ~seed sizes -> replay_rep (replay_inputs ~seed sizes));
      setups = 3 };
    { name = "check";
      setup = (fun ~seed sizes -> check_rep (check_inputs ~seed sizes));
      setups = 3 };
    (* A fleet set-up takes under a second, so more of them fit. *)
    { name = "fleet";
      setup = (fun ~seed sizes -> fleet_rep (fleet_config ~seed sizes));
      setups = 5 } ]

let find name = List.find_opt (fun (w : t) -> w.name = name) all
