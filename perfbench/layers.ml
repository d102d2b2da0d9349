(* The per-layer host-cost table. Each probe calls one public function
   of the layer it measures, [probes] times, under a span; a layer's
   figure is the median span, or the difference between the medians of
   two calls that differ by exactly that layer (real minus ideal
   collector, live minus replayed mutator, differ minus its lanes,
   oracle on minus off, fleet minus one replica). The table is the same
   for every workload, so every traced run reports all of it. *)

open Workloads

let probes = 3

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let spans ~within ?key name = Span.find ~within ?key name
let med_s ~within ?key name = median (List.map Span.duration (spans ~within ?key name))
let med_alloc ~within ?key name =
  median (List.map (fun s -> s.Span.alloc) (spans ~within ?key name))

(* Run [f] [probes] times inside one span and return that span. *)
let phase name f =
  Span.scope name (fun () ->
      for _ = 1 to probes do
        f ()
      done)

let sumf f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let events l = Float.of_int (List.fold_left (fun acc tr -> acc + tr.events) 0 l)
let metric name unit value = (name, value, unit)

type t = {
  metrics : (string * float * string) list;
  lane_cost_s : (string * float) list;
      (** per check trace: Σ over its differ lanes of the median
          [Replay.run] — what the differ spends outside checkpoints *)
}

let measure ~seed sizes =
  assert !Span.enabled;
  let replay_in = replay_inputs ~seed sizes in
  let check_in = check_inputs ~seed sizes in
  let cfg = fleet_config ~seed sizes in
  (* lib/trace decode *)
  let dec =
    phase "layers.decode" (fun () ->
        List.iter (fun tr -> ignore (decode ~name:tr.name ~live:tr.live tr.bytes)) replay_in)
  in
  let per_event f = sumf (fun tr -> f tr) replay_in /. events replay_in in
  (* lib/trace replay + engine + heap (ideal), and each collector *)
  let lxr_sims = ref [] in
  let lanes =
    phase "layers.lanes" (fun () ->
        List.iter
          (fun tr ->
            List.iter
              (fun c ->
                let l = lane tr c in
                if c = "lxr" then
                  lxr_sims := (tr.name, l.sim) :: List.remove_assoc tr.name !lxr_sims)
              ("ideal" :: replay_collectors tr.name))
          replay_in)
  in
  let lane_s tr c = med_s ~within:lanes ~key:(tr.name ^ "/" ^ c) "replay.run" in
  let lane_metrics =
    List.concat_map
      (fun tr ->
        List.concat_map
          (fun c ->
            let key = tr.name ^ "/" ^ c in
            let n = Float.of_int tr.events in
            [ metric (Printf.sprintf "replay.%s.%s.ns_per_event" tr.name c) "ns"
                (lane_s tr c *. 1e9 /. n);
              metric (Printf.sprintf "replay.%s.%s.alloc_b_per_event" tr.name c) "B"
                (med_alloc ~within:lanes ~key "replay.run" /. n) ])
          ("ideal" :: replay_collectors tr.name))
      replay_in
  in
  (* Over the traces each collector replays. *)
  let collector_metrics =
    List.map
      (fun c ->
        let traces = List.filter (fun tr -> List.mem c (replay_collectors tr.name)) replay_in in
        metric (Printf.sprintf "collector.%s.host_ns_per_event" c) "ns"
          (sumf (fun tr -> lane_s tr c -. lane_s tr "ideal") traces *. 1e9 /. events traces))
      collectors
  in
  (* lib/mutator: a live run minus the replay of its own recording *)
  let gen =
    phase "layers.mutator" (fun () ->
        List.iter
          (fun tr ->
            let scale = List.assoc tr.name sizes.replay_traces in
            ignore
              (Span.with_ ~key:tr.name "runner.run" (fun () ->
                   Runner.run ~seed ~scale ~workload:(workload tr.name)
                     ~factory:(factory "lxr") ~heap_factor ()));
            ignore
              (Span.with_ ~key:tr.name "runner.replay" (fun () ->
                   Runner.replay ~trace:tr.trace ~factory:(factory "lxr") ())))
          replay_in)
  in
  (* lib/trace differ and lib/verify *)
  let reports = ref [] in
  let dif =
    phase "layers.differ" (fun () ->
        List.iter
          (fun tr ->
            let off = diff ~verify:false tr in
            let on = diff ~verify:true tr in
            reports := (tr.name, (off, on)) :: List.remove_assoc tr.name !reports;
            List.iter (fun c -> ignore (lane tr c)) check_lanes)
          check_in)
  in
  let lane_cost_s =
    List.map
      (fun tr ->
        ( tr.name,
          sumf (fun c -> med_s ~within:dif ~key:(tr.name ^ "/" ^ c) "replay.run")
            check_lanes ))
      check_in
  in
  let differ_s tr v = med_s ~within:dif ~key:(tr.name ^ v) "differ.run" in
  let report tr = List.assoc tr.name !reports in
  let checkpoints = sumf (fun tr -> Float.of_int (fst (report tr)).Differ.checkpoints) check_in in
  let oracle_checks = sumf (fun tr -> Float.of_int (snd (report tr)).Differ.oracle_checks) check_in in
  (* lib/service: the fleet minus one live replica serving as many
     requests *)
  let fleet_counts = ref [] in
  let single =
    let w = workload "lusearch" in
    { w with
      request =
        Option.map
          (fun (r : Repro_mutator.Workload.request) -> { r with count = sizes.fleet_requests })
          w.request }
  in
  let svc =
    phase "layers.service" (fun () ->
        fleet_counts := (fleet_rep cfg ()).counts;
        ignore
          (Span.with_ ~key:"single" "runner.run" (fun () ->
               Runner.run ~seed ~workload:single ~factory:(factory "lxr")
                 ~heap_factor:cfg.heap_factor ())))
  in
  let n_req = Float.of_int sizes.fleet_requests in
  let fleet_s = med_s ~within:svc "fleet.run" in
  let counts = lxr_counts !lxr_sims @ !fleet_counts in
  let count name = List.assoc name counts in
  { lane_cost_s;
    metrics =
      [ metric "trace.decode_ns_per_event" "ns"
          (per_event (fun tr -> med_s ~within:dec ~key:tr.name "trace.decode") *. 1e9);
        metric "trace.decode_alloc_b_per_event" "B"
          (per_event (fun tr -> med_alloc ~within:dec ~key:tr.name "trace.decode")) ]
      @ lane_metrics @ collector_metrics
      @ [ metric "engine.build_ms" "ms"
            (median (List.map Span.duration (spans ~within:lanes "engine.build")) *. 1e3);
          metric "mutator.gen_ns_per_event" "ns"
            (per_event (fun tr ->
                 med_s ~within:gen ~key:tr.name "runner.run"
                 -. med_s ~within:gen ~key:tr.name "runner.replay")
            *. 1e9);
          metric "differ.checkpoint_ms" "ms"
            (sumf (fun tr -> differ_s tr "/no-verify" -. List.assoc tr.name lane_cost_s) check_in
            *. 1e3 /. checkpoints);
          metric "differ.checkpoints" "count" checkpoints;
          metric "verify.oracle_ms_per_check" "ms"
            (sumf (fun tr -> differ_s tr "/verify" -. differ_s tr "/no-verify") check_in
            *. 1e3 /. oracle_checks);
          metric "verify.oracle_checks" "count" oracle_checks;
          metric "service.ns_per_request" "ns" (fleet_s *. 1e9 /. n_req);
          metric "service.frontend_ns_per_request" "ns"
            ((fleet_s -. med_s ~within:svc ~key:"single" "runner.run") *. 1e9 /. n_req);
          metric "service.alloc_b_per_request" "B" (med_alloc ~within:svc "fleet.run" /. n_req);
          metric "sim.lxr.pauses" "count" (count "sim.lxr.pauses");
          metric "sim.lxr.stw_ms" "sim_ms" (count "sim.lxr.stw_ms");
          metric "sim.lxr.gc_cpu_ms" "sim_ms" (count "sim.lxr.gc_cpu_ms");
          metric "sim.lxr.barrier_cpu_ms" "sim_ms" (count "sim.lxr.barrier_cpu_ms");
          metric "sim.lxr.alloc_stall_ms" "sim_ms" (count "sim.lxr.alloc_stall_ms");
          metric "sim.fleet.availability_pct" "%" (count "sim.fleet.availability_pct");
          metric "sim.fleet.restarts" "count" (count "sim.fleet.restarts");
          metric "sim.fleet.pauses" "count" (count "sim.fleet.pauses");
          metric "sim.fleet.gc_cpu_ms" "sim_ms" (count "sim.fleet.gc_cpu_ms") ] }
