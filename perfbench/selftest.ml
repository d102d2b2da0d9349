(* Self-tests of the benchmark on tiny inputs: an injected fault must be
   counted as a failed operation while a clean run counts none, and two
   back-to-back runs of each workload must report identical
   deterministic figures. *)

open Perfbench_core

let seed = 3

(* Host allocation per item depends on the allocation history of the
   process, so each run compared below is a fresh process: this
   executable re-run as [selftest --child WORKLOAD], which prints the
   run's correctness and its deterministic figures. *)
let () =
  match Sys.argv with
  | [| _; "--child"; name |] ->
    Unix.dup2 (Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0) Unix.stderr;
    let w = Option.get (Workloads.find name) in
    let r = Driver.run ~sizes:Workloads.tiny ~w ~seed ~seconds:0.5 ~trace:false () in
    Printf.printf "correct=%b\n" r.correct;
    List.iter
      (fun (n, v, _) ->
        if n = "host_alloc_bytes_per_item" || String.starts_with ~prefix:"sim_" n then
          Printf.printf "%s=%.17g\n" n v)
      r.metrics;
    exit 0
  | _ -> ()

let failures = ref 0

let expect name cond =
  Printf.printf "%s  %s\n%!" (if cond then "ok  " else "FAIL") name;
  if not cond then incr failures

let () =
  let inputs = Workloads.check_inputs ~seed Workloads.tiny in
  let clean = Workloads.check_rep inputs () in
  expect "a clean check run counts no failed lanes"
    (clean.attempted = 6 && clean.failed = 0);
  let fault =
    Repro_engine.Fault.of_spec ~seed "drop-barrier:0.05" |> Result.get_ok
  in
  let injected = Workloads.check_rep ~inject:("lxr", fault) inputs () in
  expect "drop-barrier injected into the LXR lane is counted as failed"
    (injected.failed > 0)

(* The defect that keeps G1 out of the lusearch replay lanes (see
   [Workloads.replay_collectors]). Once this stops reproducing, put the
   lane back. *)
let () =
  let live, bytes = Workloads.record ~seed:5 ~name:"lusearch" ~scale:0.2 in
  let tr = Workloads.decode ~name:"lusearch" ~live bytes in
  expect "known defect: G1 replay of an LXR-recorded lusearch trace raises"
    (match Workloads.lane tr "g1" with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Simulated figures and counts of a rep depend only on the seed. *)
let () =
  List.iter
    (fun (w : Workloads.t) ->
      let counts () = ((w.setup ~seed Workloads.tiny) ()).counts in
      let a = counts () and b = counts () in
      expect (w.name ^ ": rep counts repeat exactly") (a <> [] && a = b))
    Workloads.all

let child name =
  Unix.open_process_args_in Sys.executable_name
    [| Sys.executable_name; "--child"; name |]

let lines ic =
  let out = In_channel.input_all ic in
  ignore (Unix.close_process_in ic);
  List.filter (( <> ) "") (String.split_on_char '\n' out)

let () =
  List.iter
    (fun (w : Workloads.t) ->
      let ca = child w.name in
      let cb = child w.name in
      let a = lines ca and b = lines cb in
      expect (w.name ^ ": tiny runs are correct")
        (List.mem "correct=true" a && List.mem "correct=true" b);
      expect
        (Printf.sprintf "%s: host_alloc_bytes_per_item and sim_* repeat exactly [%s]"
           w.name (String.concat "; " a))
        (List.length a = 4 && a = b);
      if a <> b then Printf.printf "      second run: [%s]\n" (String.concat "; " b))
    Workloads.all

let () = if !failures > 0 then exit 1
