(* Benchmark driver: perfbench --workload NAME --seed N --seconds S --trace 0|1

   Prints a table of every metric, then, as the last line, one JSON
   object: {"correct", "attempted", "failed", "metrics"}. See README.md. *)

open Perfbench_core

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME replay | check | fleet");
      ("--seed", Arg.Set_int seed, "N seed every input is generated from");
      ("--seconds", Arg.Set_float seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run") ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ String.escaped !workload ^ "\n" ^ usage);
      exit 2
  in
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let r = Driver.run ~w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) () in
  List.iter (fun (name, v, unit) -> Printf.printf "%-44s %16.6g %s\n" name v unit) r.metrics;
  if !trace = 1 then begin
    Workloads.ensure_dir Workloads.out_dir;
    Span.write
      (Filename.concat Workloads.out_dir
         (Printf.sprintf "spans-%s-%d.jsonl" w.name !seed))
  end;
  print_endline (Driver.json r)
