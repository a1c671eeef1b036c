(* The benchmark of record. One workload per invocation:

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics (wall_s, setup_s,
   peak_rss_mb) with tracing off; --trace 1 is the traced run that
   records spans and reports the per-layer metrics. The last line of
   standard output is the JSON result. Everything runs in this one
   thread on the serial pool. *)

let workloads = [ "fig2_double"; "ensemble_io" ]

let usage () =
  prerr_endline
    ("usage: perfbench --workload (" ^ String.concat "|" workloads
   ^ ") --seed N --seconds S --trace 0|1 [--out DIR]");
  exit 2

let parse () =
  let workload = ref "" and seed = ref 20_180_920 and seconds = ref 20. in
  let trace = ref 0 and out = ref "perfbench/out" in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; go rest
    | "--trace" :: v :: rest -> trace := int_of_string v; go rest
    | "--out" :: v :: rest -> out := v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload workloads) || (!trace <> 0 && !trace <> 1) || !seed < 0 then usage ();
  (!workload, !seed, !seconds, !trace = 1, !out)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let print_run (run : Measure.run) =
  Printf.printf "passes: %d  (step sums: %s s)\n" (List.length run.Measure.passes)
    (String.concat " "
       (List.map
          (fun p -> Printf.sprintf "%.3f" (List.fold_left (fun a (_, t) -> a +. t) 0. p.Measure.steps))
          run.Measure.passes));
  Printf.printf "set-ups: %s s\n"
    (String.concat " " (List.map (Printf.sprintf "%.4f") run.Measure.setup_times))

let untraced workload ~seed ~seconds ~out =
  let report run =
    print_run run;
    (Measure.quiet_sum run.Measure.passes, List.fold_left Float.min infinity run.Measure.setup_times)
  in
  let wall, setup =
    match workload with
    | "fig2_double" -> report (Fig2_workload.run_untraced ~seed ~seconds ~out_dir:out)
    | _ -> report (Ensemble_io.run_untraced ~seed ~seconds ~out_dir:out)
  in
  Printf.printf "host.ref_ms: %.4f\n" (Measure.host_ref_ms ());
  [
    Measure.metric "wall_s" "s" wall;
    Measure.metric "setup_s" "s" setup;
    Measure.metric "peak_rss_mb" "MB" !Measure.first_pass_rss_mb;
  ]

let traced workload ~seed ~out =
  let layer_metrics =
    match workload with
    | "fig2_double" -> Fig2_workload.run_traced ~seed ~out_dir:out
    | _ -> Ensemble_io.run_traced ~seed ~out_dir:out
  in
  let host_ref = Measure.host_ref_ms () in
  let base = Filename.concat out (Printf.sprintf "%s-seed%d" workload seed) in
  Spans.write_chrome (base ^ ".trace.json");
  let wall =
    match Spans.named "core.pipeline" with s :: _ -> Spans.duration s | [] -> nan
  in
  let rollup = Spans.rollup ~wall in
  let oc = open_out (base ^ ".rollup.txt") in
  output_string oc rollup;
  close_out oc;
  print_string rollup;
  Printf.printf "trace: %s.trace.json\n" base;
  layer_metrics @ [ Measure.metric "host.ref_ms" "ms" host_ref ]

let () =
  let workload, seed, seconds, trace, out = parse () in
  Util.Pool.set_default (Util.Pool.create ~domains:1 ());
  mkdir_p out;
  Printf.printf "perfbench %s seed %d seconds %g trace %b\n%!" workload seed seconds trace;
  let metrics =
    if trace then traced workload ~seed ~out else untraced workload ~seed ~seconds ~out
  in
  print_endline (Measure.result_line metrics)
