(* Batched multi-RHS engine experiment: Wilson.hop_multi streaming the
   gauge links once for k right-hand sides vs k single-RHS hops, the
   batched CG front end vs k independent solves, the amortized-traffic
   model rows, and the batch-width autotuner's chosen winner. Rows
   merge into BENCH_kernels.json alongside the pool and fused
   experiments'.

   Fairness: every measured point processes the same KMAX right-hand
   sides — a width-k row as KMAX/k calls of width k — so a wide batch
   is only faster by the gauge re-streaming it avoids, never by doing
   less work. The model rows record Perf_model.mrhs_bytes_per_site
   (modeled bytes/site/RHS, not a measured time): the link term drops
   k-fold while the spinor stream is per-vector, the ceiling the
   measured rows chase on a streaming-bound box. *)

module Field = Linalg.Field
module Wilson = Dirac.Wilson
module Pool = Util.Pool
module Ascii = Util.Ascii
open Bench_json

let time_ns = Pool_bench.time_ns
let kmax = 8

let mk n seed =
  let v = Field.create n in
  Field.gaussian (Util.Rng.create seed) v;
  v

let run ?(out = "BENCH_kernels.json") () =
  Ascii.banner "batched multi-RHS engine: k RHS per gauge-link stream";
  let geom = Lattice.Geometry.create [| 8; 8; 8; 8 |] in
  let gauge = Lattice.Gauge.warm geom (Util.Rng.create 31) ~eps:0.3 in
  let w = Wilson.of_geometry geom gauge in
  let vol = Lattice.Geometry.volume geom in
  let nf = vol * Wilson.floats_per_site in
  let srcs = Array.init kmax (fun i -> mk nf (40 + i)) in
  let dsts = Array.init kmax (fun _ -> Field.create nf) in
  (* serial hop at each width: KMAX RHS as KMAX/k width-k batches *)
  let hop_at_width k () =
    Autotune.Variants.(run_hop_batch { baseline with k }) w ~srcs ~dsts
  in
  let widths = [ 1; 2; 4; 8 ] in
  let t1 = time_ns (hop_at_width 1) in
  let hop_rows =
    List.map
      (fun k ->
        let t = if k = 1 then t1 else time_ns (hop_at_width k) in
        {
          kernel = "wilson_hop_multi";
          n = vol;
          geometry = Printf.sprintf "k%d_serial" k;
          ns_per_op = t;
          speedup = t1 /. t;
        })
      widths
  in
  (* the model's view of the same sweep: bytes/site/RHS with the link
     term amortized k-fold (ns_per_op column holds modeled bytes, the
     speedup column the traffic ratio's inverse — the bound a
     perfectly streaming-limited hop would hit) *)
  let model_rows =
    List.map
      (fun k ->
        {
          kernel = "wilson_hop_multi_model";
          n = vol;
          geometry = Printf.sprintf "k%d" k;
          ns_per_op = Machine.Perf_model.mrhs_bytes_per_site ~k;
          speedup = 1. /. Machine.Perf_model.mrhs_traffic_ratio ~k;
        })
      widths
  in
  (* batched solve: k systems against the Wilson normal operator — one
     solve_multi (batched stencil + Multi_blas tail + masking) vs k
     independent Cg.solve. Identical trajectories by construction; the
     batch only wins traffic. *)
  let solve_rows =
    let sg = Lattice.Geometry.create [| 4; 4; 4; 4 |] in
    let sgauge = Lattice.Gauge.warm sg (Util.Rng.create 32) ~eps:0.3 in
    let sw = Wilson.of_geometry sg sgauge in
    let sn = Lattice.Geometry.volume sg * Wilson.floats_per_site in
    let k = 4 and mass = 0.2 in
    let bs = Array.init k (fun i -> mk sn (50 + i)) in
    let tmps = Array.init k (fun _ -> Field.create sn) in
    let apply_multi xs ys =
      let kk = Array.length xs in
      let ts = Array.sub tmps 0 kk in
      Wilson.apply_multi sw ~mass ~srcs:xs ~dsts:ts;
      Wilson.apply_dagger_multi sw ~mass ~srcs:ts ~dsts:ys
    in
    let t0 = Field.create sn in
    let apply_one x y =
      Wilson.apply sw ~mass ~src:x ~dst:t0;
      Wilson.apply_dagger sw ~mass ~src:t0 ~dst:y
    in
    let fpa = 2. *. float_of_int (Dirac.Flops.wilson_apply_per_site * (sn / 24)) in
    let tol = 1e-8 and max_iter = 200 in
    let t_indep =
      time_ns ~repeats:3 (fun () ->
          Array.iter
            (fun b ->
              ignore
                (Solver.Cg.solve ~apply:apply_one ~b ~tol ~max_iter
                   ~flops_per_apply:fpa ()
                  : Field.t * Solver.Cg.stats))
            bs)
    in
    let t_batched =
      time_ns ~repeats:3 (fun () ->
          ignore
            (Solver.Cg.solve_multi ~fused:true ~apply:apply_multi ~bs ~tol
               ~max_iter ~flops_per_apply:fpa ()
              : Field.t array * Solver.Cg.stats array))
    in
    [
      { kernel = "cg_solve_multi"; n = sn; geometry = "k4_independent";
        ns_per_op = t_indep; speedup = 1. };
      { kernel = "cg_solve_multi"; n = sn; geometry = "k4_batched";
        ns_per_op = t_batched; speedup = t_indep /. t_batched };
    ]
  in
  (* the batch-width tuner's chosen winner for this shape, re-measured
     against the always-present width-1 serial baseline *)
  let tuned_rows =
    let tuner = Autotune.Tuner.create () in
    let winner, plan =
      Autotune.Variants.tune_hop_recon ~codecs:[ Linalg.Su3_codec.Full18 ]
        tuner geom gauge ~srcs ~dsts ~signature:"bench"
    in
    let t_winner =
      time_ns (fun () -> Autotune.Variants.run_hop_batch plan w ~srcs ~dsts)
    in
    [
      {
        kernel = "wilson_hop_multi_tuned";
        n = vol;
        geometry = winner;
        ns_per_op = t_winner;
        speedup = t1 /. t_winner;
      };
    ]
  in
  let rows = hop_rows @ model_rows @ solve_rows @ tuned_rows in
  Bench_json.print_table rows;
  Bench_json.write ~file:out
    ~replacing:
      [
        "wilson_hop_multi"; "wilson_hop_multi_model"; "cg_solve_multi";
        "wilson_hop_multi_tuned";
      ]
    rows;
  Printf.printf
    "%d rows -> %s (model rows: bytes/site/RHS with the link term /k;\n\
     measured k-rows process the same %d RHS regardless of width)\n"
    (List.length rows) out kmax;
  Pool.shutdown_shared ()
