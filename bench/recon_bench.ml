(* Compressed gauge-link experiment: the Wilson hop streaming its
   links through each Su3_codec (full18 bit-copies, recon12 rebuilding
   the third row, recon8 rebuilding six of nine entries), the modeled
   link-traffic drop those codecs buy, and the codec × batch-width ×
   pool-geometry autotuner's chosen winner. Rows merge into
   BENCH_kernels.json alongside the pool/fused/multirhs experiments'.

   Fairness: every measured point processes the same KMAX right-hand
   sides through width-4 sub-batches, so a compressed codec is only
   faster by the link bytes it avoids streaming, never by doing less
   work — and it pays its reconstruction flops on the whole batch.
   The gauge field is a hot (Haar-random) start: recon8's 8-real
   parameterization is singular on near-identity links (a cold/warm
   field raises Su3_codec.Degenerate by design). The model rows record
   Perf_model.link_bytes_per_site_recon (1152 -> 768 -> 512 bytes per
   site) and its k = 4 composition with the amortized multi-RHS
   stream — the ceiling a streaming-bound hop chases. *)

module Field = Linalg.Field
module Codec = Linalg.Su3_codec
module Wilson = Dirac.Wilson
module Pool = Util.Pool
module Ascii = Util.Ascii
open Bench_json

let time_ns = Pool_bench.time_ns
let kmax = 8
let kbench = 4

let mk n seed =
  let v = Field.create n in
  Field.gaussian (Util.Rng.create seed) v;
  v

let run ?(out = "BENCH_kernels.json") () =
  Ascii.banner "compressed gauge links: recon-12/8 vs full-18";
  let geom = Lattice.Geometry.create [| 8; 8; 8; 8 |] in
  let gauge = Lattice.Gauge.random geom (Util.Rng.create 33) in
  let vol = Lattice.Geometry.volume geom in
  let nf = vol * Wilson.floats_per_site in
  let srcs = Array.init kmax (fun i -> mk nf (60 + i)) in
  let dsts = Array.init kmax (fun _ -> Field.create nf) in
  (* one operator per codec, same geometry and gauge: each owns its
     packed store, the stencil tables are identical *)
  let ops = List.map (fun c -> (c, Wilson.of_geometry ~recon:c geom gauge)) Codec.all in
  let hop_batch w () =
    Autotune.Variants.(run_hop_batch { baseline with k = kbench }) w ~srcs
      ~dsts
  in
  let t_full = time_ns (hop_batch (List.assoc Codec.Full18 ops)) in
  let hop_rows =
    List.map
      (fun (c, w) ->
        let t = if c = Codec.Full18 then t_full else time_ns (hop_batch w) in
        {
          kernel = "wilson_hop_recon";
          n = vol;
          geometry = Printf.sprintf "%s_k%d_serial" (Codec.name c) kbench;
          ns_per_op = t;
          speedup = t_full /. t;
        })
      ops
  in
  (* the model's view: per-site link bytes at each codec (the pure
     stream drop, 1152 -> 768 -> 512) and the k-amortized bytes/site
     of the width-kbench batch (ns_per_op holds modeled bytes, the
     speedup column the traffic ratio's inverse) *)
  let model_rows =
    List.concat_map
      (fun c ->
        let lb = Machine.Perf_model.link_bytes_per_site_recon ~recon:c in
        let full = Machine.Perf_model.link_bytes_per_site_recon ~recon:Codec.Full18 in
        [
          {
            kernel = "wilson_hop_recon_model";
            n = vol;
            geometry = Printf.sprintf "%s_links" (Codec.name c);
            ns_per_op = lb;
            speedup = full /. lb;
          };
          {
            kernel = "wilson_hop_recon_model";
            n = vol;
            geometry = Printf.sprintf "%s_k%d" (Codec.name c) kbench;
            ns_per_op =
              Machine.Perf_model.mrhs_bytes_per_site_recon ~recon:c ~k:kbench;
            speedup =
              1. /. Machine.Perf_model.recon_traffic_ratio ~recon:c ~k:kbench;
          };
        ])
      Codec.all
  in
  (* the codec x width x geometry tuner's chosen winner for this
     shape, re-measured against the uncompressed width-kbench serial
     baseline above *)
  let tuned_rows =
    let tuner = Autotune.Tuner.create () in
    let winner, plan =
      Autotune.Variants.tune_hop_recon tuner geom gauge ~srcs ~dsts
        ~signature:"bench"
    in
    let w = List.assoc plan.Autotune.Variants.recon ops in
    let t_winner =
      time_ns (fun () -> Autotune.Variants.run_hop_batch plan w ~srcs ~dsts)
    in
    [
      {
        kernel = "wilson_hop_recon_tuned";
        n = vol;
        geometry = winner;
        ns_per_op = t_winner;
        speedup = t_full /. t_winner;
      };
    ]
  in
  let rows = hop_rows @ model_rows @ tuned_rows in
  Bench_json.print_table rows;
  Bench_json.write ~file:out
    ~replacing:
      [ "wilson_hop_recon"; "wilson_hop_recon_model"; "wilson_hop_recon_tuned" ]
    rows;
  Printf.printf
    "%d rows -> %s (model rows: modeled bytes/site, links-only and\n\
     k%d-amortized; measured rows process the same %d RHS at every codec)\n"
    (List.length rows) out kbench kmax;
  Pool.shutdown_shared ()
