(* Kernel probes of the traced run: one layer kernel timed on the
   workload's own operator or lattice, [reps] times, reported as the
   median per call. Each probe runs inside a span carrying the flops
   and bytes the repository's own accounting computes for it
   ([Dirac.Flops], [Machine.Perf_model]), so the roll-up can give
   computed GF/s and GB/s per kernel row. *)

module Field = Linalg.Field
module Flops = Dirac.Flops
module Pm = Machine.Perf_model

type t = { ms : float; flops : float; bytes : float }

let per_call_ms ~reps f =
  f ();
  Measure.median (List.init reps (fun _ -> snd (Measure.time f) *. 1e3))

let probe ?(after = ignore) name ~reps ~flops ~bytes f =
  Spans.span name (fun () ->
      let ms = per_call_ms ~reps f in
      after ();
      Spans.count "calls" (float_of_int (reps + 1));
      Spans.count "flops" (flops *. float_of_int (reps + 1));
      Spans.count "bytes" (bytes *. float_of_int (reps + 1));
      { ms; flops; bytes })

let gflops p = if p.ms > 0. then p.flops /. (p.ms *. 1e-3) /. 1e9 else 0.
let gbytes p = if p.ms > 0. then p.bytes /. (p.ms *. 1e-3) /. 1e9 else 0.

let random_field seed n =
  let f = Field.create n in
  Field.gaussian (Util.Rng.create seed) f;
  f

(* S†S on the even/odd Möbius operator of the workload. *)
let schur_normal ?(reps = 20) (solver : Solver.Dwf_solve.t) =
  let eo = solver.Solver.Dwf_solve.eo in
  let l5 = solver.Solver.Dwf_solve.params.Dirac.Mobius.l5 in
  let sites = float_of_int (l5 * Lattice.Geometry.half_volume solver.Solver.Dwf_solve.geom) in
  let src = random_field 11 (Dirac.Mobius.eo_field_length eo) in
  let dst = Dirac.Mobius.create_eo_field eo in
  probe "dirac.schur_normal" ~reps
    ~flops:(sites *. float_of_int Flops.schur_normal_per_5d_site)
      (* S†S = two Schur applications, each two 5d hops *)
    ~bytes:(sites *. 2. *. Flops.actual_bytes_per_5d_site_double)
    (fun () -> Dirac.Mobius.apply_schur_normal eo ~src ~dst)

(* The fused CG tail (cg_update + xpay_dot) on vectors of [n] floats. *)
let cg_tail ?(reps = 40) n =
  let sites = float_of_int n /. 24. in
  let p = random_field 12 n and ap = random_field 13 n in
  let x = Field.create n and r = random_field 14 n in
  probe "linalg.cg_tail" ~reps
    ~flops:
      (* the fused tail less the p·Ap dot, which rides the stencil *)
      (sites *. float_of_int (Flops.cg_blas1_fused_per_5d_site - (2 * 24)))
    ~bytes:(sites *. float_of_int (Flops.cg_blas1_bytes_per_5d_site ~fused:true))
    (fun () ->
      ignore (Sys.opaque_identity (Linalg.Fused.cg_update 1e-3 p ap x r));
      ignore (Sys.opaque_identity (Linalg.Fused.xpay_dot r 0.5 p r)))

(* One half-precision round trip of an [n]-float vector, in place:
   each double is read and written back. *)
let quantize ?(reps = 40) n =
  let v = random_field 15 n in
  probe "linalg.quantize" ~reps ~flops:0.
    ~bytes:(float_of_int n *. 16.)
    (fun () -> Solver.Mixed.quantize ~block:24 v)

(* Single-domain Wilson hop on the workload's gauge field. *)
let wilson_hop ?(reps = 20) gauge =
  let geom = Lattice.Gauge.geom gauge in
  let vol = float_of_int (Lattice.Geometry.volume geom) in
  let w = Dirac.Wilson.of_geometry geom gauge in
  let n = Lattice.Geometry.volume geom * Dirac.Wilson.floats_per_site in
  let src = random_field 16 n and dst = Field.create n in
  probe "dirac.wilson_hop" ~reps
    ~flops:(vol *. float_of_int Flops.wilson_hop_per_site)
    ~bytes:(vol *. (Pm.link_bytes_per_site +. Pm.spinor_bytes_per_site))
    (fun () -> Dirac.Wilson.hop w ~src ~dst)

(* Overlapped domain-decomposed hop and a bare halo exchange on the
   workload's decomposition; message and byte counts are exact. *)
let vrank (dd : Vrank.Dd_wilson.t) ~reps =
  let comm = Vrank.Dd_wilson.comm dd in
  let dom = dd.Vrank.Dd_wilson.dom in
  let geom = Lattice.Domain.global dom in
  let vol = float_of_int (Lattice.Geometry.volume geom) in
  let fps = Dirac.Wilson.floats_per_site in
  let fields = Vrank.Comm.create_fields comm in
  Vrank.Comm.scatter comm (random_field 17 (Lattice.Geometry.volume geom * fps)) fields;
  let dsts =
    Array.init (Lattice.Domain.n_ranks dom) (fun r ->
        Field.create ((Lattice.Domain.rank_geometry dom r).Lattice.Domain.local_volume * fps))
  in
  let stats = Vrank.Comm.stats comm in
  (* exact message and wire-byte counts of the probe's calls *)
  let counted name ~flops ~bytes f =
    let m0 = stats.Vrank.Comm.messages and b0 = stats.Vrank.Comm.bytes in
    probe name ~reps ~flops ~bytes f ~after:(fun () ->
        Spans.count "messages" (float_of_int (stats.Vrank.Comm.messages - m0));
        Spans.count "wire_bytes" (stats.Vrank.Comm.bytes -. b0))
  in
  let hop =
    counted "vrank.hop_overlapped"
      ~flops:(vol *. float_of_int Flops.wilson_hop_per_site)
      ~bytes:(vol *. (Pm.link_bytes_per_site +. Pm.spinor_bytes_per_site))
      (fun () -> Vrank.Dd_wilson.hop_overlapped dd ~fields ~dsts)
  in
  let halo =
    counted "vrank.halo_exchange" ~flops:0. ~bytes:0. (fun () ->
        Vrank.Comm.halo_exchange comm fields)
  in
  (hop, halo)
