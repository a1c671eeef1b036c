(* The per-layer metrics of a traced run, read off the recorded spans
   and the kernel probes. A stage a workload never enters reports 0 s
   and 0 counts (it spent nothing there); the kernel probes run on
   every workload's own lattice, so their per-call times are always
   measured. *)

type probes = {
  schur : Probes.t;  (** Möbius S†S apply *)
  tail : Probes.t;  (** fused CG tail *)
  quant : Probes.t;  (** half-precision round trip *)
  hop : Probes.t;  (** single-domain Wilson hop *)
  vhop : Probes.t;  (** overlapped domain-decomposed hop *)
  halo : Probes.t;  (** bare halo exchange *)
}

(* Wall time of the root span not covered by a stage span. *)
let unattributed () =
  let spans = Spans.all () in
  let root = List.find (fun s -> s.Spans.name = "core.pipeline") spans in
  let staged =
    List.fold_left
      (fun acc s ->
        if s.Spans.parent = root.Spans.id && Spans.layer_of s.Spans.name = "stage" then
          acc +. Spans.duration s
        else acc)
      0. spans
  in
  (Spans.duration root, Spans.duration root -. staged)

let minor_mwords name =
  List.fold_left (fun acc s -> acc +. s.Spans.minor_words) 0. (Spans.named name) /. 1e6

let major_gcs name =
  float_of_int (List.fold_left (fun acc s -> acc + s.Spans.major_gcs) 0 (Spans.named name))

let mbs ~bytes ~seconds = if seconds > 0. then bytes /. 1e6 /. seconds else 0.

let metrics ~untraced_wall ~traced_wall (p : probes) =
  let m = Measure.metric in
  let root_wall, unattributed = unattributed () in
  Measure.check
    (Float.abs (root_wall -. traced_wall) <= 0.01 *. traced_wall)
    "trace: stage spans plus unattributed time (%.4f s) do not account for the traced wall (%.4f s)"
    root_wall traced_wall;
  let hb_s = Spans.total "lattice.heatbath" in
  let sweeps = Spans.sum_counter "lattice.heatbath" "sweeps" in
  let solve_s = Spans.total "solver.solve" in
  let iters = Spans.sum_counter "solver.solve" "iterations" in
  let column_ms =
    Measure.median (List.map (fun s -> Spans.duration s *. 1e3) (Spans.named "solver.solve"))
  in
  let write_s = Spans.total "qio.write" and read_s = Spans.total "qio.read" in
  let vsolve_s = Spans.total "vrank.solve" in
  let exchanges = Spans.sum_counter "vrank.solve" "exchanges" in
  [
    m "lattice.heatbath_s" "s" hb_s;
    m "lattice.sweep_ms" "ms" (if sweeps > 0. then hb_s *. 1e3 /. sweeps else 0.);
    m "lattice.alloc_mwords" "Mword" (minor_mwords "lattice.heatbath");
    m "solver.solve_s" "s" solve_s;
    m "solver.column_ms_p50" "ms" (if Float.is_nan column_ms then 0. else column_ms);
    m "solver.cg_iters" "count" iters;
    m "solver.flops" "flop" (Spans.sum_counter "solver.solve" "flops");
    m "solver.alloc_mwords" "Mword" (minor_mwords "solver.solve");
    m "solver.major_gcs" "count" (major_gcs "solver.solve");
    m "solver.reliable_updates" "count"
      (Spans.sum_counter "solver.solve" "reliable_updates"
      +. Spans.sum_counter "solver.mixed_solve" "reliable_updates");
    m "linalg.quantize_ms" "ms" p.quant.Probes.ms;
    m "linalg.cg_tail_ms" "ms" p.tail.Probes.ms;
    m "linalg.cg_tail_gbs" "GB/s" (Probes.gbytes p.tail);
    m "dirac.schur_normal_ms" "ms" p.schur.Probes.ms;
    m "dirac.schur_normal_gflops" "GF/s" (Probes.gflops p.schur);
    m "dirac.apply_share" "frac"
      (if solve_s > 0. then iters *. p.schur.Probes.ms *. 1e-3 /. solve_s else 0.);
    m "dirac.wilson_hop_ms" "ms" p.hop.Probes.ms;
    m "physics.contract_s" "s" (Spans.total "physics.contract");
    m "physics.fit_s" "s" (Spans.total "physics.analysis" +. Spans.total "physics.fit");
    m "qio.write_s" "s" write_s;
    m "qio.read_s" "s" read_s;
    m "qio.write_mbs" "MB/s" (mbs ~bytes:(Spans.sum_counter "qio.write" "file_bytes") ~seconds:write_s);
    m "qio.read_mbs" "MB/s" (mbs ~bytes:(Spans.sum_counter "qio.read" "file_bytes") ~seconds:read_s);
    m "vrank.solve_s" "s" vsolve_s;
    m "vrank.hop_overlapped_ms" "ms" p.vhop.Probes.ms;
    m "vrank.halo_exchange_ms" "ms" p.halo.Probes.ms;
    m "vrank.halo_share" "frac"
      (if vsolve_s > 0. then exchanges *. p.halo.Probes.ms *. 1e-3 /. vsolve_s else 0.);
    m "vrank.exchanges" "count" exchanges;
    m "vrank.messages" "count" (Spans.sum_counter "vrank.solve" "messages");
    m "vrank.mbytes" "MB" (Spans.sum_counter "vrank.solve" "wire_bytes" /. 1e6);
    m "vrank.allreduces" "count" (Spans.sum_counter "vrank.solve" "allreduces");
    m "core.unattributed_s" "s" unattributed;
    m "trace.overhead_frac" "frac" ((traced_wall -. untraced_wall) /. untraced_wall);
  ]
