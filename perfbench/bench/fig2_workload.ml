(* fig2_double: the paper's Fig 2 pipeline per gauge configuration —
   Möbius domain-wall operator, 12 propagator columns plus 12
   Feynman–Hellmann solves, contractions, an H5lite archive saved and
   reloaded, and the analysis — exactly as [Core.Workflow.run] performs
   it, on a 4⁴ × L5=4 lattice in double precision.

   Set-up is the workflow's "load/generate gluonic field" stage: the
   configuration [Core.Workflow.run] generates at its default seed,
   then a random gauge transformation drawn from --seed. Every seed so
   poses the same physical problem in different link values: the
   solver sees the same spectrum (the same iteration counts up to
   rounding) and the gauge-invariant outputs — plaquette, correlators,
   g_eff — agree with the goldens at every seed. Drawing a fresh
   configuration per seed instead would move the iteration count by
   ±25% on this 4⁴ lattice and swamp any change under test.

   [measure] is the per-configuration measurement, call by call through
   the public functions [Core.Workflow] uses. An untraced pass runs it
   on the set-up's field with every call timed as a step; the traced
   run runs it with every call in a span, after the workflow's own
   gauge generation, and must reproduce [Core.Workflow.run] bit for
   bit. *)

module Workflow = Core.Workflow
module Propagator = Physics.Propagator
module Source = Physics.Source
module Dwf = Solver.Dwf_solve
module H5 = Qio.H5lite

let default_seed = Workflow.default_spec.Workflow.seed

let spec ~archive =
  {
    Workflow.default_spec with
    Workflow.dims = [| 4; 4; 4; 4 |];
    l5 = 4;
    mass = 0.1;
    precision = Dwf.Double;
    n_configs = 1;
    n_thermalize = 10;
    n_decorrelate = 4;
    seed = default_seed;
    io_path = Some archive;
  }

(* The paper's production solve: Mixed double-half at mass 0.02. The
   traced run solves one column with it on the workflow's
   configuration, which measures the reliable updates. *)
let mixed_spec s = { s with Workflow.mass = 0.02; precision = Dwf.Mixed Solver.Mixed.default_config }

let schedule (s : Workflow.spec) =
  {
    Lattice.Heatbath.beta = s.Workflow.beta;
    n_thermalize = s.Workflow.n_thermalize;
    n_decorrelate = s.Workflow.n_decorrelate;
    n_overrelax = 2;
  }

let n_sweeps (s : Workflow.spec) = s.Workflow.n_thermalize + s.Workflow.n_decorrelate

(* The configuration [Core.Workflow.run] generates for [s]. *)
let generate (s : Workflow.spec) =
  let rng = Util.Rng.create s.Workflow.seed in
  let geom = Lattice.Geometry.create s.Workflow.dims in
  let configs, _ = Lattice.Heatbath.generate rng (schedule s) geom ~n_configs:1 in
  configs.(0)

(* U_mu(x) -> Omega(x) U_mu(x) Omega(x+mu)^dagger with Haar-random
   Omega drawn from [seed]. *)
let gauge_transform ~seed gauge =
  let geom = Lattice.Gauge.geom gauge in
  let rng = Util.Rng.create seed in
  let omega = Array.init (Lattice.Geometry.volume geom) (fun _ -> Linalg.Su3.random rng) in
  let out = Lattice.Gauge.copy gauge in
  for site = 0 to Lattice.Geometry.volume geom - 1 do
    for mu = 0 to 3 do
      let u = Lattice.Gauge.get gauge site mu in
      let right = Linalg.Su3.adj omega.(Lattice.Geometry.fwd geom site mu) in
      Lattice.Gauge.set out site mu (Linalg.Su3.mul omega.(site) (Linalg.Su3.mul u right))
    done
  done;
  out

let build_solver (s : Workflow.spec) gauge =
  let params =
    Dirac.Mobius.mobius ~l5:s.Workflow.l5 ~m5:s.Workflow.m5 ~alpha:s.Workflow.alpha
      ~mass:s.Workflow.mass
  in
  Dwf.create params (Lattice.Gauge.geom gauge) (Lattice.Gauge.with_antiperiodic_time gauge)

(* ---- physics outputs ---- *)

type outputs = {
  plaquette : float;
  pion : float array;
  proton : float array;
  proton_fh : float array;
  m_eff : float array;
  pion_mass : float * float;
  geff : float array;
}

(* The workflow's analysis over its (single-configuration) ensemble. *)
let analyse ~plaquette ~pion ~proton ~proton_fh =
  let nt = Array.length pion in
  let mean1 c = Array.init nt (fun t -> Util.Stats.mean [| c.(t) |]) in
  let m_eff = Physics.Analysis.effective_mass (mean1 pion) in
  let mid = Array.sub m_eff (nt / 4) (max 1 (nt / 4)) in
  let pion_mass = (Util.Stats.mean mid, Util.Stats.std ~ddof:0 mid) in
  let geff = Physics.Fh.effective_coupling ~c2:(mean1 proton) ~c_fh:(mean1 proton_fh) in
  { plaquette; pion; proton; proton_fh; m_eff; pion_mass; geff }

let digest o =
  Measure.digest_floats
    [
      [| o.plaquette; fst o.pion_mass; snd o.pion_mass |];
      o.pion;
      o.proton;
      o.proton_fh;
      o.m_eff;
      o.geff;
    ]

let check_outputs name o =
  Measure.check
    (List.for_all Measure.all_finite [ o.pion; o.proton; o.proton_fh ])
    "%s: non-finite correlator" name;
  Measure.check
    (Measure.all_finite o.geff && Float.is_finite (fst o.pion_mass))
    "%s: non-finite analysis value" name

let correlator_paths = [ "cfg0/pion"; "cfg0/proton"; "cfg0/proton_fh" ]

let write_archive archive (cs : float array list) =
  let h5 = H5.create () in
  List.iter2 (fun path c -> H5.write_correlator h5 ~path c) correlator_paths cs;
  H5.save h5 archive

(* Reload the archive (CRC-verified by [H5lite.load]) and require the
   correlators back bit-equal. *)
let reload_matches name archive (cs : float array list) =
  match H5.load archive with
  | h5 ->
    let back = List.map (fun path -> H5.read_correlator h5 ~path) correlator_paths in
    Measure.check
      (back = List.map Option.some cs
      && Measure.digest_floats (List.filter_map Fun.id back) = Measure.digest_floats cs)
      "%s: archive did not reload bit-equal" name
  | exception H5.Corrupt msg -> Measure.check false "%s: archive corrupt on reload: %s" name msg

(* ---- the pipeline ---- *)

let fh_rhs solver column =
  let l5 = (Dwf.params_of solver).Dirac.Mobius.l5 in
  Source.to_5d ~l5 (Dwf.geom_of solver)
    (Source.apply_spin_matrix Physics.Fh.axial_matrix column)

let point_rhs solver c =
  let l5 = (Dwf.params_of solver).Dirac.Mobius.l5 in
  let geom = Dwf.geom_of solver in
  Source.to_5d ~l5 geom (Source.point geom ~site:0 ~spin:(c / 3) ~color:(c mod 3))

(* The propagator and FH columns whose true residual is checked,
   chosen by the seed. *)
let sampled_columns seed = (seed mod 12, (seed + 5) mod 12)

(* The per-configuration measurement on [gauge]: the Möbius operator,
   the 12 point-source columns as [Propagator.point_propagator] solves
   them, the 12 FH solves as [Fh.fh_propagator] does them, the
   contractions, the archive write and CRC-checked reload, and the
   analysis, every call wrapped by [w]. Every solve must converge.
   Returns the outputs, the solver, the propagator and the
   (name, column, x, rhs) of the [sampled] columns. *)
let measure (s : Workflow.spec) ~archive ~sampled (w : Measure.wrap) gauge =
  let precision = s.Workflow.precision and tol = s.Workflow.tol in
  let solver =
    w.stage "operator" (fun () -> w.step "dirac.operator_build" (fun () -> build_solver s gauge))
  in
  let geom = Dwf.geom_of solver and l5 = s.Workflow.l5 in
  let c_prop, c_fh = sampled in
  let samples = ref [] in
  let solve name c ~sample rhs =
    let column, st =
      w.step "solver.solve" (fun () ->
          let rhs = rhs () in
          let x, st = Dwf.solve ~precision ~tol solver ~rhs in
          Spans.count "iterations" (float_of_int st.Solver.Cg.iterations);
          Spans.count "flops" st.Solver.Cg.flops;
          Spans.count "reliable_updates" (float_of_int st.Solver.Cg.reliable_updates);
          if sample then samples := (name, c, x, rhs) :: !samples;
          (Source.to_4d ~l5 geom x, st))
    in
    Measure.check st.Solver.Cg.converged "fig2: %s column %d did not converge" name c;
    (column, st)
  in
  let prop, fh =
    w.stage "propagators" (fun () ->
        let solved =
          Array.init 12 (fun c ->
              solve "propagator" c ~sample:(c = c_prop) (fun () -> point_rhs solver c))
        in
        let prop =
          {
            Propagator.geom;
            columns = Array.map fst solved;
            midpoint = None;
            stats = Array.to_list (Array.map snd solved);
          }
        in
        let fh_columns =
          Array.mapi
            (fun c column -> fst (solve "fh" c ~sample:(c = c_fh) (fun () -> fh_rhs solver column)))
            prop.Propagator.columns
        in
        (prop, { prop with Propagator.columns = fh_columns }))
  in
  let pion, proton, proton_fh, plaquette =
    w.stage "contractions" (fun () ->
        let pion = w.step "physics.contract" (fun () -> Physics.Contract.pion prop) in
        let proton =
          w.step "physics.contract" (fun () -> Physics.Contract.proton ~up:prop ~down:prop ())
        in
        let proton_fh =
          w.step "physics.contract" (fun () ->
              Physics.Fh.fh_proton_correlator ~up:prop ~down:prop ~fh_up:fh ~fh_down:fh)
        in
        let plaquette =
          w.step "lattice.plaquette" (fun () -> Lattice.Gauge.average_plaquette gauge)
        in
        (pion, proton, proton_fh, plaquette))
  in
  let cs = [ pion; proton; proton_fh ] in
  w.stage "io" (fun () ->
      w.step "qio.write" (fun () ->
          write_archive archive cs;
          Spans.count "file_bytes" (float_of_int (Unix.stat archive).Unix.st_size));
      w.step "qio.read" (fun () ->
          Spans.count "file_bytes" (float_of_int (Unix.stat archive).Unix.st_size);
          reload_matches "fig2" archive cs));
  let out =
    w.stage "analysis" (fun () ->
        w.step "physics.analysis" (fun () -> analyse ~plaquette ~pion ~proton ~proton_fh))
  in
  check_outputs "fig2" out;
  (out, solver, prop, List.rev !samples)

(* ---- checks ---- *)

(* |D x − rhs|/|rhs| may exceed the CG tolerance, which bounds the
   normal-equation residual of the even/odd system; this is the bound a
   converged column must meet. *)
let residual_bound (s : Workflow.spec) = 100. *. s.Workflow.tol

let check_samples s solver samples =
  List.iter
    (fun (name, c, x, rhs) ->
      let res = Dwf.residual solver ~x ~rhs in
      Printf.printf "%s column %d: true residual %.3e\n" name c res;
      Measure.check
        (Float.is_finite res && res <= residual_bound s)
        "%s column %d: true residual %.3e exceeds %.1e" name c res (residual_bound s))
    samples

let print_outputs o =
  let row a = String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%.17g") a)) in
  Printf.printf "plaquette: %.17g\npion: [| %s |]\nm_eff: [| %s |]\ng_eff: [| %s |]\n"
    o.plaquette (row o.pion) (row o.m_eff) (row o.geff)

(* The outputs are gauge invariant, so the goldens hold at every seed. *)
let check_goldens (o : outputs) =
  let g = Goldens.fig2 in
  let close ~tol name a b =
    Measure.check
      (Array.length a = Array.length b
      && Array.for_all2 (fun x y -> Float.abs (x -. y) <= tol *. Float.max 1. (Float.abs y)) a b)
      "golden %s outside %.0e" name tol
  in
  close ~tol:Goldens.plaquette_tol "plaquette" [| o.plaquette |] [| g.Goldens.plaquette |];
  close ~tol:Goldens.correlator_tol "pion correlator" o.pion g.Goldens.pion;
  close ~tol:Goldens.correlator_tol "effective mass" o.m_eff g.Goldens.m_eff;
  close ~tol:Goldens.correlator_tol "g_eff" o.geff g.Goldens.geff

(* ---- the untraced run ---- *)

let run_untraced ~seed ~seconds ~out_dir =
  let archive = Filename.concat out_dir (Printf.sprintf "fig2-%d.nfh5" seed) in
  let s = spec ~archive in
  let gauge_digest g = Measure.digest_field (Lattice.Gauge.data g) in
  let last = ref None in
  let run =
    Measure.run ~seconds ~per_core:1
      ~same:(fun a b -> gauge_digest a = gauge_digest b)
      (fun () -> gauge_transform ~seed (generate s))
      (fun gauge ->
        let r = Measure.recorder () in
        let out, solver, prop, samples =
          measure s ~archive ~sampled:(sampled_columns seed) (Measure.timed r) gauge
        in
        last := Some (out, solver, prop, samples);
        { Measure.steps = Measure.steps r; digest = digest out })
  in
  Measure.check_passes_identical "fig2" run.Measure.passes;
  let out, solver, prop, samples = Option.get !last in
  print_outputs out;
  Printf.printf "propagator CG iterations: %d\n" (Propagator.total_iterations prop);
  check_samples s solver samples;
  check_goldens out;
  Sys.remove archive;
  run

(* ---- the traced run ---- *)

(* [Core.Workflow.run] itself plus the archive reload: the untraced
   reference the traced pipeline must reproduce. *)
let workflow_reference (s : Workflow.spec) ~archive =
  let r = Workflow.run ~spec:s () in
  let m = r.Workflow.measurements.(0) in
  let cs = [ m.Workflow.pion; m.Workflow.proton; m.Workflow.proton_fh ] in
  reload_matches "workflow" archive cs;
  let o =
    analyse ~plaquette:m.Workflow.plaquette ~pion:m.Workflow.pion ~proton:m.Workflow.proton
      ~proton_fh:m.Workflow.proton_fh
  in
  Measure.check (o.pion_mass = r.Workflow.pion_mass && o.geff = r.Workflow.geff)
    "fig2: the workflow's own analysis differs from the benchmark's";
  o

(* Untraced reference runs: the median of their wall times is the base
   of trace.overhead_frac. *)
let reference_runs = 3

let run_traced ~seed ~out_dir =
  let archive = Filename.concat out_dir (Printf.sprintf "fig2-%d.nfh5" seed) in
  let s = spec ~archive in
  let refs =
    List.init reference_runs (fun _ -> Measure.time (fun () -> workflow_reference s ~archive))
  in
  let reference = fst (List.hd refs) in
  List.iter
    (fun (o, _) ->
      Measure.check (digest o = digest reference) "fig2: Core.Workflow.run did not repeat bit for bit")
    (List.tl refs);
  Spans.reset ();
  let (out, solver, gauge, samples), traced_wall =
    Measure.time (fun () ->
        Spans.span "core.pipeline" (fun () ->
            let gauge =
              Spans.wrap.Measure.stage "gauge" (fun () ->
                  Spans.span "lattice.heatbath" (fun () ->
                      Spans.count "sweeps" (float_of_int (n_sweeps s));
                      generate s))
            in
            let out, solver, _, samples =
              measure s ~archive ~sampled:(sampled_columns seed) Spans.wrap gauge
            in
            (out, solver, gauge, samples)))
  in
  Sys.remove archive;
  Measure.check (digest out = digest reference)
    "fig2: traced run did not reproduce Core.Workflow.run bit for bit";
  check_samples s solver samples;
  check_goldens out;
  Spans.span "bench.mixed_probe" (fun () ->
      let s_mixed = mixed_spec s in
      let solver = build_solver s_mixed gauge in
      Spans.span "solver.mixed_solve" (fun () ->
          let _, st =
            Dwf.solve ~precision:s_mixed.Workflow.precision ~tol:s_mixed.Workflow.tol solver
              ~rhs:(point_rhs solver 0)
          in
          Measure.check st.Solver.Cg.converged "fig2: mixed probe solve did not converge";
          Spans.count "iterations" (float_of_int st.Solver.Cg.iterations);
          Spans.count "reliable_updates" (float_of_int st.Solver.Cg.reliable_updates)));
  let n = Dirac.Mobius.eo_field_length solver.Dwf.eo in
  let fermion_gauge = Lattice.Gauge.with_antiperiodic_time gauge in
  let probes =
    Spans.span "bench.probes" (fun () ->
        let schur = Probes.schur_normal solver in
        let tail = Probes.cg_tail n in
        let quant = Probes.quantize n in
        let hop = Probes.wilson_hop fermion_gauge in
        let dd =
          Vrank.Dd_wilson.create
            (Lattice.Domain.create (Lattice.Gauge.geom gauge) [| 1; 1; 2; 2 |])
            fermion_gauge
        in
        let vhop, halo = Probes.vrank dd ~reps:20 in
        { Layers.schur; tail; quant; hop; vhop; halo })
  in
  Layers.metrics ~untraced_wall:(Measure.median (List.map snd refs)) ~traced_wall probes
