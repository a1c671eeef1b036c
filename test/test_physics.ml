(* Tests for Physics: sources, contractions, the Feynman-Hellmann
   machinery (free-field axial charge), and the calibrated synthetic
   ensemble that backs Fig 1. *)

module Geometry = Lattice.Geometry
module Gauge = Lattice.Gauge
module Field = Linalg.Field
module Cplx = Linalg.Cplx
module Src = Physics.Source
module Prop = Physics.Propagator
module Contract = Physics.Contract
module Fh = Physics.Fh
module Synth = Physics.Synth
module Analysis = Physics.Analysis

let rng () = Util.Rng.create 1234

let test_point_source_normalized () =
  let geom = Geometry.create [| 2; 2; 2; 4 |] in
  let s = Src.point geom ~site:3 ~spin:2 ~color:1 in
  Alcotest.(check (float 0.)) "unit norm" 1. (Field.norm2 s);
  Alcotest.(check (float 0.)) "right slot" 1.
    (Bigarray.Array1.get s ((3 * 24) + (((2 * 3) + 1) * 2)))

let test_wall_source_support () =
  let geom = Geometry.create [| 2; 2; 2; 4 |] in
  let s = Src.wall geom ~t:2 ~spin:0 ~color:0 in
  Alcotest.(check (float 0.)) "one per spatial site" 8. (Field.norm2 s)

let test_5d_4d_maps_inverse_on_walls () =
  (* to_4d . to_5d restores the 4D field (the walls carry disjoint
     chiralities). *)
  let geom = Geometry.create [| 2; 2; 2; 4 |] in
  let r = rng () in
  let eta = Field.create (Geometry.volume geom * 24) in
  Field.gaussian r eta;
  let b5 = Src.to_5d ~l5:6 geom eta in
  (* walls only: slice 0 holds P+ eta, slice 5 holds P- eta; to_4d
     reads the OPPOSITE projections, so compose with swapped walls *)
  let q = Src.to_4d ~l5:6 geom b5 in
  (* q = P- B(0) + P+ B(l5-1) = P- P+ eta + P+ P- eta = 0 *)
  Alcotest.(check (float 0.)) "chiral walls disjoint" 0. (Field.norm2 q);
  (* and the 5D source carries exactly the full norm of eta *)
  Alcotest.(check (float 1e-12)) "norm preserved" (Field.norm2 eta) (Field.norm2 b5)

let test_apply_spin_matrix_matches_gamma () =
  let geom = Geometry.create [| 2; 2; 2; 2 |] in
  let r = rng () in
  let v = Field.create (Geometry.volume geom * 24) in
  Field.gaussian r v;
  for mu = 0 to 3 do
    let via_matrix = Src.apply_spin_matrix (Dirac.Gamma.matrix mu) v in
    let via_action = Field.create (Field.length v) in
    for site = 0 to Geometry.volume geom - 1 do
      Dirac.Gamma.apply_site Dirac.Gamma.gammas.(mu) v (site * 24) via_action (site * 24)
    done;
    Alcotest.(check (float 1e-12)) "matrix = action" 0.
      (Field.max_abs_diff via_matrix via_action)
  done

(* Shared tiny free-field setup for the solve-based tests (24 + 12
   solves: keep it as small as possible). *)
let free_setup =
  lazy
    (let geom = Geometry.create [| 4; 4; 4; 8 |] in
     let gauge = Gauge.unit geom in
     let params = Dirac.Mobius.mobius ~l5:6 ~m5:1.3 ~alpha:1.5 ~mass:0.2 in
     let solver = Solver.Dwf_solve.create params geom (Gauge.with_antiperiodic_time gauge) in
     let prop = Prop.point_propagator ~tol:1e-10 solver ~src_site:0 in
     let fh = Fh.fh_propagator ~tol:1e-10 solver prop in
     (geom, prop, fh))

let test_pion_correlator_positive_decaying () =
  let _, prop, _ = Lazy.force free_setup in
  let c = Contract.pion prop in
  Array.iter (fun x -> Alcotest.(check bool) "positive" true (x > 0.)) c;
  (* decays away from the source up to the midpoint *)
  let nt = Array.length c in
  for t = 1 to (nt / 2) - 1 do
    Alcotest.(check bool) (Printf.sprintf "decay at %d" t) true (c.(t) > c.(t + 1))
  done;
  (* approximately time-reflection symmetric *)
  for t = 1 to (nt / 2) - 1 do
    let a = c.(t) and b = c.(nt - t) in
    Alcotest.(check bool)
      (Printf.sprintf "symmetry at %d (%g vs %g)" t a b)
      true
      (abs_float (a -. b) /. (a +. b) < 0.05)
  done

let test_pion_effective_mass_sane () =
  let _, prop, _ = Lazy.force free_setup in
  let m_eff = Analysis.effective_mass (Contract.pion prop) in
  (* free pion of two mass-0.2 quarks: m_pi ~< 2 * single-quark energy;
     just require a sane positive value in the early plateau *)
  Alcotest.(check bool) (Printf.sprintf "m_eff(1) = %g" m_eff.(1)) true
    (m_eff.(1) > 0.2 && m_eff.(1) < 3.)

let test_proton_correlator_positive () =
  let _, prop, _ = Lazy.force free_setup in
  let c = Contract.proton ~up:prop ~down:prop () in
  for t = 0 to (Array.length c / 2) - 1 do
    Alcotest.(check bool) (Printf.sprintf "C(%d) > 0" t) true (c.(t) > 0.)
  done

let test_proton_heavier_than_pion () =
  let _, prop, _ = Lazy.force free_setup in
  let m_pi = (Analysis.effective_mass (Contract.pion prop)).(1) in
  let m_n =
    (Analysis.effective_mass (Contract.proton ~up:prop ~down:prop ())).(1)
  in
  Alcotest.(check bool)
    (Printf.sprintf "m_N %g > m_pi %g" m_n m_pi)
    true (m_n > m_pi)

let test_free_field_axial_coupling () =
  (* The full FH chain on the free field: g_eff must form an early
     plateau in (0.8, 5/3) — below the nonrelativistic quark-model
     value 5/3, reduced by the lower Dirac components. *)
  let _, prop, fh = Lazy.force free_setup in
  let c2 =
    Contract.proton ~projector:Contract.polarized_projector ~up:prop ~down:prop ()
  in
  let cfh = Fh.fh_proton_correlator ~up:prop ~down:prop ~fh_up:fh ~fh_down:fh in
  let geff = Fh.effective_coupling ~c2 ~c_fh:cfh in
  let plateau = (geff.(1) +. geff.(2)) /. 2. in
  Alcotest.(check bool)
    (Printf.sprintf "free gA plateau %g in (0.8, 1.67)" plateau)
    true
    (plateau > 0.8 && plateau < 5. /. 3.)

(* ---- sequential (traditional) insertion vs FH ---- *)

let tiny_solver =
  lazy
    (let geom = Geometry.create [| 2; 2; 2; 4 |] in
     let gauge = Gauge.warm geom (Util.Rng.create 808) ~eps:0.4 in
     let params = Dirac.Mobius.mobius ~l5:4 ~m5:1.8 ~alpha:1.5 ~mass:0.15 in
     let solver = Solver.Dwf_solve.create params geom (Gauge.with_antiperiodic_time gauge) in
     (geom, solver))

let test_sequential_sums_to_fh () =
  (* sum over insertion times of the timeslice-restricted solves equals
     the single FH solve (exact linearity) — the paper's "all the
     temporal distances for the cost of one" *)
  let geom, solver = Lazy.force tiny_solver in
  let prop = Prop.point_propagator ~tol:1e-11 solver ~src_site:0 in
  let fh = Fh.fh_propagator ~tol:1e-11 solver prop in
  let nt = Geometry.time_extent geom in
  let seqs =
    List.init nt (fun tau -> Fh.sequential_propagator ~tol:1e-11 solver ~tau prop)
  in
  (* compare column by column: sum_tau seq_tau = fh *)
  for col = 0 to 11 do
    let acc = Field.create (Field.length fh.Prop.columns.(col)) in
    List.iter (fun sq -> Field.axpy 1. sq.Prop.columns.(col) acc) seqs;
    let rel =
      Field.max_abs_diff acc fh.Prop.columns.(col)
      /. Float.max 1e-12 (sqrt (Field.norm2 fh.Prop.columns.(col)))
    in
    Alcotest.(check bool) (Printf.sprintf "col %d linearity (rel %g)" col rel)
      true (rel < 1e-6)
  done

let test_sequential_cost_ratio () =
  (* the economics: nt sequential solves vs 1 FH solve per column *)
  let geom, _ = Lazy.force tiny_solver in
  let nt = Geometry.time_extent geom in
  Alcotest.(check bool) "traditional needs nt solves per column" true (nt > 1)

(* ---- solve statistics and non-convergence ---- *)

let test_fh_stats_are_its_own_solves () =
  (* an FH propagator reports its own 12 solves, not the base
     propagator's: re-running each FH solve by hand gives the same
     iteration count *)
  let geom, solver = Lazy.force tiny_solver in
  let tol = 1e-10 in
  let prop = Prop.point_propagator ~tol solver ~src_site:0 in
  let fh = Fh.fh_propagator ~tol solver prop in
  let l5 = (Solver.Dwf_solve.params_of solver).Dirac.Mobius.l5 in
  let by_hand =
    Array.fold_left
      (fun acc column ->
        let rhs =
          Src.to_5d ~l5 geom (Src.apply_spin_matrix Fh.axial_matrix column)
        in
        let _, st = Solver.Dwf_solve.solve ~tol solver ~rhs in
        acc + st.Solver.Cg.iterations)
      0 prop.Prop.columns
  in
  Alcotest.(check int) "one stats entry per FH column" 12
    (List.length fh.Prop.stats);
  Alcotest.(check int) "FH iterations = its own solves'" by_hand
    (Prop.total_iterations fh)

let test_non_convergence_is_typed () =
  (* a configuration with one non-finite link (a corrupted read) can
     never converge: the first column's solve fails and the propagator
     refuses it, naming the column, instead of returning garbage *)
  let geom, solver = Lazy.force tiny_solver in
  let poisoned =
    let gauge = Gauge.warm geom (Util.Rng.create 808) ~eps:0.4 in
    Bigarray.Array1.set (Gauge.data gauge) 0 Float.nan;
    Solver.Dwf_solve.create (Solver.Dwf_solve.params_of solver) geom
      (Gauge.with_antiperiodic_time gauge)
  in
  let expect_column_0 what f =
    match f () with
    | (_ : Prop.t) -> Alcotest.failf "%s: expected Not_converged" what
    | exception Prop.Not_converged { column; stats } ->
      Alcotest.(check int) (what ^ ": column") 0 column;
      Alcotest.(check bool) (what ^ ": stats say unconverged") false
        stats.Solver.Cg.converged
  in
  expect_column_0 "propagator" (fun () ->
      Prop.point_propagator ~tol:1e-9 poisoned ~src_site:0);
  let prop = Prop.point_propagator ~tol:1e-9 solver ~src_site:0 in
  expect_column_0 "fh" (fun () -> Fh.fh_propagator ~tol:1e-9 poisoned prop);
  expect_column_0 "sequential" (fun () ->
      Fh.sequential_propagator ~tol:1e-9 poisoned ~tau:0 prop)

let test_sub_floor_tolerance_is_not_converged () =
  (* tol = 1e-30 is far below the double-precision floor: the
     recursive residual still reaches it, but the recomputed true
     residual stalls near 1e-15, so the solve must not claim
     convergence and the propagator must refuse the column *)
  let geom, solver = Lazy.force tiny_solver in
  let tol = 1e-30 in
  let rhs =
    Src.to_5d
      ~l5:(Solver.Dwf_solve.params_of solver).Dirac.Mobius.l5
      geom (Src.point geom ~site:0 ~spin:0 ~color:0)
  in
  let _, st = Solver.Dwf_solve.solve ~tol solver ~rhs in
  Alcotest.(check bool) "recurrence met tol" true
    (st.Solver.Cg.relative_residual <= tol);
  (match st.Solver.Cg.true_relative_residual with
  | Some r ->
    Alcotest.(check bool)
      (Printf.sprintf "true residual %g above the slack" r)
      true
      (r > Solver.Cg.true_residual_slack *. tol)
  | None -> Alcotest.fail "no true residual");
  Alcotest.(check bool) "not converged" false st.Solver.Cg.converged;
  match Prop.point_propagator ~tol solver ~src_site:0 with
  | (_ : Prop.t) -> Alcotest.fail "expected Not_converged"
  | exception Prop.Not_converged { column; stats } ->
    Alcotest.(check int) "column" 0 column;
    Alcotest.(check bool) "stats say unconverged" false
      stats.Solver.Cg.converged

(* ---- residual mass ---- *)

let test_residual_mass_positive_and_decreasing () =
  (* m_res measures chiral symmetry breaking at finite L5 and must
     shrink as L5 grows (free field, modest M5) *)
  let geom = Geometry.create [| 2; 2; 2; 4 |] in
  let gauge = Gauge.unit geom in
  let mres l5 =
    let params = Dirac.Mobius.shamir ~l5 ~m5:1.2 ~mass:0.05 in
    let solver = Solver.Dwf_solve.create params geom (Gauge.with_antiperiodic_time gauge) in
    let prop = Prop.point_propagator ~tol:1e-11 ~keep_midpoint:true solver ~src_site:0 in
    Prop.residual_mass prop
  in
  let m4 = mres 4 and m8 = mres 8 in
  Alcotest.(check bool) (Printf.sprintf "m_res(L5=4) = %g > 0" m4) true (m4 > 0.);
  Alcotest.(check bool)
    (Printf.sprintf "m_res decreases with L5: %g -> %g" m4 m8)
    true
    (m8 < m4)

let test_residual_mass_requires_midpoint () =
  let _, solver = Lazy.force tiny_solver in
  let prop = Prop.point_propagator ~tol:1e-9 solver ~src_site:0 in
  Alcotest.check_raises "needs midpoint"
    (Invalid_argument "Propagator.residual_mass: need keep_midpoint:true")
    (fun () -> ignore (Prop.residual_mass prop))

(* ---- meson channels ---- *)

let test_meson_pion_matches_contract () =
  let _, prop, _ = Lazy.force free_setup in
  let via_meson = Physics.Meson.correlator Physics.Meson.pion prop in
  let via_contract = Contract.pion prop in
  Array.iteri
    (fun t a ->
      let b = via_contract.(t) in
      Alcotest.(check bool)
        (Printf.sprintf "t=%d: %g vs %g" t a b)
        true
        (abs_float (a -. b) <= 1e-9 *. (1. +. abs_float b)))
    via_meson

let test_meson_channels_degenerate_when_free () =
  (* for non-interacting quarks the pion and rho are both two free
     quarks: their masses agree up to lattice spin artifacts *)
  let _, prop, _ = Lazy.force free_setup in
  let m_pi = (Analysis.effective_mass (Physics.Meson.correlator Physics.Meson.pion prop)).(1) in
  let m_rho =
    (Analysis.effective_mass (Physics.Meson.correlator (Physics.Meson.rho 2) prop)).(1)
  in
  Alcotest.(check bool)
    (Printf.sprintf "free m_rho %g ~ m_pi %g" m_rho m_pi)
    true
    (abs_float (m_rho -. m_pi) /. m_pi < 0.2);
  (* both correlators positive at small t *)
  let c_rho = Physics.Meson.correlator (Physics.Meson.rho 0) prop in
  for t = 0 to 3 do
    Alcotest.(check bool) "rho positive" true (c_rho.(t) > 0.)
  done

let test_meson_momentum_raises_energy () =
  let _, prop, _ = Lazy.force free_setup in
  let e0 =
    (Analysis.effective_mass (Physics.Meson.correlator ~k:[| 0; 0; 0 |] Physics.Meson.pion prop)).(1)
  in
  let e1 =
    (Analysis.effective_mass (Physics.Meson.correlator ~k:[| 1; 0; 0 |] Physics.Meson.pion prop)).(1)
  in
  Alcotest.(check bool) (Printf.sprintf "E(p) %g > E(0) %g" e1 e0) true (e1 > e0)

let test_meson_dispersion_shape () =
  (* the lattice dispersion helper is monotone in |k| and reduces to m
     at k = 0 *)
  let dims = [| 4; 4; 4; 8 |] in
  let m = 0.8 in
  let e0 = Physics.Meson.lattice_dispersion ~m ~k:[| 0; 0; 0 |] ~dims in
  let e1 = Physics.Meson.lattice_dispersion ~m ~k:[| 1; 0; 0 |] ~dims in
  let e2 = Physics.Meson.lattice_dispersion ~m ~k:[| 1; 1; 0 |] ~dims in
  Alcotest.(check (float 1e-9)) "E(0) = m" m e0;
  Alcotest.(check bool) "monotone" true (e1 > e0 && e2 > e1)

(* ---- synthetic ensemble (Fig 1 engine) ---- *)

let test_synth_mean_matches_model () =
  let p = Synth.a09m310 in
  let r = rng () in
  let c2s, _ = Synth.ensemble r p ~n:4000 in
  let mean = Analysis.ensemble_mean c2s in
  for t = 0 to 5 do
    let expect = Synth.c2_mean p (float_of_int t) in
    Alcotest.(check bool)
      (Printf.sprintf "C(%d) %g ~ %g" t mean.(t) expect)
      true
      (abs_float (mean.(t) -. expect) /. expect < 0.05)
  done

let test_synth_noise_grows_exponentially () =
  let p = Synth.a09m310 in
  let r = rng () in
  let c2s, _ = Synth.ensemble r p ~n:2000 in
  let err = Analysis.ensemble_error c2s in
  let mean = Analysis.ensemble_mean c2s in
  (* relative error grows with t (Parisi-Lepage) *)
  let rel t = err.(t) /. abs_float mean.(t) in
  Alcotest.(check bool)
    (Printf.sprintf "S/N degrades: rel(2)=%g rel(10)=%g" (rel 2) (rel 10))
    true
    (rel 10 > 4. *. rel 2)

let test_synth_geff_noiseless_matches_analytic () =
  let p = { Synth.a09m310 with Synth.noise0 = 0. } in
  let r = rng () in
  let c2, cfh = Synth.sample r p in
  let row = Array.append c2 cfh in
  let geff = Synth.geff_observable p row in
  for t = 0 to p.Synth.nt - 2 do
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "geff(%d)" t)
      (Synth.geff_mean p (float_of_int t))
      geff.(t)
  done

let test_synth_geff_approaches_ga () =
  let p = Synth.a09m310 in
  (* late-time limit of the noiseless effective coupling is g00 *)
  let late = Synth.geff_mean p 14. in
  Alcotest.(check bool)
    (Printf.sprintf "geff(14) = %g ~ gA" late)
    true
    (abs_float (late -. p.Synth.g00) < 0.01);
  (* and small-t contamination pulls it below *)
  Alcotest.(check bool) "contamination at t=1" true
    (Synth.geff_mean p 1. < p.Synth.g00 -. 0.02)

let test_fh_fit_recovers_ga_at_one_percent () =
  (* the headline statistical claim of Fig 1: FH with ~784 samples
     gives gA at ~1% *)
  let p = Synth.a09m310 in
  let r = rng () in
  let ens = Synth.ensemble r p ~n:784 in
  let samples = Synth.paired_samples ens in
  let fit =
    Analysis.fit_geff ~rng:r ~n_boot:100 samples
      ~observable:(Synth.geff_observable p) ~t_min:2 ~t_max:10
  in
  Alcotest.(check bool)
    (Printf.sprintf "gA = %g +- %g vs %g" fit.Analysis.ga fit.Analysis.ga_err
       p.Synth.g00)
    true
    (abs_float (fit.Analysis.ga -. p.Synth.g00) < 4. *. fit.Analysis.ga_err);
  Alcotest.(check bool)
    (Printf.sprintf "precision %.2f%% in (0.3, 3)" (100. *. fit.Analysis.ga_err /. fit.Analysis.ga))
    true
    (fit.Analysis.ga_err /. fit.Analysis.ga > 0.003
    && fit.Analysis.ga_err /. fit.Analysis.ga < 0.03)

let test_traditional_noisier_than_fh () =
  (* traditional estimator at t_sep = 12 with 10x the samples still
     has larger point errors than FH at small t *)
  let p = Synth.a09m310 in
  let r = rng () in
  let fh_ens = Synth.paired_samples (Synth.ensemble r p ~n:784) in
  let _, fh_err =
    Analysis.bootstrap_observable ~rng:r ~n_boot:100 fh_ens
      (Synth.geff_observable p)
  in
  let trad = Synth.traditional_ensemble r p ~n:7840 ~t_sep:12 in
  let trad_err = Analysis.ensemble_error trad in
  (* compare FH error where the fit reads the signal (t=4) with the
     traditional midpoint (tau = 6 of t_sep 12) *)
  Alcotest.(check bool)
    (Printf.sprintf "trad %g >> fh %g" trad_err.(6) fh_err.(4))
    true
    (trad_err.(6) > 3. *. fh_err.(4))

let test_traditional_bias_shrinks_with_tsep () =
  (* the traditional estimator's midpoint approaches gA as the sink
     separation grows (contamination ~ e^{-dE tsep/2}) — the reason
     traditional analyses are pushed to large, noisy separations *)
  let p = Synth.a09m310 in
  let r = rng () in
  let midpoint t_sep =
    let trad = Synth.traditional_ensemble r p ~n:40_000 ~t_sep in
    (Analysis.ensemble_mean trad).(t_sep / 2)
  in
  let dev6 = abs_float (midpoint 6 -. p.Synth.g00) in
  let dev12 = abs_float (midpoint 12 -. p.Synth.g00) in
  Alcotest.(check bool)
    (Printf.sprintf "bias shrinks: %.3f (tsep 6) -> %.3f (tsep 12)" dev6 dev12)
    true
    (dev12 < dev6);
  Alcotest.(check bool) "tsep 12 within 0.3" true (dev12 < 0.3)

let test_plateau_fit () =
  let mean = [| 1.0; 1.2; 1.25; 1.27; 1.268; 1.272; 1.27 |] in
  let err = Array.make 7 0.01 in
  let v, e = Analysis.fit_plateau ~mean ~err ~t_min:3 ~t_max:6 in
  Alcotest.(check bool) "plateau near 1.27" true (abs_float (v -. 1.27) < 0.01);
  Alcotest.(check bool) "error ~ 0.005" true (e > 0.003 && e < 0.008)

let suite =
  [
    Alcotest.test_case "point source" `Quick test_point_source_normalized;
    Alcotest.test_case "wall source" `Quick test_wall_source_support;
    Alcotest.test_case "5d/4d wall maps" `Quick test_5d_4d_maps_inverse_on_walls;
    Alcotest.test_case "spin matrix apply" `Quick test_apply_spin_matrix_matches_gamma;
    Alcotest.test_case "pion positive/decaying" `Slow test_pion_correlator_positive_decaying;
    Alcotest.test_case "pion effective mass" `Slow test_pion_effective_mass_sane;
    Alcotest.test_case "proton positive" `Slow test_proton_correlator_positive;
    Alcotest.test_case "proton heavier than pion" `Slow test_proton_heavier_than_pion;
    Alcotest.test_case "free-field axial coupling" `Slow test_free_field_axial_coupling;
    Alcotest.test_case "sequential sums to FH" `Slow test_sequential_sums_to_fh;
    Alcotest.test_case "sequential cost" `Quick test_sequential_cost_ratio;
    Alcotest.test_case "FH stats are its own solves" `Slow
      test_fh_stats_are_its_own_solves;
    Alcotest.test_case "sub-floor tolerance is not converged" `Slow
      test_sub_floor_tolerance_is_not_converged;
    Alcotest.test_case "non-convergence is typed" `Slow
      test_non_convergence_is_typed;
    Alcotest.test_case "residual mass vs L5" `Slow test_residual_mass_positive_and_decreasing;
    Alcotest.test_case "residual mass guard" `Slow test_residual_mass_requires_midpoint;
    Alcotest.test_case "meson pion = contract" `Slow test_meson_pion_matches_contract;
    Alcotest.test_case "meson channels free-degenerate" `Slow test_meson_channels_degenerate_when_free;
    Alcotest.test_case "meson momentum" `Slow test_meson_momentum_raises_energy;
    Alcotest.test_case "lattice dispersion" `Quick test_meson_dispersion_shape;
    Alcotest.test_case "synth mean" `Quick test_synth_mean_matches_model;
    Alcotest.test_case "synth noise growth" `Quick test_synth_noise_grows_exponentially;
    Alcotest.test_case "synth geff noiseless" `Quick test_synth_geff_noiseless_matches_analytic;
    Alcotest.test_case "synth geff limit" `Quick test_synth_geff_approaches_ga;
    Alcotest.test_case "FH 1% precision" `Slow test_fh_fit_recovers_ga_at_one_percent;
    Alcotest.test_case "traditional noisier" `Quick test_traditional_noisier_than_fh;
    Alcotest.test_case "traditional bias vs tsep" `Quick test_traditional_bias_shrinks_with_tsep;
    Alcotest.test_case "plateau fit" `Quick test_plateau_fit;
  ]
