(* The vrank/Comm halo layer's probe: [Vrank.Dd_solve.solve_normal] for
   the Wilson operator on 8⁴ at mass 0.2 over 4 virtual ranks (grid
   1×1×2×2), run one after another in this thread with staged transport
   and fine-grained halo completion. It runs in ensemble_io's traced
   run on a fixed input (the gauge field and source drawn from
   [seed], not from the workload's --seed), so its iteration and
   communication counts are the same in every run and are checked
   against the goldens. *)

module Field = Linalg.Field
module Comm = Vrank.Comm

let seed = 20_180_920
let dims = [| 8; 8; 8; 8 |]
let grid = [| 1; 1; 2; 2 |]
let mass = 0.2
let tol = 1e-8

type setup = {
  gauge : Lattice.Gauge.t;
  dd : Vrank.Dd_wilson.t;
  solver : Vrank.Dd_solve.t;
  b : Field.t;
}

(* The gauge field (warm start + one sweep), the decomposed operator and
   solver, and a Gaussian source. *)
let setup () =
  let rng = Util.Rng.create seed in
  let geom = Lattice.Geometry.create dims in
  let configs, _ =
    Lattice.Heatbath.generate rng
      { Lattice.Heatbath.beta = 5.7; n_thermalize = 1; n_decorrelate = 0; n_overrelax = 1 }
      geom ~n_configs:1
  in
  let gauge = configs.(0) in
  let dd = Vrank.Dd_wilson.create (Lattice.Domain.create geom grid) gauge in
  let solver = Vrank.Dd_solve.create dd ~mass in
  let b = Field.create (Lattice.Geometry.volume geom * Dirac.Wilson.floats_per_site) in
  Field.gaussian rng b;
  { gauge; dd; solver; b }

let check_comm st =
  let stats = Comm.stats (Vrank.Dd_wilson.comm st.dd) in
  Measure.check (stats.Comm.corruptions = 0) "dd_halo: %d halo corruptions" stats.Comm.corruptions;
  Measure.check (stats.Comm.send_buffer_races = 0) "dd_halo: %d send-buffer races"
    stats.Comm.send_buffer_races

(* One distributed solve on a fresh [setup] inside a "vrank.solve" span
   carrying its exact counts (the solver's and the communicator's
   totals, which on a fresh set-up are this solve's). Checks
   convergence, finiteness, the halo statistics and the golden
   counts. *)
let traced_solve st =
  let stats = Comm.stats (Vrank.Dd_wilson.comm st.dd) in
  let x, cg, exchanges =
    Spans.span "vrank.solve" (fun () ->
        let x, cg, `Exchanges ex, `Allreduces ar =
          Vrank.Dd_solve.solve_normal ~tol st.solver ~b_global:st.b
        in
        Spans.count "iterations" (float_of_int cg.Solver.Cg.iterations);
        Spans.count "flops" cg.Solver.Cg.flops;
        Spans.count "exchanges" (float_of_int ex);
        Spans.count "allreduces" (float_of_int ar);
        Spans.count "messages" (float_of_int stats.Comm.messages);
        Spans.count "wire_bytes" stats.Comm.bytes;
        (x, cg, ex))
  in
  Measure.check cg.Solver.Cg.converged "dd_halo: distributed solve did not converge";
  Measure.check (Measure.all_finite (Field.to_array x)) "dd_halo: non-finite solution";
  check_comm st;
  let g = Goldens.dd_halo in
  Measure.check
    (cg.Solver.Cg.iterations = g.Goldens.iterations
    && exchanges = g.Goldens.exchanges
    && stats.Comm.messages = g.Goldens.messages)
    "golden dd_halo counts: %d iterations, %d exchanges, %d messages" cg.Solver.Cg.iterations
    exchanges stats.Comm.messages;
  x

(* Single-domain CGNE on the same system: the oracle the distributed
   solve must agree with. *)
let single_domain st =
  let geom = Lattice.Gauge.geom st.gauge in
  let n = Field.length st.b in
  let w = Dirac.Wilson.of_geometry geom st.gauge in
  let apply src dst = Dirac.Wilson.apply w ~mass ~src ~dst in
  let g5 a =
    let o = Field.create n in
    Dirac.Gamma.apply_gamma5 a o;
    o
  in
  (* M† = γ5 M γ5 *)
  let apply_dagger src dst = apply (g5 src) dst; Field.blit (g5 dst) dst in
  let rhs = Field.create n in
  apply_dagger st.b rhs;
  let tmp = Field.create n in
  let apply_normal src dst = apply src tmp; apply_dagger tmp dst in
  let x, cg =
    Solver.Cg.solve ~apply:apply_normal ~b:rhs ~tol ~max_iter:5000
      ~flops_per_apply:
        (2. *. float_of_int (Lattice.Geometry.volume geom * Dirac.Flops.wilson_apply_per_site))
      ()
  in
  (x, cg)

let check_against_single_domain st x =
  let x1, cg = single_domain st in
  Measure.check cg.Solver.Cg.converged "dd_halo: single-domain CGNE did not converge";
  let d = Field.create (Field.length x) in
  Field.sub x x1 d;
  let rel = sqrt (Field.norm2 d /. Field.norm2 x1) in
  Measure.check (rel <= 1e-6) "dd_halo: distributed solve differs from single-domain CGNE by %.2e" rel
