(* Umbrella entry point: one call per artifact class, plus the
   standard suite that verifies the repo's shipped example artifacts —
   the campaign the examples build, the overlapped halo schedules the
   domain-decomposed solver runs, the default workflow spec, and an
   instrumented mixed-precision solve. bin/neutron_check drives this;
   `dune build @check` and the test suite gate on it. *)

module F = Linalg.Field

(* check.ml is the library's main module: re-export the passes so
   users see Check.Diagnostic, Check.Dag_check, ... *)
module Diagnostic = Diagnostic
module Dag_check = Dag_check
module Halo_check = Halo_check
module Numeric_check = Numeric_check
module Spec_check = Spec_check
module Pool_check = Pool_check
module Fuse_check = Fuse_check
module Mrhs_check = Mrhs_check
module Recon_check = Recon_check
module Deflate_check = Deflate_check
module Plan_ir = Plan_ir
module Plan_extract = Plan_extract
module Plan_check = Plan_check
module Fixtures = Fixtures

(* ---- pass aliases ---- *)

let campaign = Dag_check.verify
let halo_schedule = Halo_check.verify_schedule
let halo_audit = Halo_check.audit
let field_finite = Numeric_check.check_finite
let half_blocks = Numeric_check.half_blocks
let probe_mixed_solve = Numeric_check.probe_mixed_solve
let workflow_spec = Spec_check.workflow_spec
let mixed_config = Spec_check.mixed_config
let recon_gauge = Recon_check.verify_gauge
let deflate_space = Deflate_check.verify_space
let solver_plan = Plan_check.verify

let all_rules =
  [
    ("campaign", Dag_check.rules);
    ("halo", Halo_check.rules);
    ("numeric", Numeric_check.rules);
    ("spec", Spec_check.rules);
    ("pool", Pool_check.rules);
    ("fuse", Fuse_check.rules);
    ("mrhs", Mrhs_check.rules);
    ("recon", Recon_check.rules);
    ("deflate", Deflate_check.rules);
    ("plan", Plan_check.rules);
  ]

(* ---- the shipped-example artifacts, verified ---- *)

let standard_suite ?(seed = 20_180_920) () : Diagnostic.report =
  let rng = Util.Rng.create seed in
  (* the co-scheduling campaign of examples/job_manager and Fig 6 *)
  let tasks =
    Jobman.Pipeline.campaign ~batch:4 ~n_props:64 ~prop_nodes:4 ~duration:600.
      rng
  in
  let campaign_ds = Dag_check.verify ~n_nodes:32 tasks in
  (* the halo-exchange patterns Dd_wilson runs: simple and overlapped *)
  let geom = Lattice.Geometry.create [| 4; 4; 4; 4 |] in
  let dom = Lattice.Domain.create geom [| 2; 2; 1; 1 |] in
  let halo_ds =
    Halo_check.verify_schedule dom
      [
        Halo_check.Scatter;
        Halo_check.Exchange None;
        Halo_check.Stencil Halo_check.Full;
      ]
    @ Halo_check.verify_schedule dom
        [
          Halo_check.Scatter;
          Halo_check.Stencil Halo_check.Interior;
          Halo_check.Exchange None;
          Halo_check.Stencil Halo_check.Boundary;
        ]
    @ (* the fine-grained interleaving Dd_wilson.hop_overlapped runs:
         post all, interior while in flight, then per-face complete +
         boundary sub-stencils reading only completed faces *)
    Halo_check.verify_schedule dom
      [
        Halo_check.Scatter;
        Halo_check.Post None;
        Halo_check.Stencil Halo_check.Interior;
        Halo_check.Complete (Some [| 0 |]);
        Halo_check.Complete (Some [| 1 |]);
        Halo_check.Stencil_faces [| 0; 1 |];
        Halo_check.Complete (Some [| 2; 3 |]);
        Halo_check.Stencil_faces [| 0; 1; 2; 3 |];
        Halo_check.Complete (Some [| 4; 5; 6; 7 |]);
        Halo_check.Stencil Halo_check.Boundary;
      ]
    @ (* the transport dimension, used honestly: a double-buffered
         schedule whose write really races a post (the copy earns its
         keep — no HALO008/011/012), and a zero-copy schedule that
         completes before writing (no corruption window) *)
    Halo_check.verify_schedule ~transport:Machine.Transport.Double_buffered dom
      [
        Halo_check.Scatter;
        Halo_check.Post None;
        Halo_check.Write [ 0 ];
        Halo_check.Complete None;
        Halo_check.Exchange None;
        Halo_check.Stencil Halo_check.Full;
      ]
    @ Halo_check.verify_schedule ~transport:Machine.Transport.Zero_copy
        ~policy:
          { Machine.Policy.transfer = Machine.Policy.Zero_copy;
            granularity = Machine.Policy.Fine }
        dom
        [
          Halo_check.Scatter;
          Halo_check.Post None;
          Halo_check.Stencil Halo_check.Interior;
          Halo_check.Complete None;
          Halo_check.Stencil Halo_check.Boundary;
        ]
  in
  (* a live Comm run through scatter + exchange must audit clean *)
  let audit_ds =
    let comm = Vrank.Comm.create dom ~dof:24 in
    let global = F.create (Lattice.Geometry.volume geom * 24) in
    F.gaussian rng global;
    let fields = Vrank.Comm.create_fields comm in
    Vrank.Comm.scatter comm global fields;
    Vrank.Comm.halo_exchange comm fields;
    Halo_check.audit comm
  in
  (* the default workflow spec, in double and mixed precision *)
  let spec_ds =
    Spec_check.workflow_spec Core.Workflow.default_spec
    @ Spec_check.workflow_spec
        {
          Core.Workflow.default_spec with
          Core.Workflow.precision =
            Solver.Dwf_solve.Mixed Solver.Mixed.default_config;
        }
  in
  (* numeric: a gaussian field through the codec analysis, and an
     instrumented mixed solve against a clean SPD operator *)
  let numeric_ds =
    let n = 16 * 24 in
    let v = F.create n in
    F.gaussian rng v;
    let codec_ds = Numeric_check.half_blocks ~block:24 v in
    let apply (x : F.t) (y : F.t) =
      for i = 0 to n - 1 do
        Bigarray.Array1.unsafe_set y i
          ((2.5 +. (float_of_int (i mod 24) /. 100.))
          *. Bigarray.Array1.unsafe_get x i)
      done
    in
    let b = F.create n in
    F.gaussian rng b;
    codec_ds @ Numeric_check.probe_mixed_solve ~apply ~b ()
  in
  (* the launch plans the multicore kernel engine actually runs: the
     default-chunk BLAS-1 geometry and the Mobius slice launch, both
     with the deterministic ordered reduction *)
  let pool_ds =
    let pool = Util.Pool.get_default () in
    let d = Util.Pool.size pool in
    let n = 1 lsl 16 in
    Pool_check.verify_plans
      [
        Pool_check.plan ~kernel:"axpy" ~n ~domains:d
          ~chunk:(Util.Pool.default_chunk pool n) ();
        Pool_check.plan ~reduction:Pool_check.Ordered ~kernel:"norm2" ~n
          ~domains:d ~chunk:(Util.Pool.default_chunk pool n) ();
        Pool_check.plan ~kernel:"mobius_hop_slices" ~n:16 ~domains:1 ~chunk:1 ();
      ]
  in
  (* the fused BLAS-1 plans the ~fused solvers actually run: the CG
     tail kernels on the canonical reduction block and the
     default-pool geometry. Static plans only: live tuning here would
     make the standard suite timing-dependent. *)
  let fuse_ds =
    let pool = Util.Pool.get_default () in
    let d = Util.Pool.size pool in
    let n = 1 lsl 16 in
    let geometry =
      if d > 1 then Some (d, Util.Pool.default_chunk pool n) else None
    in
    let blk = Linalg.Field.reduce_block in
    Fuse_check.verify_plans
      (List.map
         (fun kernel -> Fuse_check.plan ~kernel ~n ~block:blk ?geometry ())
         [ "cg_update"; "xpay_dot"; "axpy_norm2"; "caxpy_norm2"; "hop_tail" ])
    @
    (* the batched multi-RHS launches the solve_multi path runs: a
       width-4 hop with correct masking bookkeeping and a batched CG
       tail mid-solve with one RHS already retired — both must verify
       clean (the seeded-defect twins live in Fixtures) *)
    Mrhs_check.verify_plans
      [
        Mrhs_check.plan ~kernel:"wilson_hop_multi" ~k:4 ~n ~block:blk
          ~active:[| true; true; true; true |]
          ~converged:[| false; false; false; false |];
        Mrhs_check.plan ~kernel:"multi_cg_update" ~k:4 ~n ~block:blk
          ~active:[| true; false; true; true |]
          ~converged:[| false; true; false; false |];
      ]
  in
  (* every extractable solver/transport plan through the static
     analyzer — effects, windows, sweep pricing, precision flow. Clean
     since the stencil-tail fusion closed the PLAN005 gap: the fused
     CG plans execute exactly the 2 sweeps the model prices, so any
     diagnostic here (warnings included) is a regression. *)
  let plan_ds = Plan_check.catalog_diagnostics () in
  (* the compressed gauge-link executions the recon path runs: a
     reunitarized hot field audited at every codec, a recon12 launch
     with a freshly packed compressed halo, and a recon8 launch — the
     clean twins of the recon-* fixtures *)
  let recon_ds =
    let g = Lattice.Gauge.random geom rng in
    Lattice.Gauge.reunitarize g;
    let v = Lattice.Gauge.max_unitarity_violation g in
    List.concat_map
      (fun c -> Recon_check.verify_gauge ~recon:c g)
      Linalg.Su3_codec.all
    @ Recon_check.verify_plans
        [
          Recon_check.plan ~kernel:"wilson_hop_recon"
            ~recon:Linalg.Su3_codec.Recon12 ~max_violation:v
            ~gauge_epoch:5 ~halo_epoch:5 ~halo_compressed:true ();
          Recon_check.plan ~kernel:"wilson_hop_recon"
            ~recon:Linalg.Su3_codec.Recon8 ~max_violation:v ();
        ]
  in
  (* the deflated-solve path the ?deflate hooks run: a real Lanczos
     space on a small-eigenvalue SPD operator, audited live against
     the operator and the configuration hash it was built from, plus
     a static plan — the clean twins of the deflate-* fixtures. Must
     verify silent. *)
  let deflate_ds =
    let n = 96 in
    let diag =
      Array.init n (fun i ->
          if i < 4 then 0.01 *. float_of_int (i + 1)
          else 1. +. (float_of_int i /. float_of_int n))
    in
    let apply (x : F.t) (y : F.t) =
      for i = 0 to n - 1 do
        Bigarray.Array1.unsafe_set y i
          (diag.(i) *. Bigarray.Array1.unsafe_get x i)
      done
    in
    let lrng = Util.Rng.create (seed + 1) in
    let res =
      Solver.Lanczos.lowest ~tol:1e-8 ~rank:2 ~basis_size:10 ~apply ~n
        ~rng:lrng ()
    in
    let hash =
      let probe = F.create n in
      F.gaussian lrng probe;
      Solver.Deflate.field_hash probe
    in
    let space = Solver.Deflate.of_lanczos ~bound:1e-6 ~config_hash:hash res in
    Deflate_check.verify_space ~config_hash:hash ~apply space
    @ Deflate_check.verify_plans
        [
          Deflate_check.plan ~kernel:"cg_deflate" ~rank:4 ~n:(1 lsl 16)
            ~space_hash:0x5eed ~config_hash:0x5eed ~ortho_drift:1e-14
            ~max_residual:1e-9 ~bound:1e-6;
        ]
  in
  [
    ("campaign DAG (Jobman.Pipeline)", campaign_ds);
    ("halo schedules (Vrank.Comm)", halo_ds);
    ("halo runtime audit", audit_ds);
    ("workflow + solver specs", spec_ds);
    ("numeric sanitizer + half codec", numeric_ds);
    ("pool launch plans", pool_ds);
    ("fused kernel plans", fuse_ds);
    ("compressed gauge links (recon)", recon_ds);
    ("deflated solves (low-mode spaces)", deflate_ds);
    ("solver plans (static analyzer)", plan_ds);
  ]

(* Selftest: every seeded defect fixture must be detected. Returns
   (fixture, fired rule ids, detected?) rows. Warnings count as fired:
   some defect classes (wasted double-buffer copies, HALO012) are
   warnings by design, and a fixture must still prove they trigger. *)
let selftest () =
  List.map
    (fun (f : Fixtures.t) ->
      let ds = f.Fixtures.run () in
      let fired =
        List.sort_uniq compare
          (List.filter_map
             (fun (d : Diagnostic.t) ->
               match d.Diagnostic.severity with
               | Diagnostic.Error | Diagnostic.Warning -> Some d.Diagnostic.rule
               | Diagnostic.Info -> None)
             ds)
      in
      (f, fired, List.mem f.Fixtures.expect fired))
    Fixtures.all
