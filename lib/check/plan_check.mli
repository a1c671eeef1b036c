(** Static analyses over the plan IR — every rule fires from the plan
    alone, before a single kernel runs.

    - [PLAN001/002/006] effect and aliasing: pooled partitions must
      tile [0, n) disjointly, kernel outputs must never alias another
      operand (static counterpart of [Linalg.Fused]'s runtime alias
      guard), steps must reference declared buffers.
    - [PLAN003/004] transport windows: no write into a buffer whose
      halo post window is open (an error under zero-copy, where the
      payload aliases the field in flight — HALO011 at plan level; a
      warning under staged), and post/complete must balance.
    - [PLAN005] model consistency: the IR's BLAS-1 sweep total must
      equal [Machine.Perf_model.blas1_sweeps] exactly. The historical
      stencil-tail exemption is gone — [Dirac.Wilson.hop_tail] /
      [Dirac.Mobius.apply_schur_normal_tail] ride the p·Ap reduction
      on the stencil's closing sweep, so any nonzero {!sweep_gap} is a
      live regression and errors.
    - [PREC001-004] precision flow: abstract interpretation over a
      magnitude-interval × quantization-error state per buffer,
      flagging half-codec overflow, underflow, dynamic-range
      violations, stale-precision reads and malformed quantize
      points. The interval propagation assumes no catastrophic
      cancellation (the reliable-update scheme exists to bound exactly
      that).
    - [PLAN007] tuning: the executed [Autotune.Variants.plan] must be
      the tuned one on every axis ({!verify_tuned}). *)

val rules : (string * string) list

val sweep_gap : Plan_ir.plan -> int option
(** IR BLAS-1 sweep total minus [Machine.Perf_model.blas1_sweeps]'s
    price for the plan's declared fusion mode; [None] when the plan is
    not model-priced ([fusion = None]). Derived from the plan, never a
    hardcoded constant — zero for every catalog plan now that the
    stencil-tail fusion landed, and [neutron_check --plan] fails the
    run on any nonzero value. *)

val verify : Plan_ir.plan -> Diagnostic.t list
(** All passes over one plan, sorted errors-first. *)

val verify_plans : Plan_ir.plan list -> Diagnostic.t list

val lint_fusion :
  n:int ->
  mode:Linalg.Fused.mode ->
  geometry:(int * int) option ->
  Diagnostic.t list
(** Static lint of one fusion-axis candidate: the CG vector tail under
    the given mode/geometry choice, errors only. [Unfused] lints the
    5-sweep classic tail, [Tail_fused] the 2-sweep model-priced tail
    (strict PLAN005), [Fused] the 3-sweep separate-dot fallback (not
    model-priced; PLAN001/002 still vet). Pass as
    [Autotune.Variants.tune_fusion ~lint] so no plan the analyzer
    rejects can be priced or cached. *)

val verify_tuned :
  kernel:string ->
  executed:Autotune.Variants.plan ->
  tuned:Autotune.Variants.plan ->
  Diagnostic.t list
(** PLAN007: one error when the executed plan differs from the tuned
    one, naming every axis that differs (mode, recon, k, rank,
    geometry) with both values; empty when they agree. *)

val catalog_diagnostics : unit -> Diagnostic.t list
(** Verify every plan in {!Plan_extract.catalog} — the standard-suite
    pass. Clean since the stencil-tail fusion: zero diagnostics,
    warnings included. *)
