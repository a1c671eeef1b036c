(** Conjugate gradient on the normal equations — the paper's solver
    family. The operator is a closure: the same CG drives the Wilson
    normal operator, the full Möbius normal operator and the red-black
    Schur normal operator. *)

type stats = {
  iterations : int;
  converged : bool;
  relative_residual : float;  (** |r|/|b| from the CG recurrence *)
  true_relative_residual : float option;  (** recomputed |b − Ax|/|b| *)
  flops : float;
  seconds : float;
  reliable_updates : int;  (** mixed-precision solves only *)
}

val pp_stats : Format.formatter -> stats -> unit

val true_residual_slack : float
(** 10: how far the recomputed true residual may exceed [tol] in a
    converged solve ({!solve}, {!solve_multi}). *)

val blas1_flops : ?fused:bool -> int -> float
(** BLAS-1 flops of one CG iteration on vectors of [n] floats: 10n
    unfused, 12n fused (the single-pass kernels spend 2n extra flops
    on the free p·r orthogonality monitor while streaming fewer
    bytes — see [Dirac.Flops] for the bytes side). *)

val tail_kernels : fused:bool -> (string * int) list
(** The BLAS-1 tail of one CG iteration as (kernel, full-vector
    sweeps) rows in launch order — the ground truth
    [Check.Plan_extract] lifts into the plan IR. Unfused: dot_re +
    axpy + axpy + norm2 + xpay (5 sweeps). Fused: cg_update + xpay_dot
    (2 sweeps) — the p·Ap reduction rides the stencil's closing sweep
    via [apply_dot], so the fused column matches
    [Machine.Perf_model.blas1_sweeps] exactly and
    [Check.Plan_check]'s PLAN005 pass errors on any drift. *)

val multi_tail_kernels : fused:bool -> (string * int) list
(** The per-iteration BLAS-1 tail of the batched solver as (kernel,
    full-vector sweeps) rows in launch order, the multi-RHS analogue
    of [tail_kernels] — the ground truth behind
    [Check.Plan_extract.cg_tail_multi]. Unfused the batch runs the
    scalar kernels per RHS (5 sweeps per vector); fused it runs the
    two [Linalg.Multi_blas] batch kernels (multi_cg_update +
    multi_xpay_dot, 2 sweeps per vector), matching
    [Machine.Perf_model.blas1_sweeps ~fused:true]. *)

val solve :
  ?x0:Linalg.Field.t ->
  ?deflate:Deflate.t ->
  ?fused:bool ->
  ?apply_dot:(Linalg.Field.t -> Linalg.Field.t -> float) ->
  ?trace:(float -> unit) ->
  apply:(Linalg.Field.t -> Linalg.Field.t -> unit) ->
  b:Linalg.Field.t ->
  tol:float ->
  max_iter:int ->
  flops_per_apply:float ->
  unit ->
  Linalg.Field.t * stats
(** [solve ~apply ~b ~tol ~max_iter ~flops_per_apply ()] solves A x = b
    for a hermitian positive-definite [apply]. The iteration stops when
    the recursive residual meets |r| ≤ tol·|b|; the true residual
    |b − Ax|/|b| is recomputed at the end, and [converged] also
    requires it to be within {!true_residual_slack}·tol — so a [tol]
    below the attainable floor reports [converged = false] instead of
    trusting the recurrence.

    [fused] (default [false]) runs the BLAS-1 tail through the
    single-pass [Linalg.Fused] kernels; the iterate, residual
    trajectory and iteration count are bit-identical to the unfused
    path for any pool geometry.

    [apply_dot src dst] is the tail-capable operator: dst = A src AND
    the return of src·dst, computed inside the operator's closing
    sweep through the canonical blocked reduction
    ([Dirac.Wilson.hop_tail], [Dirac.Mobius.apply_schur_normal_tail])
    so it is bit-identical to [apply src dst; Field.dot_re src dst].
    Consumed only when [fused] — together they execute the 2-sweep
    BLAS-1 plan [Machine.Perf_model.blas1_sweeps] prices; a fused
    solve without [apply_dot] keeps the dot as a separate monitor
    sweep (same bits, one more sweep, not model-priced).

    [trace] is called with |r|² once per iteration (after the residual
    update) — the hook the fused≡unfused trajectory tests compare
    on.

    [deflate] folds the low-mode correction Σᵢ vᵢ(vᵢ·r₀)/λᵢ of the
    entry residual into the initial guess (one extra apply recomputes
    r exactly), cutting the iteration count on small-eigenvalue
    configurations; the CG recurrence itself is unchanged, and the
    [deflate]-absent path is bit-identical to before. *)

val solve_multi :
  ?x0s:Linalg.Field.t array ->
  ?deflate:Deflate.t ->
  ?fused:bool ->
  ?trace:(int -> float -> unit) ->
  apply:(Linalg.Field.t array -> Linalg.Field.t array -> unit) ->
  bs:Linalg.Field.t array ->
  tol:float ->
  max_iter:int ->
  flops_per_apply:float ->
  unit ->
  Linalg.Field.t array * stats array
(** Batched CG over k right-hand sides sharing one operator. [apply]
    receives the sub-batch of still-active systems each iteration, so
    a batched operator ([Dirac.Wilson.apply_multi],
    [Dirac.Mobius.apply_schur_normal_multi]) streams the gauge links
    once for the whole surviving batch. Per-RHS convergence masking:
    a system that converges (or exhausts [max_iter], or hits a
    non-positive p·Ap breakdown) leaves the active set and stops
    contributing updates, while each surviving trajectory — iterate,
    residual sequence, iteration count, flop count — stays
    bit-identical to the independent [solve] of that RHS, because the
    per-RHS float operations (reductions through the canonical
    blocked association, updates in the scalar kernels' element
    order) are exactly [solve]'s whether batch-mates remain or not.

    [fused] routes the tail through [Linalg.Multi_blas] (per-RHS
    bit-identical to the [Linalg.Fused] path, hence to the unfused
    scalar path). [trace i r2] fires once per iteration per active
    RHS [i]. [x0s], when given, must match [bs] in width. Batch must
    be non-empty; all fields the same length.

    [deflate] seeds every guess with the batched low-mode correction
    (one k×r coefficient tile, one [Multi_blas.block_axpy] launch,
    one batched apply for the exact residuals); per RHS the entry is
    bit-identical to [solve ?deflate] on that RHS, preserving the
    trajectory-equality property. *)
