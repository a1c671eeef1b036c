(** Multi-vector fused BLAS-1 over vector *sets* — QUDA's multi-blas
    idiom on the host. One launch streams a batch of k vectors,
    interleaving the per-vector block passes so the working set stays
    hot, while each RHS keeps the canonical
    [Field.reduce_block]-blocked, index-ordered reduction of its
    single-vector [Linalg.Fused] twin. Consequence (the invariant the
    batched solver leans on): result [i] of every kernel here is
    bit-identical to the independent fused call on vector [i], serial
    or pooled, for any pool geometry — slot [i] runs the [Fused] term
    body itself.

    Aliasing contract, set-wide: an output sharing storage with an
    input of a different role, or with another output, raises
    [Invalid_argument] (probed through [Fused.same_data]). Read-only
    repetition — e.g. [qs.(i) == ps.(i)], the monitor-dot idiom — is
    legal. All vectors in a call must have one common length; batches
    must be non-empty. *)

type t = Field.t

(** Every kernel takes [?pool ?chunk]: without [pool] it dispatches by
    [Field.implicit_pool] on the per-vector float count; with it, it
    runs on that pool and chunk (in floats, applied to each RHS's
    block space) — the batched autotuner candidates. Same per-RHS
    results on every path. *)

val block_axpy :
  ?pool:Util.Pool.t ->
  ?chunk:int ->
  float array array ->
  t array ->
  t array ->
  unit
(** [block_axpy a xs ys]: the multi-blas tile
    [ys.(i) <- ys.(i) + sum_j a.(i).(j)·xs.(j)], with [a] an
    [Array.length ys × Array.length xs] coefficient matrix. Per output
    element the j-accumulation runs in index order, so output [i]
    matches the sequential [Field.axpy a.(i).(j) xs.(j) ys.(i)] sweeps
    (j ascending) bit-for-bit — with one pass over memory instead of
    [Array.length xs]. *)

val axpy_norm2 :
  ?pool:Util.Pool.t ->
  ?chunk:int ->
  float array ->
  t array ->
  t array ->
  float array
(** [axpy_norm2 alphas xs ys]: per RHS,
    [ys.(i) <- ys.(i) + alphas.(i)·xs.(i)]; returns the per-RHS |y|².
    Slot [i] runs [Fused.axpy_norm2_term] and ≡
    [Fused.axpy_norm2 alphas.(i) xs.(i) ys.(i)] to the bit. *)

val xpay_dot :
  ?pool:Util.Pool.t ->
  ?chunk:int ->
  t array ->
  float array ->
  t array ->
  t array ->
  float array
(** [xpay_dot xs betas ps qs]: per RHS,
    [ps.(i) <- xs.(i) + betas.(i)·ps.(i)]; returns the per-RHS p·q.
    Slot [i] runs [Fused.xpay_dot_term] and ≡
    [Fused.xpay_dot xs.(i) betas.(i) ps.(i) qs.(i)]. *)

val cg_update :
  ?pool:Util.Pool.t ->
  ?chunk:int ->
  float array ->
  t array ->
  t array ->
  t array ->
  t array ->
  float array
(** [cg_update alphas ps aps xs rs]: per RHS, the whole CG vector tail
    [xs.(i) += alphas.(i)·ps.(i); rs.(i) -= alphas.(i)·aps.(i)];
    returns the per-RHS |r|². Slot [i] runs [Fused.cg_update_term] and
    ≡ [Fused.cg_update alphas.(i) ps.(i) aps.(i) xs.(i) rs.(i)]. *)

val operand_roles : string -> (string * bool) list option
(** Operand-role table of a batched kernel by plan-IR name
    ([multi_cg_update], [multi_xpay_dot], [multi_axpy_norm2],
    [block_axpy]): [(formal, is_output)] per vector *set* in call
    order. [None] for unknown kernels. [Check.Plan_extract] expands
    sets to per-RHS buffers when building batched launch effects. *)
