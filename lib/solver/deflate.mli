(** Low-mode deflation spaces: a rank-r orthonormal basis of the
    operator's lowest modes (from {!Lanczos}) with its Ritz values and
    the source-configuration hash, deflated out of every subsequent
    solve on that configuration via [?deflate] on [Cg.solve],
    [Cg.solve_multi] and [Mixed.solve]. The kernels are batched
    through [Multi_blas.block_axpy] (one sweep for the whole rank-r
    combination) and reduce through the canonical blocked [dot_re] —
    bit-identical for any pool geometry. *)

type t

val create :
  ?bound:float ->
  basis:Linalg.Field.t array ->
  values:float array ->
  config_hash:int ->
  unit ->
  t
(** Copies the basis. Raises [Invalid_argument] on an empty basis,
    rank/length mismatches, or non-positive Ritz values ([bound],
    default 1e-6, is the residual/drift bound the space claims —
    audited by [Check.Deflate_check] DEF002). *)

val of_lanczos :
  ?bound:float ->
  config_hash:int ->
  float array * Linalg.Field.t array * Lanczos.stats ->
  t
(** Wrap a [Lanczos.lowest] result as a deflation space. *)

val rank : t -> int
val values : t -> float array
val basis : t -> Linalg.Field.t array
val config_hash : t -> int
val bound : t -> float

val field_hash : Linalg.Field.t -> int
(** Deterministic FNV-1a over the raw float64 bits (stable across
    runs and processes; nonnegative). *)

val gauge_hash : Lattice.Gauge.t -> int
(** [field_hash] of the gauge configuration's raw link storage — the
    [config_hash] a space should be created with. *)

val augment :
  ?pool:Util.Pool.t ->
  ?chunk:int ->
  t ->
  r:Linalg.Field.t ->
  Linalg.Field.t ->
  unit
(** [augment t ~r x]: x += Σᵢ vᵢ (vᵢ·r)/λᵢ — the Galerkin low-mode
    correction of the guess [x] given its residual [r]. One batched
    [block_axpy] launch after the rank dots. [pool]/[chunk] pass
    through to those kernels ([Linalg.Field.implicit_pool] without
    one); the result is bit-identical for any geometry (the qcheck
    property). *)

val augment_multi :
  t -> rs:Linalg.Field.t array -> Linalg.Field.t array -> unit
(** Batched over k residuals: one k×r coefficient tile, one
    [block_axpy] launch; row i bit-identical to [augment] on
    [(rs.(i), xs.(i))]. *)

val deflated_guess : t -> b:Linalg.Field.t -> Linalg.Field.t
(** Fresh initial guess Σᵢ vᵢ (vᵢ·b)/λᵢ (i.e. [augment] of zero). *)

val project : t -> Linalg.Field.t -> unit
(** Remove the deflated span: r −= Σᵢ vᵢ (vᵢ·r). *)

val ortho_drift : t -> float
(** max |vᵢ·vⱼ − δᵢⱼ| over the basis — the orthonormality audit. *)

val max_residual :
  t -> apply:(Linalg.Field.t -> Linalg.Field.t -> unit) -> float
(** Worst |A vᵢ − λᵢ vᵢ| over the basis against a live operator. *)

val combined_guess :
  ?deflate:t ->
  ?forecast:Forecast.t ->
  apply:(Linalg.Field.t -> Linalg.Field.t -> unit) ->
  b:Linalg.Field.t ->
  unit ->
  Linalg.Field.t option
(** Chained-solve composition: the chronological [Forecast.guess]
    first (smooth correlation between consecutive sources), then the
    low-mode correction of that guess's residual (the part the
    history misses). [None] when neither contributes. *)
