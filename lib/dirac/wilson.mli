(** Wilson hopping stencil and operator. One table-driven kernel serves
    the full-volume, domain-decomposed and checkerboarded cases.

    Every constructor takes [?recon] (default [Full18]): the gauge
    codec of the link store. A [Full18] store is the gauge field
    itself: the site bodies read each link in place, 18 float64 values
    at [link·18], with no copy. Packed codecs ([Recon12]/[Recon8],
    [Lattice.Recon]) store 12/8 reals per link and decode each link
    once per use into one 18-float scratch per site body, which the
    same body then reads — every hop flavor (plain, tail-fused,
    multi-RHS, and the Mobius chain on top) goes through it, and for a
    fixed codec the results are bit-identical across pool geometries.
    The single-RHS body is straight-line (the forward and backward
    halves written out with their signs folded in) and allocates
    nothing per site or link. *)

type t

val floats_per_site : int

val recon : t -> Linalg.Su3_codec.codec
(** The codec this operator's link store was built with. *)

val of_geometry :
  ?recon:Linalg.Su3_codec.codec -> Lattice.Geometry.t -> Lattice.Gauge.t -> t
(** Full-volume operator; source and destination are volume×24 floats. *)

val of_domain_rank :
  ?recon:Linalg.Su3_codec.codec ->
  Lattice.Domain.rank_geometry ->
  Linalg.Field.t ->
  t
(** Rank-local operator; the source must cover the extended volume
    (ghost slots filled by halo exchange), gauge from
    [Lattice.Domain.gather_gauge]. *)

val of_checkerboard :
  ?recon:Linalg.Su3_codec.codec ->
  Lattice.Geometry.t ->
  Lattice.Gauge.t ->
  parity:int ->
  t
(** Hopping from the opposite parity onto sites of [parity]; fields are
    indexed by checkerboard (eo) index, half_volume×24 floats. *)

(** {2 Hop kernels}

    Each takes [?pool ?chunk] (chunk in sites): without [pool] it
    dispatches by [Linalg.Field.implicit_pool] on the launch's float
    count; with it, it runs on that pool — the autotuner's pooled
    candidates. Site-partitioned, so every path gives the same bits. *)

val hop :
  ?pool:Util.Pool.t ->
  ?chunk:int ->
  t ->
  src:Linalg.Field.t ->
  dst:Linalg.Field.t ->
  unit
(** dst <- H src (the full hopping sum). No aliasing. *)

val hop_multi :
  ?pool:Util.Pool.t ->
  ?chunk:int ->
  t ->
  srcs:Linalg.Field.t array ->
  dsts:Linalg.Field.t array ->
  unit
(** Batched multi-RHS hop: [dsts.(v) <- H srcs.(v)] for every v, with
    each gauge-link element loaded once per site and applied to all k
    half-spinors before the next — the k-fold link-traffic
    amortization [Machine.Perf_model.mrhs_bytes_per_site] prices. Per
    RHS the float operations are exactly [hop]'s (same operands, same
    order), so every dst is bit-identical to the independent [hop] for
    any batch width and pool geometry. Batch must be non-empty, srcs
    and dsts the same width, dsts pairwise distinct and non-aliasing
    with the srcs (unchecked, like [hop]'s no-aliasing contract).
    Without [pool], the parallel cutoff is tested against the *batch*
    float count. *)

val hop_tail :
  ?pool:Util.Pool.t ->
  ?chunk:int ->
  t ->
  src:Linalg.Field.t ->
  dst:Linalg.Field.t ->
  tail:Linalg.Fused.tail ->
  float
(** [hop] with the output tail fused into the stencil pass: per
    site-tile, right after the stencil result is written, the tail's
    optional xpay ([out <- dst + beta·out]) and dot accumulation run
    while the tile is hot — the QUDA move of folding trailing linear
    algebra into the dslash, which removes the separate full-vector
    sweep the p·Ap reduction otherwise costs ([Check.Plan_check]
    PLAN005). Returns the dot. Bit-identical to
    [hop; Fused.xpay_dot dst beta out q] (resp. [hop; Field.dot_re q
    dst] without the xpay) for any pool geometry: the tail is tiled at
    whole [Field.reduce_block]s and the block partials fold in index
    order — the canonical reduction association. A pooled launch
    rounds [chunk] up to whole reduction tiles (256 sites) so a chunk
    boundary can never split a canonical block. The tail output must
    not alias [dst] ([Invalid_argument], probed through the data). *)

val hop_sites :
  t -> ?sites:int array -> src:Linalg.Field.t -> dst:Linalg.Field.t -> unit -> unit
(** Restrict the stencil to [sites] (interior/boundary split for
    communication overlap). *)

val apply : t -> mass:float -> src:Linalg.Field.t -> dst:Linalg.Field.t -> unit
(** Full Wilson operator M = (4 + mass) − H/2. No aliasing. *)

val apply_dagger :
  t -> mass:float -> src:Linalg.Field.t -> dst:Linalg.Field.t -> unit
(** M† = gamma5·M·gamma5. *)

val apply_multi :
  t ->
  mass:float ->
  srcs:Linalg.Field.t array ->
  dsts:Linalg.Field.t array ->
  unit
(** Batched full operator over [hop_multi]: per RHS bit-identical to
    [apply]. Same batch contract as [hop_multi]. *)

val apply_dagger_multi :
  t ->
  mass:float ->
  srcs:Linalg.Field.t array ->
  dsts:Linalg.Field.t array ->
  unit
(** Batched M†: per RHS bit-identical to [apply_dagger]. *)
