(** Launch-parameter spaces for the real OCaml kernels — the analogue
    of CUDA block/grid shape: BLAS-1 unroll depth, and one tuned
    {!plan} per kernel over fusion mode, gauge codec, batch width,
    deflation rank and pool geometry, each a verified drop-in
    replacement. *)

val axpy_plain : float -> Linalg.Field.t -> Linalg.Field.t -> unit
val axpy_unroll4 : float -> Linalg.Field.t -> Linalg.Field.t -> unit
val axpy_unroll8 : float -> Linalg.Field.t -> Linalg.Field.t -> unit

val axpy_variants :
  (string * (float -> Linalg.Field.t -> Linalg.Field.t -> unit)) list

val pool_geometries :
  ?max_domains:int -> ?chunk_floor:int -> n:int -> unit -> (int * int) list
(** The multicore launch axis: (ndomains, chunk) candidates for a
    problem of [n] elements. Domain counts are powers of two capped by
    [Domain.recommended_domain_count] (or [max_domains]); chunks are
    the per-lane share and a quarter of it, floored at [chunk_floor]
    (default 1024). Empty on a single-core cap. *)

val geom_label : string -> int * int -> string
(** ["prefix_d<domains>_c<chunk>"] — the label a pooled candidate is
    cached under. *)

(** The one tuned plan: every launch axis a kernel can vary. A
    kernel's space varies the axes it has and leaves the others at
    {!baseline}'s value. [geometry = None] is a serial plan. *)
type plan = {
  mode : Linalg.Fused.mode;  (** BLAS-1 tail fusion *)
  recon : Linalg.Su3_codec.codec;  (** gauge-link codec the hop streams *)
  k : int;  (** batch width: right-hand sides per gauge stream *)
  rank : int;  (** deflation rank; 0 = undeflated *)
  geometry : (int * int) option;  (** (domains, chunk) *)
}

val baseline : plan
(** [Unfused], [Full18], k = 1, rank 0, serial — present in every
    space, so the tuner can refuse every optimisation. *)

val label : plan -> string
(** ["<mode>_<codec>_k<k>_r<rank>_serial"] or
    ["<mode>_<codec>_k<k>_r<rank>_d<d>_c<c>"] (e.g.
    ["unfused_recon12_k4_r0_d2_c4096"]). Injective: a cached winner
    names its whole plan, and [Check.Plan_check] rule PLAN007 audits
    an executed plan against the tuned one axis by axis. *)

val space : plan list -> geometries:(int * int) list -> (string * plan) list
(** [space points ~geometries]: every point crossed with serial and
    each geometry (the points' own [geometry] is ignored), as (label,
    plan) pairs without duplicates. {!baseline} is always present,
    first. *)

val tune_hop :
  ?max_domains:int ->
  Tuner.t ->
  Dirac.Wilson.t ->
  src:Linalg.Field.t ->
  dst:Linalg.Field.t ->
  signature:string ->
  string * plan
(** Tune the Wilson hop (kernel ["wilson_hop"]) over the serial
    baseline and pooled site-partitioned launches. Like every [tune_*]
    here, returns the winning label and plan, and extends the cache
    signature with the problem shape (here [":n<sites>"]), the domain
    cap and a hash of the candidate label space
    ([":dmax<cap>:v<hash>"]), so a winner never leaks across shapes,
    machine widths or spaces; [Tuner.tune] independently refuses a
    cached winner absent from the live space. *)

val run_cg_tail :
  plan ->
  p:Linalg.Field.t ->
  ap:Linalg.Field.t ->
  x:Linalg.Field.t ->
  r:Linalg.Field.t ->
  float
(** Execute one CG BLAS-1 tail iteration under the plan's mode and
    geometry, returning |r|² — sized to what each mode runs per
    iteration on the host: [Unfused] dot_re + axpy + axpy + norm2 +
    xpay (5 sweeps), [Fused] dot_re + cg_update + xpay_dot (3),
    [Tail_fused] cg_update + xpay_dot (2; p·Ap rides the stencil). All
    plans are bit-identical in the recurrence; only traffic
    differs. *)

val tune_fusion :
  ?max_domains:int ->
  ?lint:
    (mode:Linalg.Fused.mode ->
    geometry:(int * int) option ->
    string option) ->
  Tuner.t ->
  n:int ->
  string * plan
(** Tune mode × geometry on the CG vector tail for vectors of [n]
    floats (kernel ["cg_blas1"], shape [n<n>]).

    [lint] vets every candidate before the search: a candidate for
    which it returns [Some reason] is dropped, so it can never be
    priced — or cached as a winner by [Tuner.tune], which caches on
    first encounter. Callers close the library-graph loop with
    [Check.Plan_check.lint_fusion]. The baseline is exempt (it must
    always be searchable — tuner honesty). *)

val run_hop_batch :
  plan ->
  Dirac.Wilson.t ->
  srcs:Linalg.Field.t array ->
  dsts:Linalg.Field.t array ->
  unit
(** Apply the hop to the whole batch as sub-batches of the plan's
    width on its geometry. The operator must stream the plan's
    codec. *)

val tune_hop_recon :
  ?max_domains:int ->
  ?codecs:Linalg.Su3_codec.codec list ->
  Tuner.t ->
  Lattice.Geometry.t ->
  Lattice.Gauge.t ->
  srcs:Linalg.Field.t array ->
  dsts:Linalg.Field.t array ->
  signature:string ->
  string * plan
(** Tune codec × batch width (1, 2, 4, 8 up to the batch) × pool
    geometry on a concrete batch (kernel ["wilson_hop_recon"], shape
    [":sites<n>:kmax<w>"]). One Wilson operator is built per codec
    from the same geometry and gauge; every candidate processes the
    full batch ({!run_hop_batch}), so narrow widths pay their gauge
    re-streaming and compressed codecs their reconstruction flops.
    [codecs] (default [Su3_codec.all]) restricts the axis — e.g.
    [[Full18]] tunes batch width alone, and dropping [Recon8] suits a
    gauge with degenerate links ([Recon8] packing raises
    [Su3_codec.Degenerate]). *)

val tune_axpy :
  ?max_domains:int ->
  Tuner.t ->
  n:int ->
  string * (float -> Linalg.Field.t -> Linalg.Field.t -> unit)
(** Tune axpy on vectors of [n] floats over unroll variants and pooled
    geometries (pools drawn from [Util.Pool.shared]). The cache
    signature is ["n<n>:dmax<cap>"]. *)

val tune_deflation :
  ?ranks:int list ->
  ?solves:int ->
  ?tol:float ->
  ?lanczos_tol:float ->
  ?seed:int ->
  Tuner.t ->
  apply:(Linalg.Field.t -> Linalg.Field.t -> unit) ->
  n:int ->
  signature:string ->
  string * plan
(** Tune the deflation rank (default ranks 0, 2, 4, 8) for an operator
    (kernel ["cg_deflate"], shape [":n<n>:s<solves>"]). Every
    candidate is priced on a whole campaign slice — Lanczos setup for
    its rank (inside the timed region: the amortization IS the trade)
    plus [solves] (default 24, the paper's 12 spin-color columns × 2
    sources) CG solves to [tol] on one fixed right-hand-side stream
    shared by all candidates. *)
