(** Flat float64 Bigarray vectors (fermion-field storage) and the
    BLAS-1 kernels of the CG solver. Interleaved complex layout:
    element [2k] is the real part and [2k+1] the imaginary part of
    component k. *)

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> t
(** Zero-initialized vector of [n] floats. *)

val length : t -> int
val copy : t -> t
val blit : t -> t -> unit
val fill : t -> float -> unit
val of_array : float array -> t
val to_array : t -> float array

val parallel_cutoff : int
(** Launches shorter than this stay serial when no pool is given
    ({!implicit_pool}): the fork/join costs more than it hides.
    [Check.Pool_check] DET003 warns about pooled launches under it. *)

val reduce_block : int
(** Canonical reduction block (in floats). [norm2]/[dot_re]/[cdot] sum
    each block serially and combine block partials in index order on
    every path — serial and pooled results are bit-identical for any
    pool geometry. *)

val block_fold :
  Util.Pool.t option ->
  int option ->
  n:int ->
  block:int ->
  zero:'a ->
  add:('a -> 'a -> 'a) ->
  (int -> int -> 'a) ->
  'a
(** The canonical blocked-reduction engine: cuts [0, n) into
    [block]-sized blocks, evaluates [term lo hi] per block (in
    parallel when a pool is given — the slots are disjoint; [chunk] is
    in elements) and folds the partials with {!fold_partials}. Any
    [term] that updates a block element-wise and then accumulates it
    in index order is bit-identical to running the update kernel
    followed by the standalone reduction, for every pool geometry —
    the contract [Fused], [Multi_blas] (one partial per RHS) and
    [cdot] (a re/im pair) build on. *)

val fold_partials : zero:'a -> add:('a -> 'a -> 'a) -> 'a array -> 'a
(** Fold block partials in block-index order from [zero]; a single
    partial is returned as is (so a -0. keeps its sign) — the
    association every reduction path shares, exported for the stencil
    tail ([Dirac.Wilson.hop_tail]), which fills its partials per
    site tile. *)

val block_sum :
  ?pool:Util.Pool.t -> ?chunk:int -> n:int -> (int -> int -> float) -> float
(** The real reductions' launch: {!block_fold} over [reduce_block]
    blocks on the pool {!implicit_pool} picks, summing from [0.]. *)

val implicit_pool : ?pool:Util.Pool.t -> int -> Util.Pool.t option
(** The one pool-dispatch rule of every kernel that takes
    [?pool ?chunk] ([Field], [Fused], [Multi_blas], the [Dirac.Wilson]
    hops and the Möbius slice loop): [pool] when given; else
    [Util.Pool.get_default] when it has more than one lane and the
    launch covers at least [parallel_cutoff] floats ([n]); else [None]
    (serial). *)

val run_pooled :
  Util.Pool.t option -> ?chunk:int -> n:int -> (int -> int -> unit) -> unit
(** [run_pooled pool ?chunk ~n f]: [Util.Pool.parallel_for] over
    [0, n) on [Some pool], [f 0 n] inline on [None]. *)

(** {2 BLAS-1 kernels}

    Every kernel takes [?pool ?chunk]. Without [pool] it dispatches by
    {!implicit_pool}; with it, it runs on that pool (the autotuner's
    pooled candidates). [chunk] (in floats; the complex kernels halve
    it to pairs) applies whenever the kernel runs pooled. All results
    are bit-identical for any pool geometry, and the [Sanitize] hooks
    run on every path. *)

val axpy : ?pool:Util.Pool.t -> ?chunk:int -> float -> t -> t -> unit
(** [axpy a x y]: y <- y + a·x. *)

val xpay : ?pool:Util.Pool.t -> ?chunk:int -> t -> float -> t -> unit
(** [xpay x a y]: y <- x + a·y. *)

val scale : ?pool:Util.Pool.t -> ?chunk:int -> float -> t -> unit

val sub : ?pool:Util.Pool.t -> ?chunk:int -> t -> t -> t -> unit
(** [sub x y z]: z <- x − y. *)

val caxpy : ?pool:Util.Pool.t -> ?chunk:int -> float * float -> t -> t -> unit
(** [caxpy (re, im) x y]: y <- y + a·x with complex a. *)

val norm2 : ?pool:Util.Pool.t -> ?chunk:int -> t -> float
val norm : t -> float

val dot_re : ?pool:Util.Pool.t -> ?chunk:int -> t -> t -> float
(** Real part of the complex inner product. *)

val cdot : ?pool:Util.Pool.t -> ?chunk:int -> t -> t -> Cplx.t
(** Complex inner product sum conj(x_k)·y_k. *)

val gaussian : Util.Rng.t -> t -> unit
(** Fill with unit-variance Gaussian noise. *)

(** Opt-in NaN/Inf sanitizer for the BLAS-1 hot paths. When [enabled],
    [axpy]/[xpay]/[scale]/[sub]/[caxpy] scan their output vector and
    [norm2]/[dot_re]/[cdot] check their result, naming the first kernel
    that produces a non-finite value. Off by default (one ref read per
    kernel call). *)
module Sanitize : sig
  exception Non_finite of string * int * float
  (** [(kernel, index, value)]; [index] is [-1] for reduction results. *)

  val enabled : bool ref

  val raising : bool ref
  (** [true] (default): raise [Non_finite] at the first trap.
      [false]: record traps and keep going. *)

  val trap_count : int ref
  val max_recorded : int

  val recorded : (string * int * float) list ref
  (** Most recent first; capped at [max_recorded] entries. *)

  val reset : unit -> unit

  val check_scalar : string -> float -> float
  val check_vec : string -> t -> unit

  val scoped : ?raise_on_trap:bool -> (unit -> 'a) -> 'a
  (** Run with the sanitizer on (trap log cleared), restoring the
      previous sanitizer state afterwards. The trap log survives the
      call for inspection. *)
end

val map2 : (float -> float -> float) -> t -> t -> t -> unit
val max_abs_diff : t -> t -> float

(** 16-bit fixed-point storage with per-block float32 norms — the
    paper's half-precision format for the inner CG. *)
module Half : sig
  type h = {
    data : (int, Bigarray.int16_signed_elt, Bigarray.c_layout) Bigarray.Array1.t;
    norms : (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t;
    block : int;
  }

  val max_q : float

  val create : block:int -> int -> h
  (** [create ~block n]: [block] floats share one norm; block ∣ n. *)

  val length : h -> int
  val encode : t -> h -> unit
  val decode : h -> t -> unit

  val round_trip : t -> block:int -> t
  (** Encode then decode — the quantization the inner solver sees. *)
end
