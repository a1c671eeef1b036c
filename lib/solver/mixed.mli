(** Mixed-precision CG with reliable updates — the paper's double-half
    solver. Inner iterations run on 16-bit fixed-point storage
    ([Linalg.Field.Half]); the residual is recomputed exactly in double
    precision at each reliable update. All reductions are double
    precision. *)

type config = {
  tol : float;
  max_iter : int;
  delta : float;  (** reliable-update trigger: residual drop factor *)
  block : int;  (** floats sharing one half-precision norm (24 = site) *)
}

val default_config : config

val validate_config : n:int -> config -> (unit, string) result
(** Structural validity against a vector of [n] floats: positive
    [block] dividing [n], finite positive [tol], positive [max_iter],
    [delta] strictly inside (0,1). [solve] checks this at entry and
    raises [Invalid_argument] on failure. *)

val quantize : block:int -> Linalg.Field.t -> unit
(** Round-trip a vector through the half codec in place — the storage
    precision the inner solve sees. *)

val inner_quantizes : string list
(** The half-stored buffers the inner loop quantizes every iteration,
    in codec-pass order: [["p"; "ap"; "rs"]]. [Check.Plan_extract]
    lifts these into the plan IR's [Quantize] steps; the precision-flow
    pass verifies every half-read is preceded by one. *)

val reliable_update_kernels : fused:bool -> (string * int) list
(** The reliable-update phase (promote the sloppy solution, recompute
    the residual exactly) as (kernel, full-vector sweeps) rows in
    launch order. *)

val solve :
  ?config:config ->
  ?deflate:Deflate.t ->
  ?fused:bool ->
  ?trace:(float -> unit) ->
  apply:(Linalg.Field.t -> Linalg.Field.t -> unit) ->
  b:Linalg.Field.t ->
  flops_per_apply:float ->
  unit ->
  Linalg.Field.t * Cg.stats
(** Requires [config.block] to divide the vector length. If the
    half-precision noise floor is reached before [config.tol], returns
    with [converged = false]; callers can polish in double precision
    (see [Dwf_solve.solve]).

    [fused] (default [false]) runs both the inner sloppy loop and the
    outer reliable-update residual through the single-pass
    [Linalg.Fused] kernels — bit-identical trajectory, iteration count
    and reliable-update count vs the unfused path for any pool
    geometry. [trace] receives the inner |r|² once per inner iteration
    (post-quantization, the value the recurrence uses).

    [deflate] lives entirely in the outer double-precision world: the
    low-mode guess is folded into x at entry and the deflated span is
    cleaned out of the exact residual at every reliable update (one
    extra double-precision apply each), while the half-precision inner
    loop runs unmodified. Absent, the solve is bit-identical to
    before. *)
