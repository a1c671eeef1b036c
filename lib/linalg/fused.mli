(** Fused BLAS-1 solver kernels: the update and its reduction in one
    memory sweep (QUDA-style). Each kernel is bit-identical — for any
    pool geometry, serial or pooled — to the unfused sequence it
    replaces, because all of them run the canonical
    [Field.reduce_block]-float blocked, index-ordered reduction
    ([Field.block_fold]) with the element-wise update folded into the
    block pass.

    Stricter aliasing contract than the unfused kernels: an output
    vector sharing storage with an input of a different role raises
    [Invalid_argument] (a real fused kernel caches in registers; see
    [Check.Plan_check] PLAN002). The guard probes the underlying data
    through element 0, so distinct Bigarray handles over the same
    buffer are rejected too — not just physical equality. Passing the
    same vector where the *spec* says so — e.g. [xpay_dot r beta p r],
    the CG orthogonality monitor — is fine: [q] and [x] are read-only
    roles. *)

type t = Field.t

type mode = Unfused | Fused | Tail_fused
(** How a solver's BLAS-1 tail runs per iteration — the launch axis
    [Autotune.Variants] tunes and [Check.Plan_check] lints. [Fused]
    keeps the p·Ap reduction a separate host kernel (3 sweeps, the
    fallback when the operator cannot carry a tail); [Tail_fused]
    rides it on the stencil through {!tail} — the 2-sweep plan
    [Machine.Perf_model.blas1_sweeps] prices. *)

val mode_name : mode -> string
(** ["unfused"] / ["fused"] / ["tailfused"] — the label prefixes the
    autotuner caches winners under. *)

val same_data : t -> t -> bool
(** Do the two fields share their underlying storage? Physical
    equality, or a write-probe through element 0 that catches distinct
    Bigarray handles over the same data. Staggered overlaps that cover
    neither element 0 escape (modeled statically by PLAN002). *)

(** {2 Stencil output tail}

    The closure a hop kernel applies per site-block right after the
    stencil result lands: an optional xpay into a separate output
    ([out <- dst + beta·out]) followed by a dot accumulation against a
    read-only [q] — [Wilson.hop_tail] and the Möbius Schur chain
    execute it through the canonical blocked reduction, so
    [hop_tail ~tail:(tail ~xpay:(out, beta) ~dot:q ())] is
    bit-identical to [hop; xpay_dot dst beta out q] and the dot-only
    form to [hop; Field.dot_re q dst], for any pool geometry. *)

type tail = {
  t_xpay : (t * float) option;  (** (out, beta): out <- dst + beta·out *)
  t_dot : t;  (** q: the reduction operand *)
}

val tail : ?xpay:t * float -> dot:t -> unit -> tail

val tail_check : string -> n:int -> dst:t -> tail -> unit
(** Shape and aliasing guard, run by the stencil front-ends before the
    launch: every tail operand must span the [n]-float stencil output,
    and the xpay output must not alias the stencil [dst] (probed via
    {!same_data}; raises [Invalid_argument] — the runtime counterpart
    of the PLAN002 tail-alias hazard). *)

val tail_term : tail -> dst:t -> int -> int -> float
(** [tail_term tl ~dst lo hi]: the serial per-block pass over floats
    [lo, hi) of the written stencil output — xpay (if any) then the
    dot partial, one element at a time in index order. Callers hand it
    canonical [Field.reduce_block] ranges and fold the partials in
    block order ([Field.block_fold]'s association). *)

(** {2 Fused kernels}

    Like [Field]'s kernels, each takes [?pool ?chunk]: without [pool]
    it dispatches by [Field.implicit_pool]; with it, it runs on that
    pool and chunk (in floats) — the autotuner's fused candidates
    ([Autotune.Variants.run_cg_tail]). The result is the same on every
    path. *)

val axpy_norm2 : ?pool:Util.Pool.t -> ?chunk:int -> float -> t -> t -> float
(** [axpy_norm2 a x y]: y <- y + a·x; returns |y|².
    ≡ [Field.axpy a x y; Field.norm2 y] bit-for-bit. *)

val xpay_dot :
  ?pool:Util.Pool.t -> ?chunk:int -> t -> float -> t -> t -> float
(** [xpay_dot x beta p q]: p <- x + β·p; returns p·q (real part under
    the flat-float view, i.e. [Field.dot_re]).
    ≡ [Field.xpay x beta p; Field.dot_re p q] bit-for-bit. *)

val cg_update :
  ?pool:Util.Pool.t -> ?chunk:int -> float -> t -> t -> t -> t -> float
(** [cg_update alpha p ap x r]: x <- x + α·p; r <- r − α·Ap; returns
    |r|² — QUDA's tripleCGUpdate, the whole CG vector tail in one
    sweep. ≡ [Field.axpy alpha p x; Field.axpy (−alpha) ap r;
    Field.norm2 r] bit-for-bit (IEEE negation is exact). *)

val caxpy_norm2 :
  ?pool:Util.Pool.t -> ?chunk:int -> float * float -> t -> t -> float
(** [caxpy_norm2 (re, im) x y]: y <- y + a·x with complex [a] over the
    interleaved layout; returns |y|².
    ≡ [Field.caxpy (re, im) x y; Field.norm2 y] bit-for-bit. *)

(** {2 Per-block term bodies}

    The serial pass of a fused kernel over floats [lo, hi): update the
    block, then accumulate its reduction one float at a time in index
    order. They are the only bodies of these updates: the kernels above
    and the batched [Multi_blas] kernels (per slot) fold them through
    the canonical blocked reduction. *)

val axpy_norm2_term : float -> t -> t -> int -> int -> float
val xpay_dot_term : t -> float -> t -> t -> int -> int -> float
val cg_update_term : float -> t -> t -> t -> t -> int -> int -> float

val operand_roles : string -> (string * bool) list option
(** Operand-role table of a fused kernel by name, in call order:
    [(formal, is_output)]. [None] for unknown kernels. The static
    mirror of the runtime aliasing guards — [Check.Plan_extract]
    builds fused-launch effects from it, and a plan whose output
    operand shares a buffer with any other position is the
    PLAN002 hazard. *)
