(** SU(3) gauge-link compression codecs — QUDA's reconstruct trade:
    store a unitary link as 18, 12 or 8 reals and rebuild the rest in
    registers at the point of use, converting link bytes into flops on
    the bandwidth-bound stencil.

    Both packed codecs carry one sign [s = sign(Re det U)] per link so
    the antiperiodic-time boundary phase (det = −1 links) survives:
    [Recon12] stores rows 0,1 as exact bit-copies and reconstructs
    [U2 = s·conj(U0 × U1)]; [Recon8] parameterizes [V = s·U ∈ SU(3)]
    by [θ1 = arg a1, a2, a3, b1, θ2 = arg c1] and rescales the decoded
    [V] by [s]. *)

type codec = Full18 | Recon12 | Recon8

val all : codec list
val name : codec -> string
(** ["full18"] / ["recon12"] / ["recon8"] — the label fragment the
    autotuner caches winners under. *)

val of_name : string -> codec option

val reals : codec -> int
(** Stored reals per link: 18 / 12 / 8. *)

val tolerance : codec -> float
(** Largest source-link unitarity violation (Frobenius norm of
    U·U† − I) the codec reconstructs faithfully — beyond it
    [Check.Recon_check] RECON001 fires. [infinity] for [Full18]. *)

val round_trip_bound : codec -> float
(** Documented encode∘decode Frobenius error bound on links within
    [tolerance] of SU(3): 0 / 1e-12 / 1e-8 (Recon8's includes the 1/N
    Cramer amplification headroom; the qcheck properties assert it on
    Haar-random links). *)

exception Degenerate of string
(** [Recon8] cannot parameterize a link whose first row is
    concentrated on color 0 (|a2|²+|a3|² below [recon8_min_n] — e.g.
    any unit link): the Cramer determinant vanishes. *)

val recon8_min_n : float

val det_sign : Su3.t -> float
(** +1. / −1. with the sign of Re det. *)

val encode_into : codec -> Su3.t -> float array -> off:int -> float
(** Pack the link into [dst[off, off + reals codec)]; returns the sign
    the decoder must be given. Raises {!Degenerate} ([Recon8] only). *)

val decode_into : codec -> float array -> off:int -> sign:float -> Field.t -> unit
(** Rebuild all 18 reals into the destination scratch. For [Full18]
    and the stored rows of [Recon12] this is an exact copy — decoding
    a [Full18] stream is bit-identical to reading the original. *)

val round_trip : codec -> Su3.t -> Su3.t
val round_trip_error : codec -> Su3.t -> float
(** Frobenius distance of encode∘decode from the source link. *)

val pack_fixed : codec -> Su3.t -> int array * float * float
(** [(int16 codes, float32-rounded norm, sign)]: the packed reals
    through the shared {!Quantize} block scaling — the fixed-point
    wire format of the compressed halo pricing. *)

val unpack_fixed : codec -> int array * float * float -> Su3.t
