(** Packed gauge-link stream: a gauge field through one
    [Linalg.Su3_codec], decoded link-by-link into registers at the
    stencil's point of use. Carries the per-link det-sign plane the
    codecs need for antiperiodic-time links (one byte per link —
    negligible metadata, excluded from the bytes-per-site model). *)

type t

val codec : t -> Linalg.Su3_codec.codec
val n_links : t -> int

val pack : Linalg.Su3_codec.codec -> Gauge.t -> t
(** Encode every link of the field. Raises [Linalg.Su3_codec.Degenerate]
    if [Recon8] meets an unparameterizable link (e.g. a unit field). *)

val pack_field : Linalg.Su3_codec.codec -> Linalg.Field.t -> t
(** Same on a raw 18-reals-per-link stream (the extended gauge of a
    domain-decomposed rank). *)

val decode_sub : t -> link:int -> packed:float array -> Linalg.Field.t -> unit
(** Hot path: rebuild one link into an 18-float scratch; [packed] is
    caller scratch of [Su3_codec.reals (codec t)] floats (own one per
    stencil closure — fresh per pooled range). Pure per-link, so
    results for a fixed codec are bit-identical across pool
    geometries; [Full18] decode is an exact copy of the source. *)

val decode_into : t -> link:int -> Linalg.Field.t -> unit
(** Allocating convenience wrapper of {!decode_sub}. *)

val unpack : t -> Linalg.Field.t
(** Decode the whole stream back to 18 reals per link. *)

val bytes : t -> float
(** Stored bytes including the sign plane. *)

val max_round_trip_error : Linalg.Su3_codec.codec -> Gauge.t -> float
(** Worst per-link Frobenius round-trip error over the field. *)
