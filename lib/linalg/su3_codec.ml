(* SU(3) gauge-link compression codecs — the QUDA QudaReconstructType
   trade (Clark et al.): a unitary link is fully determined by fewer
   than 18 reals, so store 12 (drop the third row) or 8 (minimal
   parameterization) and rebuild the rest in registers at the point of
   use. On a bandwidth-bound stencil this converts link bytes into
   reconstruction flops — the currency the performance model prices.

   Layout convention matches Su3.t / gauge storage: row-major,
   interleaved re/im, so row r column c real part sits at 2*(3r+c).

   Sign plane: reconstruction assumes det U = +1, but the fermion
   boundary condition multiplies time links by −1
   (Gauge.with_antiperiodic_time), giving det = −1. Both codecs store
   one sign s = sign(Re det U) per link: Recon12 keeps rows 0,1 as
   exact bit-copies of U and applies s only to the reconstructed third
   row (U2 = s·conj(U0 × U1), and (−u)×(−v) = u×v so the stored rows
   need no correction); Recon8 parameterizes V = s·U ∈ SU(3) and
   scales the decoded V by s. The sign is one bit per link, excluded
   from the 1152/768/512 bytes-per-site model as negligible metadata.

   Recon8 parameterization of V with rows a=(a1,a2,a3), b=(b1,b2,b3),
   c=(c1,c2,c3): store [θ1 = arg a1; Re a2; Im a2; Re a3; Im a3;
   Re b1; Im b1; θ2 = arg c1]. Decode: |a1| = sqrt(1−|a2|²−|a3|²);
   |c1|² = 1−|a1|²−|b1|²; then with N = |a2|²+|a3|² solve the 2×2
   system {conj(a2)b2 + conj(a3)b3 = −conj(a1)b1 (row orthogonality);
   −a3·b2 + a2·b3 = conj(c1) (c = conj(a×b))} by Cramer (determinant
   N), and close with c2 = conj(a3b1 − a1b3), c3 = conj(a1b2 − a2b1).
   The division by N makes links whose first row is concentrated on
   the first color (N → 0, e.g. the unit gauge field) undecodable —
   encode raises below [recon8_min_n]; Haar-distributed links have
   N = O(1). Round-trip error amplifies like 1/N: ≲1e-13 for Recon12
   and ≲1e-9 for Recon8 on Haar links (the documented bounds the
   qcheck properties assert). *)

type codec = Full18 | Recon12 | Recon8

let ( .%{}<- ) (u : Field.t) j v = Bigarray.Array1.unsafe_set u j v

let all = [ Full18; Recon12; Recon8 ]

let name = function
  | Full18 -> "full18"
  | Recon12 -> "recon12"
  | Recon8 -> "recon8"

let of_name = function
  | "full18" -> Some Full18
  | "recon12" -> Some Recon12
  | "recon8" -> Some Recon8
  | _ -> None

let reals = function Full18 -> 18 | Recon12 -> 12 | Recon8 -> 8

(* Reconstruction tolerance on the source link's unitarity violation
   (Frobenius norm of U·U† − I): beyond it the decoded link diverges
   from the stored one by more than rounding — Check.Recon_check
   RECON001. Full18 is exact for any matrix. *)
let tolerance = function Full18 -> infinity | Recon12 | Recon8 -> 1e-8

(* Documented encode∘decode round-trip bound on links within
   [tolerance] of SU(3) (Frobenius distance; Recon8's carries the 1/N
   amplification headroom). *)
let round_trip_bound = function
  | Full18 -> 0.
  | Recon12 -> 1e-12
  | Recon8 -> 1e-8

let recon8_min_n = 1e-15

(* Re Tr is not enough — we need Re det. Su3.determinant allocates a
   Cplx; fine off the hot path (encode runs once per field). *)
let det_sign (u : Su3.t) =
  if (Su3.determinant u).Cplx.re < 0. then -1. else 1.

exception Degenerate of string

let encode_into codec (u : Su3.t) (dst : float array) ~off =
  match codec with
  | Full18 ->
    Array.blit u 0 dst off 18;
    1.
  | Recon12 ->
    Array.blit u 0 dst off 12;
    det_sign u
  | Recon8 ->
    let s = det_sign u in
    (* V = s·U: every element of the sign-normalized link *)
    let v i = s *. u.(i) in
    let a2r = v 2 and a2i = v 3 and a3r = v 4 and a3i = v 5 in
    let n = (a2r *. a2r) +. (a2i *. a2i) +. (a3r *. a3r) +. (a3i *. a3i) in
    if n < recon8_min_n then
      raise
        (Degenerate
           (Printf.sprintf
              "Su3_codec.encode: recon8 cannot parameterize a link with \
               |a2|^2+|a3|^2 = %g < %g (first row concentrated on color 0, \
               e.g. a unit link)"
              n recon8_min_n));
    dst.(off) <- atan2 (v 1) (v 0);            (* θ1 = arg a1 *)
    dst.(off + 1) <- a2r;
    dst.(off + 2) <- a2i;
    dst.(off + 3) <- a3r;
    dst.(off + 4) <- a3i;
    dst.(off + 5) <- v 6;                      (* Re b1 *)
    dst.(off + 6) <- v 7;                      (* Im b1 *)
    dst.(off + 7) <- atan2 (v 13) (v 12);      (* θ2 = arg c1 *)
    s

let decode_into codec (src : float array) ~off ~sign (u : Field.t) =
  match codec with
  | Full18 ->
    for j = 0 to 17 do
      u.%{j} <- src.(off + j)
    done
  | Recon12 ->
    for j = 0 to 11 do
      u.%{j} <- src.(off + j)
    done;
    (* U2 = s·conj(U0 × U1) *)
    let u0r = src.(off) and u0i = src.(off + 1) in
    let u1r = src.(off + 2) and u1i = src.(off + 3) in
    let u2r = src.(off + 4) and u2i = src.(off + 5) in
    let v0r = src.(off + 6) and v0i = src.(off + 7) in
    let v1r = src.(off + 8) and v1i = src.(off + 9) in
    let v2r = src.(off + 10) and v2i = src.(off + 11) in
    (* c0 = u1·v2 − u2·v1 *)
    let c0r = (u1r *. v2r) -. (u1i *. v2i) -. ((u2r *. v1r) -. (u2i *. v1i)) in
    let c0i = (u1r *. v2i) +. (u1i *. v2r) -. ((u2r *. v1i) +. (u2i *. v1r)) in
    (* c1 = u2·v0 − u0·v2 *)
    let c1r = (u2r *. v0r) -. (u2i *. v0i) -. ((u0r *. v2r) -. (u0i *. v2i)) in
    let c1i = (u2r *. v0i) +. (u2i *. v0r) -. ((u0r *. v2i) +. (u0i *. v2r)) in
    (* c2 = u0·v1 − u1·v0 *)
    let c2r = (u0r *. v1r) -. (u0i *. v1i) -. ((u1r *. v0r) -. (u1i *. v0i)) in
    let c2i = (u0r *. v1i) +. (u0i *. v1r) -. ((u1r *. v0i) +. (u1i *. v0r)) in
    u.%{12} <- sign *. c0r;
    u.%{13} <- -.sign *. c0i;
    u.%{14} <- sign *. c1r;
    u.%{15} <- -.sign *. c1i;
    u.%{16} <- sign *. c2r;
    u.%{17} <- -.sign *. c2i
  | Recon8 ->
    let th1 = src.(off) in
    let a2r = src.(off + 1) and a2i = src.(off + 2) in
    let a3r = src.(off + 3) and a3i = src.(off + 4) in
    let b1r = src.(off + 5) and b1i = src.(off + 6) in
    let th2 = src.(off + 7) in
    let n = (a2r *. a2r) +. (a2i *. a2i) +. (a3r *. a3r) +. (a3i *. a3i) in
    let a1m = sqrt (Float.max 0. (1. -. n)) in
    let a1r = a1m *. cos th1 and a1i = a1m *. sin th1 in
    let c1m =
      sqrt
        (Float.max 0.
           (1. -. (a1m *. a1m) -. ((b1r *. b1r) +. (b1i *. b1i))))
    in
    let c1r = c1m *. cos th2 and c1i = c1m *. sin th2 in
    (* rhs1 = −conj(a1)·b1, rhs2 = conj(c1) *)
    let r1r = -.((a1r *. b1r) +. (a1i *. b1i)) in
    let r1i = -.((a1r *. b1i) -. (a1i *. b1r)) in
    let r2r = c1r and r2i = -.c1i in
    let inv_n = 1. /. n in
    (* b2 = (rhs1·a2 − conj(a3)·rhs2) / N *)
    let b2r =
      ((r1r *. a2r) -. (r1i *. a2i) -. ((a3r *. r2r) +. (a3i *. r2i))) *. inv_n
    in
    let b2i =
      ((r1r *. a2i) +. (r1i *. a2r) -. ((a3r *. r2i) -. (a3i *. r2r))) *. inv_n
    in
    (* b3 = (conj(a2)·rhs2 + a3·rhs1) / N — Cramer with A21 = −a3 *)
    let b3r =
      ((a2r *. r2r) +. (a2i *. r2i) +. ((a3r *. r1r) -. (a3i *. r1i))) *. inv_n
    in
    let b3i =
      ((a2r *. r2i) -. (a2i *. r2r) +. ((a3r *. r1i) +. (a3i *. r1r))) *. inv_n
    in
    (* c2 = conj(a3·b1 − a1·b3), c3 = conj(a1·b2 − a2·b1) *)
    let c2r = (a3r *. b1r) -. (a3i *. b1i) -. ((a1r *. b3r) -. (a1i *. b3i)) in
    let c2i = (a3r *. b1i) +. (a3i *. b1r) -. ((a1r *. b3i) +. (a1i *. b3r)) in
    let c3r = (a1r *. b2r) -. (a1i *. b2i) -. ((a2r *. b1r) -. (a2i *. b1i)) in
    let c3i = (a1r *. b2i) +. (a1i *. b2r) -. ((a2r *. b1i) +. (a2i *. b1r)) in
    u.%{0} <- sign *. a1r;
    u.%{1} <- sign *. a1i;
    u.%{2} <- sign *. a2r;
    u.%{3} <- sign *. a2i;
    u.%{4} <- sign *. a3r;
    u.%{5} <- sign *. a3i;
    u.%{6} <- sign *. b1r;
    u.%{7} <- sign *. b1i;
    u.%{8} <- sign *. b2r;
    u.%{9} <- sign *. b2i;
    u.%{10} <- sign *. b3r;
    u.%{11} <- sign *. b3i;
    u.%{12} <- sign *. c1r;
    u.%{13} <- sign *. c1i;
    u.%{14} <- sign *. c2r;
    u.%{15} <- -.sign *. c2i;
    u.%{16} <- sign *. c3r;
    u.%{17} <- -.sign *. c3i

(* Decode into a fresh 18-float link for the Su3.t-facing helpers. *)
let decode_link codec packed ~sign : Su3.t =
  let w = Field.create 18 in
  decode_into codec packed ~off:0 ~sign w;
  Field.to_array w

let round_trip codec (u : Su3.t) : Su3.t =
  let packed = Array.make (reals codec) 0. in
  let sign = encode_into codec u packed ~off:0 in
  decode_link codec packed ~sign

let round_trip_error codec u = Su3.frobenius_dist u (round_trip codec u)

(* Fixed-point wire format of the packed reals — the gauge-side user
   of the shared Quantize scaling (one norm per packed link). Recon8's
   θ entries span (−π, π] and its amplitudes [−1, 1], all one int16
   block: the range fits max_q comfortably. Used by the compressed
   halo pricing and tests; the hop decode path stays float64. *)
let pack_fixed codec (u : Su3.t) =
  let packed = Array.make (reals codec) 0. in
  let sign = encode_into codec u packed ~off:0 in
  let data = Array.make (reals codec) 0 in
  let norm = Quantize.encode_array packed data in
  (data, norm, sign)

let unpack_fixed codec (data, norm, sign) =
  let packed = Array.make (reals codec) 0. in
  Quantize.decode_array data ~norm packed;
  decode_link codec packed ~sign
