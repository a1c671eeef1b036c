(* Packed gauge-link stream: a whole gauge field (or any raw
   18-reals-per-link stream, e.g. the extended gauge of a
   domain-decomposed rank) through one Su3_codec. The stencil kernels
   keep only this stream and decode each link into an 18-float scratch
   at the point of use — the memory the hop actually reads per site
   drops from 8×18×8 bytes to 8×12×8 / 8×8×8
   (Machine.Perf_model.link_bytes_per_site_recon).

   The sign plane (one byte per link, the det sign the codecs need for
   antiperiodic-time links) is stored alongside; at one byte per
   144/96/64 payload bytes it is the negligible metadata the byte
   model documents away. Encoding runs once per field at operator
   construction; decode_into is the hot-path entry. *)

module F = Linalg.Field
module C = Linalg.Su3_codec

type t = {
  codec : C.codec;
  n_links : int;
  reals : F.t;  (* n_links × C.reals codec, link-major *)
  signs : Bytes.t;  (* 0 => +1, 1 => −1 *)
}

let codec t = t.codec
let n_links t = t.n_links

let pack_field codec (g : F.t) =
  let nf = F.length g in
  if nf mod 18 <> 0 then invalid_arg "Recon.pack_field: not a link stream";
  let n_links = nf / 18 in
  let rpl = C.reals codec in
  let reals = F.create (n_links * rpl) in
  let signs = Bytes.make n_links '\000' in
  let u = Array.make 18 0. in
  let packed = Array.make rpl 0. in
  for l = 0 to n_links - 1 do
    let base = l * 18 in
    for j = 0 to 17 do
      u.(j) <- Bigarray.Array1.unsafe_get g (base + j)
    done;
    let sign = C.encode_into codec u packed ~off:0 in
    if sign < 0. then Bytes.unsafe_set signs l '\001';
    let pb = l * rpl in
    for j = 0 to rpl - 1 do
      Bigarray.Array1.unsafe_set reals (pb + j) packed.(j)
    done
  done;
  { codec; n_links; reals; signs }

let pack codec (gauge : Gauge.t) = pack_field codec (Gauge.data gauge)

(* Hot path: rebuild link [link] into the caller's 18-float scratch.
   [packed] is caller-provided scratch of [C.reals codec] floats (the
   stencil closures each own one — fresh per pooled range, so no
   shared mutable state). Pure per-link (reads only the packed
   stream), so pooled stencil ranges decoding the same link always
   produce the same bits — codec-fixed results are bit-identical
   across pool geometries. *)
let decode_sub t ~link ~(packed : float array) (u : F.t) =
  let rpl = C.reals t.codec in
  let pb = link * rpl in
  match t.codec with
  | C.Full18 ->
    for j = 0 to 17 do
      Bigarray.Array1.unsafe_set u j (Bigarray.Array1.unsafe_get t.reals (pb + j))
    done
  | C.Recon12 | C.Recon8 ->
    for j = 0 to rpl - 1 do
      packed.(j) <- Bigarray.Array1.unsafe_get t.reals (pb + j)
    done;
    let sign =
      if Bytes.unsafe_get t.signs link = '\000' then 1. else -1.
    in
    C.decode_into t.codec packed ~off:0 ~sign u

let decode_into t ~link (u : F.t) =
  decode_sub t ~link ~packed:(Array.make (C.reals t.codec) 0.) u

let unpack t =
  let out = F.create (t.n_links * 18) in
  for l = 0 to t.n_links - 1 do
    decode_into t ~link:l (Bigarray.Array1.sub out (l * 18) 18)
  done;
  out

let bytes t =
  float_of_int ((t.n_links * C.reals t.codec * 8) + t.n_links)

let max_round_trip_error codec (gauge : Gauge.t) =
  let g = Gauge.geom gauge in
  let worst = ref 0. in
  for site = 0 to Geometry.volume g - 1 do
    for mu = 0 to 3 do
      let e = C.round_trip_error codec (Gauge.get gauge site mu) in
      if e > !worst then worst := e
    done
  done;
  !worst
