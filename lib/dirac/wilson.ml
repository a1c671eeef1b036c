(* Wilson hopping term — the radius-one stencil at the heart of the
   paper's solver. One kernel serves three callers through flat index
   tables: the full-volume operator (tables from Lattice.Geometry), the
   domain-decomposed operator (tables from Lattice.Domain, pointing
   into ghost slots), and the even-odd checkerboarded operator used by
   the red-black preconditioned Mobius solve.

   The kernel uses the half-spinor (spin projection) trick: (1 -+
   gamma_mu) has rank two, and in the DeGrand-Rossi basis spins {0,1}
   always project onto {2,3}, so two SU(3) mat-vecs per direction-side
   suffice; the other two spin components are reconstructed by a phase.

   dst(x) = sum_mu [ U_mu(x) (1-g_mu) src(x+mu)
                   + U_mu(x-mu)^dag (1+g_mu) src(x-mu) ]

   The tables name links (site·4 + mu), and a site body reads each
   link in place from one float64 store: the gauge Bigarray itself for
   the full store (link l at l·18, no copy), or, for a packed store
   (Lattice.Recon), an 18-float scratch the link is decoded into once
   per use — which is how the reconstruct-12/8 compression reaches
   every hop flavor (hop, hop_tail, hop_multi, and the Mobius Schur
   chain built on them) through the same bodies. *)

open Bigarray
module Cplx = Linalg.Cplx
module Codec = Linalg.Su3_codec

let ( .%{} ) (f : Linalg.Field.t) i = Array1.unsafe_get f i
let ( .%{}<- ) (f : Linalg.Field.t) i v = Array1.unsafe_set f i v

type store =
  | Full of Linalg.Field.t  (* shared Gauge.data, 18 reals per link *)
  | Packed of Lattice.Recon.t

type t = {
  n_sites : int;  (* sites the kernel writes *)
  src_fwd : int array;  (* 4*i + mu -> source index of the forward hop *)
  src_bwd : int array;
  gauge_fwd : int array;  (* 4*i + mu -> link index of U_mu(x) *)
  gauge_bwd : int array;  (* 4*i + mu -> link index of U_mu(x - mu) *)
  store : store;
  recon : Codec.codec;
}

let floats_per_site = Gamma.floats_per_site
let recon t = t.recon

let make_store recon gauge_data =
  match recon with
  | Codec.Full18 -> Full gauge_data
  | Codec.Recon12 | Codec.Recon8 ->
    Packed (Lattice.Recon.pack_field recon gauge_data)

let of_geometry ?(recon = Codec.Full18) geom gauge_field =
  if not (Lattice.Gauge.geom gauge_field == geom) then
    invalid_arg "Wilson.of_geometry: gauge field on different geometry";
  let n = Lattice.Geometry.volume geom in
  let fwd = Lattice.Geometry.fwd_table geom in
  let bwd = Lattice.Geometry.bwd_table geom in
  {
    n_sites = n;
    src_fwd = fwd;
    src_bwd = bwd;
    gauge_fwd = Array.init (n * 4) (fun e -> e);
    gauge_bwd = Array.init (n * 4) (fun e -> (bwd.(e) * 4) + (e mod 4));
    store = make_store recon (Lattice.Gauge.data gauge_field);
    recon;
  }

let of_domain_rank ?(recon = Codec.Full18) (rg : Lattice.Domain.rank_geometry)
    gauge_ext =
  let n = rg.Lattice.Domain.local_volume in
  let fwd = rg.Lattice.Domain.fwd and bwd = rg.Lattice.Domain.bwd in
  {
    n_sites = n;
    src_fwd = fwd;
    src_bwd = bwd;
    gauge_fwd = Array.init (n * 4) (fun e -> e);
    gauge_bwd = Array.init (n * 4) (fun e -> (bwd.(e) * 4) + (e mod 4));
    store = make_store recon gauge_ext;
    recon;
  }

(* Checkerboarded hopping: writes sites of [parity], reads a source
   field indexed by the eo-index of the opposite parity. *)
let of_checkerboard ?(recon = Codec.Full18) geom gauge_field ~parity =
  if not (Lattice.Gauge.geom gauge_field == geom) then
    invalid_arg "Wilson.of_checkerboard: gauge field on different geometry";
  let half = Lattice.Geometry.half_volume geom in
  let src_fwd = Array.make (half * 4) 0 in
  let src_bwd = Array.make (half * 4) 0 in
  let gauge_fwd = Array.make (half * 4) 0 in
  let gauge_bwd = Array.make (half * 4) 0 in
  for i = 0 to half - 1 do
    let x = Lattice.Geometry.site_of_eo geom ~parity ~index:i in
    for mu = 0 to 3 do
      let xf = Lattice.Geometry.fwd geom x mu in
      let xb = Lattice.Geometry.bwd geom x mu in
      src_fwd.((i * 4) + mu) <- Lattice.Geometry.eo_index geom xf;
      src_bwd.((i * 4) + mu) <- Lattice.Geometry.eo_index geom xb;
      gauge_fwd.((i * 4) + mu) <- (x * 4) + mu;
      gauge_bwd.((i * 4) + mu) <- (xb * 4) + mu
    done
  done;
  {
    n_sites = half;
    src_fwd;
    src_bwd;
    gauge_fwd;
    gauge_bwd;
    store = make_store recon (Lattice.Gauge.data gauge_field);
    recon;
  }

(* The link store a site body reads, and where link [l] sits in it.
   Full18: the shared gauge Bigarray, link l at l·18 — read in place.
   Packed: one 18-float scratch per site body (fresh per pooled range,
   so ranges never share it) that [link_base] decodes link l into,
   at 0. Either way the body reads the same 18 float64 values at the
   same offsets. *)
type links = {
  u : Linalg.Field.t;
  decode : (Lattice.Recon.t * float array) option;  (* packed stream, codec scratch *)
}

let links t =
  match t.store with
  | Full g -> { u = g; decode = None }
  | Packed p ->
    {
      u = Linalg.Field.create 18;
      decode = Some (p, Array.make (Codec.reals (Lattice.Recon.codec p)) 0.);
    }

let link_base lk l =
  match lk.decode with
  | None -> l * 18
  | Some (p, packed) ->
    Lattice.Recon.decode_sub p ~link:l ~packed lk.u;
    0

(* Per-direction projection data: for all four gammas, spins {0,1}
   partner with {2,3}; (1 - sign*gamma) component s in {0,1} is
   src_s - sign*phase_s*src_{partner_s}, and after the mat-vec the
   partner component is -sign*conj(phase_s) times the result. *)
let partner =
  Array.init 4 (fun mu -> (Gamma.gammas.(mu).Gamma.perm.(0), Gamma.gammas.(mu).Gamma.perm.(1)))

let phases =
  Array.init 4 (fun mu ->
      let p0 = Gamma.gammas.(mu).Gamma.phase.(0)
      and p1 = Gamma.gammas.(mu).Gamma.phase.(1) in
      (p0.Cplx.re, p0.Cplx.im, p1.Cplx.re, p1.Cplx.im))

(* The single-RHS site body. Each direction is two straight-line
   halves with the sign folded in. Forward: h = spins {0,1} of
   (1 - gamma_mu) src(x+mu), g = U_mu(x) h, then dst(x) gets g on
   spins {0,1} and -conj(phase)·g on their partners. Backward: the
   same with (1 + gamma_mu), U_mu(x-mu)^dag (row r of U^dag is the
   conjugated column r of U) and +conj(phase)·g. Half-spinors and
   mat-vec sums are let-bound floats, unboxed by ocamlopt; nothing is
   allocated per site or link.

   The arithmetic is the generic body's with sign = -1 / +1 (and the
   U^dag imaginary part -u) substituted: IEEE gives
   x + (-1·y) = x - y, 1·y = y and a - ((-u)·h) = a + u·h bit for bit,
   and every sum keeps its operands, order and association, so the
   results are the bits of [make_do_site_multi] at k = 1. One
   difference: a mat-vec sum here starts from its first term where the
   generic body starts from 0., which can only change a -0 sum into
   +0 — and no zero's sign reaches dst, which starts at +0 and under
   round-to-nearest never becomes -0 by adding or subtracting
   (+0 + -0 = +0, and x ± 0 = x otherwise). dst(x) is zeroed and then accumulated in place; writes
   land only in dst[x*fps, (x+1)*fps) of the written site and all
   reads are of the source field and the link store — site-partitioned
   execution is race-free. *)
let make_do_site t ~(src : Linalg.Field.t) ~(dst : Linalg.Field.t) =
  let lk = links t in
  let u = lk.u in
  let fwd d xb4 mu =
    let pa, pb = partner.(mu) in
    let p0r, p0i, p1r, p1i = phases.(mu) in
    let nb = Array.unsafe_get t.src_fwd (xb4 + mu) * floats_per_site in
    let ub = link_base lk (Array.unsafe_get t.gauge_fwd (xb4 + mu)) in
    (* h = (1 - gamma_mu) src, spins 0 and 1; their partners are spins pa, pb *)
    let s00 = nb and t00 = nb + (pa * 6) in
    let h00r =
      src.%{s00} -. ((p0r *. src.%{t00}) -. (p0i *. src.%{t00 + 1}))
    and h00i =
      src.%{s00 + 1} -. ((p0r *. src.%{t00 + 1}) +. (p0i *. src.%{t00}))
    in
    let s01 = nb + 2 and t01 = nb + (((pa * 3) + 1) * 2) in
    let h01r =
      src.%{s01} -. ((p0r *. src.%{t01}) -. (p0i *. src.%{t01 + 1}))
    and h01i =
      src.%{s01 + 1} -. ((p0r *. src.%{t01 + 1}) +. (p0i *. src.%{t01}))
    in
    let s02 = nb + 4 and t02 = nb + (((pa * 3) + 2) * 2) in
    let h02r =
      src.%{s02} -. ((p0r *. src.%{t02}) -. (p0i *. src.%{t02 + 1}))
    and h02i =
      src.%{s02 + 1} -. ((p0r *. src.%{t02 + 1}) +. (p0i *. src.%{t02}))
    in
    let s10 = nb + 6 and t10 = nb + (pb * 6) in
    let h10r =
      src.%{s10} -. ((p1r *. src.%{t10}) -. (p1i *. src.%{t10 + 1}))
    and h10i =
      src.%{s10 + 1} -. ((p1r *. src.%{t10 + 1}) +. (p1i *. src.%{t10}))
    in
    let s11 = nb + 8 and t11 = nb + (((pb * 3) + 1) * 2) in
    let h11r =
      src.%{s11} -. ((p1r *. src.%{t11}) -. (p1i *. src.%{t11 + 1}))
    and h11i =
      src.%{s11 + 1} -. ((p1r *. src.%{t11 + 1}) +. (p1i *. src.%{t11}))
    in
    let s12 = nb + 10 and t12 = nb + (((pb * 3) + 2) * 2) in
    let h12r =
      src.%{s12} -. ((p1r *. src.%{t12}) -. (p1i *. src.%{t12 + 1}))
    and h12i =
      src.%{s12 + 1} -. ((p1r *. src.%{t12 + 1}) +. (p1i *. src.%{t12}))
    in
    for r = 0 to 2 do
      (* row r of U_mu(x) *)
      let e = ub + (r * 6) in
      let u0r = u.%{e} and u0i = u.%{e + 1} in
      let u1r = u.%{e + 2} and u1i = u.%{e + 3} in
      let u2r = u.%{e + 4} and u2i = u.%{e + 5} in
      let g0r =
        ((u0r *. h00r) -. (u0i *. h00i)) +. ((u1r *. h01r) -. (u1i *. h01i))
        +. ((u2r *. h02r) -. (u2i *. h02i))
      and g0i =
        ((u0r *. h00i) +. (u0i *. h00r)) +. ((u1r *. h01i) +. (u1i *. h01r))
        +. ((u2r *. h02i) +. (u2i *. h02r))
      and g1r =
        ((u0r *. h10r) -. (u0i *. h10i)) +. ((u1r *. h11r) -. (u1i *. h11i))
        +. ((u2r *. h12r) -. (u2i *. h12i))
      and g1i =
        ((u0r *. h10i) +. (u0i *. h10r)) +. ((u1r *. h11i) +. (u1i *. h11r))
        +. ((u2r *. h12i) +. (u2i *. h12r))
      in
      (* dst += g on spins 0/1, -conj(phase)·g on the partners *)
      let o0 = d + (r * 2) and o1 = d + 6 + (r * 2) in
      let oa = d + (pa * 6) + (r * 2) and ob = d + (pb * 6) + (r * 2) in
      dst.%{o0} <- dst.%{o0} +. g0r;
      dst.%{o0 + 1} <- dst.%{o0 + 1} +. g0i;
      dst.%{oa} <- dst.%{oa} -. ((p0r *. g0r) +. (p0i *. g0i));
      dst.%{oa + 1} <- dst.%{oa + 1} -. ((p0r *. g0i) -. (p0i *. g0r));
      dst.%{o1} <- dst.%{o1} +. g1r;
      dst.%{o1 + 1} <- dst.%{o1 + 1} +. g1i;
      dst.%{ob} <- dst.%{ob} -. ((p1r *. g1r) +. (p1i *. g1i));
      dst.%{ob + 1} <- dst.%{ob + 1} -. ((p1r *. g1i) -. (p1i *. g1r))
    done
  in
  let bwd d xb4 mu =
    let pa, pb = partner.(mu) in
    let p0r, p0i, p1r, p1i = phases.(mu) in
    let nb = Array.unsafe_get t.src_bwd (xb4 + mu) * floats_per_site in
    let ub = link_base lk (Array.unsafe_get t.gauge_bwd (xb4 + mu)) in
    (* h = (1 + gamma_mu) src, spins 0 and 1; their partners are spins pa, pb *)
    let s00 = nb and t00 = nb + (pa * 6) in
    let h00r =
      src.%{s00} +. ((p0r *. src.%{t00}) -. (p0i *. src.%{t00 + 1}))
    and h00i =
      src.%{s00 + 1} +. ((p0r *. src.%{t00 + 1}) +. (p0i *. src.%{t00}))
    in
    let s01 = nb + 2 and t01 = nb + (((pa * 3) + 1) * 2) in
    let h01r =
      src.%{s01} +. ((p0r *. src.%{t01}) -. (p0i *. src.%{t01 + 1}))
    and h01i =
      src.%{s01 + 1} +. ((p0r *. src.%{t01 + 1}) +. (p0i *. src.%{t01}))
    in
    let s02 = nb + 4 and t02 = nb + (((pa * 3) + 2) * 2) in
    let h02r =
      src.%{s02} +. ((p0r *. src.%{t02}) -. (p0i *. src.%{t02 + 1}))
    and h02i =
      src.%{s02 + 1} +. ((p0r *. src.%{t02 + 1}) +. (p0i *. src.%{t02}))
    in
    let s10 = nb + 6 and t10 = nb + (pb * 6) in
    let h10r =
      src.%{s10} +. ((p1r *. src.%{t10}) -. (p1i *. src.%{t10 + 1}))
    and h10i =
      src.%{s10 + 1} +. ((p1r *. src.%{t10 + 1}) +. (p1i *. src.%{t10}))
    in
    let s11 = nb + 8 and t11 = nb + (((pb * 3) + 1) * 2) in
    let h11r =
      src.%{s11} +. ((p1r *. src.%{t11}) -. (p1i *. src.%{t11 + 1}))
    and h11i =
      src.%{s11 + 1} +. ((p1r *. src.%{t11 + 1}) +. (p1i *. src.%{t11}))
    in
    let s12 = nb + 10 and t12 = nb + (((pb * 3) + 2) * 2) in
    let h12r =
      src.%{s12} +. ((p1r *. src.%{t12}) -. (p1i *. src.%{t12 + 1}))
    and h12i =
      src.%{s12 + 1} +. ((p1r *. src.%{t12 + 1}) +. (p1i *. src.%{t12}))
    in
    for r = 0 to 2 do
      (* row r of U_mu(x-mu)^dag: conj of column r of the stored link *)
      let e = ub + (r * 2) in
      let v0r = u.%{e} and v0i = u.%{e + 1} in
      let v1r = u.%{e + 6} and v1i = u.%{e + 7} in
      let v2r = u.%{e + 12} and v2i = u.%{e + 13} in
      let g0r =
        ((v0r *. h00r) +. (v0i *. h00i)) +. ((v1r *. h01r) +. (v1i *. h01i))
        +. ((v2r *. h02r) +. (v2i *. h02i))
      and g0i =
        ((v0r *. h00i) -. (v0i *. h00r)) +. ((v1r *. h01i) -. (v1i *. h01r))
        +. ((v2r *. h02i) -. (v2i *. h02r))
      and g1r =
        ((v0r *. h10r) +. (v0i *. h10i)) +. ((v1r *. h11r) +. (v1i *. h11i))
        +. ((v2r *. h12r) +. (v2i *. h12i))
      and g1i =
        ((v0r *. h10i) -. (v0i *. h10r)) +. ((v1r *. h11i) -. (v1i *. h11r))
        +. ((v2r *. h12i) -. (v2i *. h12r))
      in
      (* dst += g on spins 0/1, +conj(phase)·g on the partners *)
      let o0 = d + (r * 2) and o1 = d + 6 + (r * 2) in
      let oa = d + (pa * 6) + (r * 2) and ob = d + (pb * 6) + (r * 2) in
      dst.%{o0} <- dst.%{o0} +. g0r;
      dst.%{o0 + 1} <- dst.%{o0 + 1} +. g0i;
      dst.%{oa} <- dst.%{oa} +. ((p0r *. g0r) +. (p0i *. g0i));
      dst.%{oa + 1} <- dst.%{oa + 1} +. ((p0r *. g0i) -. (p0i *. g0r));
      dst.%{o1} <- dst.%{o1} +. g1r;
      dst.%{o1 + 1} <- dst.%{o1 + 1} +. g1i;
      dst.%{ob} <- dst.%{ob} +. ((p1r *. g1r) +. (p1i *. g1i));
      dst.%{ob + 1} <- dst.%{ob + 1} +. ((p1r *. g1i) -. (p1i *. g1r))
    done
  in
  fun x ->
    let d = x * floats_per_site in
    for k = d to d + floats_per_site - 1 do
      dst.%{k} <- 0.
    done;
    let xb4 = x * 4 in
    for mu = 0 to 3 do
      fwd d xb4 mu;
      bwd d xb4 mu
    done

let check_dst t (dst : Linalg.Field.t) =
  if Linalg.Field.length dst < t.n_sites * floats_per_site then
    invalid_arg "Wilson.hop: dst too short"

(* [lo, hi) in sites; fresh scratch per range. *)
let hop_range t ~src ~dst lo hi =
  let do_site = make_do_site t ~src ~dst in
  for x = lo to hi - 1 do
    do_site x
  done

let hop_sites t ?(sites : int array option) ~(src : Linalg.Field.t)
    ~(dst : Linalg.Field.t) () =
  check_dst t dst;
  match sites with
  | None -> hop_range t ~src ~dst 0 t.n_sites
  | Some sites -> Array.iter (make_do_site t ~src ~dst) sites

(* Site-partitioned; [chunk] is in sites. *)
let hop ?pool ?chunk t ~src ~dst =
  check_dst t dst;
  Linalg.Field.run_pooled
    (Linalg.Field.implicit_pool ?pool (t.n_sites * floats_per_site))
    ?chunk ~n:t.n_sites (hop_range t ~src ~dst)

(* ---- batched multi-RHS hop: k spinors per gauge-link load ----
   The whole point of the batch is traffic amortization: the gauge
   element (ur, ui) of each (site, mu, side, row, column) is loaded
   once and applied to every RHS's half-spinor before the next element
   is touched, so the link field streams once per site instead of once
   per solve. Links are read through the same [links] store as the
   single-RHS body. Per RHS the float operations — operands, order,
   association — are [make_do_site]'s before its signs were folded in
   (generic [sign *.] and the U^dag [-. ui]), which its folded form
   reproduces bit for bit, only interleaved across the batch: each dst
   is bit-identical to the independent [hop]'s (serial or pooled; site
   partitioning is race-free exactly as for the single-RHS kernel,
   every range closing over fresh scratch). The single-RHS body stays:
   at k = 1 the batched Möbius Schur chain on this body took a median
   1.84-1.97x the single-RHS chain's time (5 runs of 31x50 interleaved
   applies, 4^4 x L5 = 4, 2-core Xeon). *)
let make_do_site_multi t ~(srcs : Linalg.Field.t array)
    ~(dsts : Linalg.Field.t array) =
  let k = Array.length srcs in
  let accs = Array.init k (fun _ -> Array.make floats_per_site 0.) in
  let h0s = Array.init k (fun _ -> Array.make 6 0.) in
  let h1s = Array.init k (fun _ -> Array.make 6 0.) in
  let g0s = Array.init k (fun _ -> Array.make 6 0.) in
  let g1s = Array.init k (fun _ -> Array.make 6 0.) in
  let r0s = Array.make k 0. and i0s = Array.make k 0. in
  let r1s = Array.make k 0. and i1s = Array.make k 0. in
  let lk = links t in
  let u = lk.u in
  let do_site x =
    for v = 0 to k - 1 do
      Array.fill accs.(v) 0 floats_per_site 0.
    done;
    let xb4 = x * 4 in
    for mu = 0 to 3 do
      let pa, pb = partner.(mu) in
      let p0r, p0i, p1r, p1i = phases.(mu) in
      for side = 0 to 1 do
        let sign = if side = 0 then -1. else 1. in
        let nb =
          (if side = 0 then Array.unsafe_get t.src_fwd (xb4 + mu)
           else Array.unsafe_get t.src_bwd (xb4 + mu))
          * floats_per_site
        in
        (* one link read (and, packed, one reconstruction) per k RHS *)
        let ub =
          link_base lk
            (if side = 0 then Array.unsafe_get t.gauge_fwd (xb4 + mu)
             else Array.unsafe_get t.gauge_bwd (xb4 + mu))
        in
        for v = 0 to k - 1 do
          let src = Array.unsafe_get srcs v in
          let h0 = h0s.(v) and h1 = h1s.(v) in
          for c = 0 to 2 do
            let o0 = nb + (c * 2) in
            let opa = nb + (((pa * 3) + c) * 2) in
            let s0r = Array1.unsafe_get src o0
            and s0i = Array1.unsafe_get src (o0 + 1) in
            let sar = Array1.unsafe_get src opa
            and sai = Array1.unsafe_get src (opa + 1) in
            h0.(c * 2) <- s0r +. (sign *. ((p0r *. sar) -. (p0i *. sai)));
            h0.((c * 2) + 1) <- s0i +. (sign *. ((p0r *. sai) +. (p0i *. sar)));
            let o1 = nb + ((3 + c) * 2) in
            let opb = nb + (((pb * 3) + c) * 2) in
            let s1r = Array1.unsafe_get src o1
            and s1i = Array1.unsafe_get src (o1 + 1) in
            let sbr = Array1.unsafe_get src opb
            and sbi = Array1.unsafe_get src (opb + 1) in
            h1.(c * 2) <- s1r +. (sign *. ((p1r *. sbr) -. (p1i *. sbi)));
            h1.((c * 2) + 1) <- s1i +. (sign *. ((p1r *. sbi) +. (p1i *. sbr)))
          done
        done;
        for row = 0 to 2 do
          for v = 0 to k - 1 do
            r0s.(v) <- 0.;
            i0s.(v) <- 0.;
            r1s.(v) <- 0.;
            i1s.(v) <- 0.
          done;
          for col = 0 to 2 do
            let e =
              if side = 0 then 2 * ((3 * row) + col)
              else 2 * ((3 * col) + row)
            in
            (* the amortized load: one gauge element, k RHS *)
            let ur = u.%{ub + e} in
            let ui = if side = 0 then u.%{ub + e + 1} else -.u.%{ub + e + 1} in
            for v = 0 to k - 1 do
              let h0 = h0s.(v) and h1 = h1s.(v) in
              let h0r = h0.(col * 2) and h0i = h0.((col * 2) + 1) in
              r0s.(v) <- r0s.(v) +. ((ur *. h0r) -. (ui *. h0i));
              i0s.(v) <- i0s.(v) +. ((ur *. h0i) +. (ui *. h0r));
              let h1r = h1.(col * 2) and h1i = h1.((col * 2) + 1) in
              r1s.(v) <- r1s.(v) +. ((ur *. h1r) -. (ui *. h1i));
              i1s.(v) <- i1s.(v) +. ((ur *. h1i) +. (ui *. h1r))
            done
          done;
          for v = 0 to k - 1 do
            g0s.(v).(row * 2) <- r0s.(v);
            g0s.(v).((row * 2) + 1) <- i0s.(v);
            g1s.(v).(row * 2) <- r1s.(v);
            g1s.(v).((row * 2) + 1) <- i1s.(v)
          done
        done;
        let rs = sign in
        for v = 0 to k - 1 do
          let acc = accs.(v) and g0 = g0s.(v) and g1 = g1s.(v) in
          for c = 0 to 2 do
            let gr = g0.(c * 2) and gi = g0.((c * 2) + 1) in
            acc.(c * 2) <- acc.(c * 2) +. gr;
            acc.((c * 2) + 1) <- acc.((c * 2) + 1) +. gi;
            let oa = ((pa * 3) + c) * 2 in
            acc.(oa) <- acc.(oa) +. (rs *. ((p0r *. gr) +. (p0i *. gi)));
            acc.(oa + 1) <- acc.(oa + 1) +. (rs *. ((p0r *. gi) -. (p0i *. gr)));
            let hr = g1.(c * 2) and hi = g1.((c * 2) + 1) in
            let o1 = (3 + c) * 2 in
            acc.(o1) <- acc.(o1) +. hr;
            acc.(o1 + 1) <- acc.(o1 + 1) +. hi;
            let ob = ((pb * 3) + c) * 2 in
            acc.(ob) <- acc.(ob) +. (rs *. ((p1r *. hr) +. (p1i *. hi)));
            acc.(ob + 1) <- acc.(ob + 1) +. (rs *. ((p1r *. hi) -. (p1i *. hr)))
          done
        done
      done
    done;
    let db = x * floats_per_site in
    for v = 0 to k - 1 do
      let dst = Array.unsafe_get dsts v and acc = accs.(v) in
      for c = 0 to floats_per_site - 1 do
        Array1.unsafe_set dst (db + c) acc.(c)
      done
    done
  in
  do_site

let check_multi name t (srcs : Linalg.Field.t array)
    (dsts : Linalg.Field.t array) =
  let k = Array.length srcs in
  if k = 0 then invalid_arg (name ^ ": empty batch");
  if Array.length dsts <> k then invalid_arg (name ^ ": batch width mismatch");
  Array.iter (fun dst -> check_dst t dst) dsts;
  k

let hop_multi_range t ~srcs ~dsts lo hi =
  let do_site = make_do_site_multi t ~srcs ~dsts in
  for x = lo to hi - 1 do
    do_site x
  done

(* The cutoff is tested against the batch float count. *)
let hop_multi ?pool ?chunk t ~srcs ~dsts =
  let k = check_multi "Wilson.hop_multi" t srcs dsts in
  Linalg.Field.run_pooled
    (Linalg.Field.implicit_pool ?pool (k * t.n_sites * floats_per_site))
    ?chunk ~n:t.n_sites (hop_multi_range t ~srcs ~dsts)

(* ---- tail-fused hop: stencil + output tail in one pass ----
   The tail (optional xpay + dot, Linalg.Fused.tail) runs per tile
   right after the stencil writes it, while the tile is hot — the QUDA
   move of fusing trailing linear algebra into the dslash, which is
   what lets the CG p·Ap reduction stop being a separate full-vector
   sweep. Bit-identity with hop-then-xpay_dot/dot_re needs the
   canonical reduction association, so the tail is tiled at the
   smallest site count whose float span is a whole number of
   [Field.reduce_block]s (lcm(24, 2048)/24 = 256 sites = 3 blocks):
   chunk boundaries rounded to tiles can never split a reduction
   block, each block partial is accumulated serially in index order by
   exactly one worker, and the partials fold in block order on the
   caller — [Field.block_fold]'s association for every geometry. *)

let tail_tile_sites =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  Linalg.Field.reduce_block / gcd floats_per_site Linalg.Field.reduce_block

let hop_tail_range t ~src ~dst ~tail ~(partials : float array) lo hi =
  let do_site = make_do_site t ~src ~dst in
  let block = Linalg.Field.reduce_block in
  let s = ref lo in
  while !s < hi do
    let s1 = min hi (!s + tail_tile_sites) in
    for x = !s to s1 - 1 do
      do_site x
    done;
    let f1 = s1 * floats_per_site in
    let b = ref (!s * floats_per_site / block) in
    while !b * block < f1 do
      let blo = !b * block in
      partials.(!b) <-
        Linalg.Fused.tail_term tail ~dst blo (min f1 ((!b + 1) * block));
      incr b
    done;
    s := s1
  done

let round_to_tiles c = (max 1 c + tail_tile_sites - 1) / tail_tile_sites * tail_tile_sites

(* An explicit chunk (in sites) is rounded up to whole tiles; without
   one the pool's default chunk is. *)
let hop_tail ?pool ?chunk t ~src ~dst ~tail =
  check_dst t dst;
  let n_floats = t.n_sites * floats_per_site in
  Linalg.Fused.tail_check "Wilson.hop_tail" ~n:n_floats ~dst tail;
  let n_blocks =
    max 1 ((n_floats + Linalg.Field.reduce_block - 1) / Linalg.Field.reduce_block)
  in
  let partials = Array.make n_blocks 0. in
  (match Linalg.Field.implicit_pool ?pool n_floats with
  | Some pool ->
    let chunk =
      round_to_tiles
        (match chunk with
        | Some c -> c
        | None -> Util.Pool.default_chunk pool t.n_sites)
    in
    Util.Pool.parallel_for pool ~chunk ~n:t.n_sites
      (hop_tail_range t ~src ~dst ~tail ~partials)
  | None -> hop_tail_range t ~src ~dst ~tail ~partials 0 t.n_sites);
  let s = Linalg.Field.fold_partials ~zero:0. ~add:( +. ) partials in
  Linalg.Field.Sanitize.check_vec "Wilson.hop_tail" dst;
  (match tail.Linalg.Fused.t_xpay with
  | Some (out, _) -> Linalg.Field.Sanitize.check_vec "Wilson.hop_tail" out
  | None -> ());
  Linalg.Field.Sanitize.check_scalar "Wilson.hop_tail" s

(* Full Wilson operator: M psi = (4 + mass) psi - (1/2) H psi.
   src and dst must not alias. *)
let apply t ~mass ~(src : Linalg.Field.t) ~(dst : Linalg.Field.t) =
  hop t ~src ~dst;
  let d = 4. +. mass in
  for i = 0 to (t.n_sites * floats_per_site) - 1 do
    Array1.unsafe_set dst i
      ((d *. Array1.unsafe_get src i) -. (0.5 *. Array1.unsafe_get dst i))
  done

(* M^dag = gamma5 M gamma5 (gamma5-hermiticity of the Wilson operator). *)
let apply_dagger t ~mass ~src ~dst =
  let tmp = Linalg.Field.create (Linalg.Field.length src) in
  Gamma.apply_gamma5 src tmp;
  let out = Linalg.Field.create (Linalg.Field.length dst) in
  apply t ~mass ~src:tmp ~dst:out;
  Gamma.apply_gamma5 out dst

(* Batched full operator: one hop_multi sweep, then the per-RHS
   diagonal — the closing loop is [apply]'s, so dst v is bit-identical
   to the independent [apply] on srcs.(v). *)
let apply_multi t ~mass ~(srcs : Linalg.Field.t array)
    ~(dsts : Linalg.Field.t array) =
  hop_multi t ~srcs ~dsts;
  let d = 4. +. mass in
  Array.iteri
    (fun v (dst : Linalg.Field.t) ->
      let src = srcs.(v) in
      for i = 0 to (t.n_sites * floats_per_site) - 1 do
        Array1.unsafe_set dst i
          ((d *. Array1.unsafe_get src i) -. (0.5 *. Array1.unsafe_get dst i))
      done)
    dsts

let apply_dagger_multi t ~mass ~(srcs : Linalg.Field.t array)
    ~(dsts : Linalg.Field.t array) =
  let k = Array.length srcs in
  let tmps =
    Array.init k (fun v -> Linalg.Field.create (Linalg.Field.length srcs.(v)))
  in
  Array.iteri (fun v src -> Gamma.apply_gamma5 src tmps.(v)) srcs;
  let outs =
    Array.init k (fun v -> Linalg.Field.create (Linalg.Field.length dsts.(v)))
  in
  apply_multi t ~mass ~srcs:tmps ~dsts:outs;
  Array.iteri (fun v out -> Gamma.apply_gamma5 out dsts.(v)) outs
