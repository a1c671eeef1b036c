(* Mobius domain-wall fermion operator. With D_W the Wilson kernel at
   mass -M5, P± = (1 ± gamma5)/2 and s the fifth dimension (s-outer
   field layout: slice s is a contiguous 4D spinor field):

     D psi_s = (b5 D_W + 1) psi_s
             + (c5 D_W - 1) (P- psi_{s+1} + P+ psi_{s-1})

   with the chiral boundary conditions psi_{L5} -> -m psi_0 (P- side)
   and psi_{-1} -> -m psi_{L5-1} (P+ side). Shamir domain wall is
   b5 = 1, c5 = 0; Mobius scales b5 + c5 = alpha with b5 - c5 = 1.

   Splitting D_W = (4 - M5) - H/2 into its site-diagonal and hopping
   parts separates D into

     D = M5d + Hop,   M5d = a + b (P- d_{s+1} + P+ d_{s-1}),
                      Hop = -(1/2) H (b5 + c5 (P- d_{s+1} + P+ d_{s-1}))

   with a = b5 (4 - M5) + 1 and b = c5 (4 - M5) - 1. M5d is diagonal in
   4D space and bidiagonal-cyclic in s per chirality, so it inverts in
   closed form (the m5inv below) — this is what makes the red-black
   (4D even/odd) Schur complement S = M5d - Hop_oe M5d^{-1} Hop_eo
   cheap, exactly as in the paper's production solver. *)

open Bigarray

type params = {
  l5 : int;
  m5 : float;  (* domain-wall height, in (0, 2) *)
  b5 : float;
  c5 : float;
  mass : float;  (* input quark mass m *)
}

let shamir ~l5 ~m5 ~mass = { l5; m5; b5 = 1.; c5 = 0.; mass }

let mobius ~l5 ~m5 ~alpha ~mass =
  { l5; m5; b5 = (alpha +. 1.) /. 2.; c5 = (alpha -. 1.) /. 2.; mass }

let diag_a p = (p.b5 *. (4. -. p.m5)) +. 1.
let diag_b p = (p.c5 *. (4. -. p.m5)) -. 1.

let fps = Gamma.floats_per_site

(* The code below hard-wires gamma5 = diag(1,1,-1,-1): spins 0,1 are
   the + chirality (coupled to s-1), spins 2,3 the - chirality
   (coupled to s+1). Checked here against the computed algebra. *)
let () =
  assert (Gamma.gamma5_diag = [| 1.; 1.; -1.; -1. |])

(* ---- M5d: the 4D-site-diagonal, s-coupled part ---- *)

(* dst_s = a src_s + b (P- src_{s+1} + P+ src_{s-1}), corner factors -m.
   [n4] is the number of 4D sites per slice. No aliasing. *)
let apply_m5 p ~n4 ~(src : Linalg.Field.t) ~(dst : Linalg.Field.t) =
  let a = diag_a p and b = diag_b p in
  let m = p.mass in
  let l5 = p.l5 in
  for s = 0 to l5 - 1 do
    let base = s * n4 * fps in
    (* + chirality: source slice s-1 (corner: -m * slice l5-1) *)
    let up_base, up_scale =
      if s = 0 then ((l5 - 1) * n4 * fps, -.m *. b) else ((s - 1) * n4 * fps, b)
    in
    (* - chirality: source slice s+1 (corner: -m * slice 0) *)
    let dn_base, dn_scale =
      if s = l5 - 1 then (0, -.m *. b) else ((s + 1) * n4 * fps, b)
    in
    for site = 0 to n4 - 1 do
      let o = base + (site * fps) in
      let ou = up_base + (site * fps) in
      let od = dn_base + (site * fps) in
      (* spins 0,1 = 12 floats of + chirality *)
      for k = 0 to 11 do
        Array1.unsafe_set dst (o + k)
          ((a *. Array1.unsafe_get src (o + k))
          +. (up_scale *. Array1.unsafe_get src (ou + k)))
      done;
      for k = 12 to 23 do
        Array1.unsafe_set dst (o + k)
          ((a *. Array1.unsafe_get src (o + k))
          +. (dn_scale *. Array1.unsafe_get src (od + k)))
      done
    done
  done

(* Adjoint of M5d. With U the up-shift (reads s+1, corner -m at
   s = L-1 from slice 0) and D the down-shift (reads s-1, corner -m at
   s = 0 from slice L-1), M5d = a + b (P- U + P+ D) and U^dag = D, so
   M5d^dag = a + b (P- D + P+ U): the chirality-to-shift association
   swaps. *)
let apply_m5_dagger p ~n4 ~(src : Linalg.Field.t) ~(dst : Linalg.Field.t) =
  let a = diag_a p and b = diag_b p in
  let m = p.mass in
  let l5 = p.l5 in
  for s = 0 to l5 - 1 do
    let base = s * n4 * fps in
    (* + chirality now couples to slice s+1 (corner: -m * slice 0) *)
    let up_base, up_scale =
      if s = l5 - 1 then (0, -.m *. b) else ((s + 1) * n4 * fps, b)
    in
    (* - chirality now couples to slice s-1 (corner: -m * slice l5-1) *)
    let dn_base, dn_scale =
      if s = 0 then ((l5 - 1) * n4 * fps, -.m *. b) else ((s - 1) * n4 * fps, b)
    in
    for site = 0 to n4 - 1 do
      let o = base + (site * fps) in
      let ou = up_base + (site * fps) in
      let od = dn_base + (site * fps) in
      for k = 0 to 11 do
        Array1.unsafe_set dst (o + k)
          ((a *. Array1.unsafe_get src (o + k))
          +. (up_scale *. Array1.unsafe_get src (ou + k)))
      done;
      for k = 12 to 23 do
        Array1.unsafe_set dst (o + k)
          ((a *. Array1.unsafe_get src (o + k))
          +. (dn_scale *. Array1.unsafe_get src (od + k)))
      done
    done
  done

(* Closed-form inverse of M5d: per chirality and per component, solve
   the bidiagonal-cyclic system (a I + b C) x = y by forward (or
   backward) substitution plus a rank-one Sherman-Morrison correction
   for the -m corner. [chirality_swap] inverts M5d^dag instead. *)
let apply_m5inv_gen ~chirality_swap p ~n4 ~(src : Linalg.Field.t)
    ~(dst : Linalg.Field.t) =
  let a = diag_a p and b = diag_b p in
  let m = p.mass in
  let l5 = p.l5 in
  let r = -.b /. a in
  (* w_s = r^s / a solves (aI + bN) w = e_0 for the lower-shift N. *)
  let w = Array.make l5 0. in
  w.(0) <- 1. /. a;
  for s = 1 to l5 - 1 do
    w.(s) <- w.(s - 1) *. r
  done;
  let denom_plus = 1. -. (m *. b *. w.(l5 - 1)) in
  let denom_minus = denom_plus in
  let stride = n4 * fps in
  (* Which 12 floats couple to s-1 (forward substitution) vs s+1:
     for M5d it is the + chirality (spins 0,1 = floats 0..11); for
     M5d^dag the roles swap. *)
  let fwd_lo, bwd_lo = if chirality_swap then (12, 0) else (0, 12) in
  for site = 0 to n4 - 1 do
    let sb = site * fps in
    (* forward substitution in s *)
    for k = fwd_lo to fwd_lo + 11 do
      let o = sb + k in
      (* z_0 = y_0/a ; z_s = (y_s - b z_{s-1})/a, stored into dst *)
      Array1.unsafe_set dst o (Array1.unsafe_get src o /. a);
      for s = 1 to l5 - 1 do
        let cur = (s * stride) + o in
        let prev = ((s - 1) * stride) + o in
        Array1.unsafe_set dst cur
          ((Array1.unsafe_get src cur -. (b *. Array1.unsafe_get dst prev)) /. a)
      done;
      (* corner: x_{L-1} = z_{L-1}/denom; x_s = z_s + m b x_{L-1} w_s *)
      let x_last = Array1.unsafe_get dst (((l5 - 1) * stride) + o) /. denom_plus in
      let corr = m *. b *. x_last in
      for s = 0 to l5 - 2 do
        let cur = (s * stride) + o in
        Array1.unsafe_set dst cur (Array1.unsafe_get dst cur +. (corr *. w.(s)))
      done;
      Array1.unsafe_set dst (((l5 - 1) * stride) + o) x_last
    done;
    (* backward substitution in s *)
    for k = bwd_lo to bwd_lo + 11 do
      let o = sb + k in
      Array1.unsafe_set dst (((l5 - 1) * stride) + o)
        (Array1.unsafe_get src (((l5 - 1) * stride) + o) /. a);
      for s = l5 - 2 downto 0 do
        let cur = (s * stride) + o in
        let next = ((s + 1) * stride) + o in
        Array1.unsafe_set dst cur
          ((Array1.unsafe_get src cur -. (b *. Array1.unsafe_get dst next)) /. a)
      done;
      (* corner at row L-1 couples to x_0; w'_s = r^{L-1-s}/a *)
      let x_first = Array1.unsafe_get dst o /. denom_minus in
      let corr = m *. b *. x_first in
      for s = 1 to l5 - 1 do
        let cur = (s * stride) + o in
        Array1.unsafe_set dst cur
          (Array1.unsafe_get dst cur +. (corr *. w.(l5 - 1 - s)))
      done;
      Array1.unsafe_set dst o x_first
    done
  done

let apply_m5inv p ~n4 ~src ~dst =
  apply_m5inv_gen ~chirality_swap:false p ~n4 ~src ~dst

let apply_m5inv_dagger p ~n4 ~src ~dst =
  apply_m5inv_gen ~chirality_swap:true p ~n4 ~src ~dst

(* ---- Hop: the parity-changing (or full) hopping part ---- *)

(* phi_s = b5 src_s + c5 (P- src_{s+1} + P+ src_{s-1}) with corners;
   written for one slice [s] into [phi] (n4 sites). *)
let combine_slice p ~n4 ~s ~(src : Linalg.Field.t) ~(phi : Linalg.Field.t) =
  let l5 = p.l5 in
  let m = p.mass in
  let base = s * n4 * fps in
  let up_base, up_scale =
    if s = 0 then ((l5 - 1) * n4 * fps, -.m *. p.c5)
    else ((s - 1) * n4 * fps, p.c5)
  in
  let dn_base, dn_scale =
    if s = l5 - 1 then (0, -.m *. p.c5) else ((s + 1) * n4 * fps, p.c5)
  in
  for site = 0 to n4 - 1 do
    let o = base + (site * fps) in
    let ou = up_base + (site * fps) in
    let od = dn_base + (site * fps) in
    let po = site * fps in
    for k = 0 to 11 do
      Array1.unsafe_set phi (po + k)
        ((p.b5 *. Array1.unsafe_get src (o + k))
        +. (up_scale *. Array1.unsafe_get src (ou + k)))
    done;
    for k = 12 to 23 do
      Array1.unsafe_set phi (po + k)
        ((p.b5 *. Array1.unsafe_get src (o + k))
        +. (dn_scale *. Array1.unsafe_get src (od + k)))
    done
  done

(* s-slices make a natural parallel axis: slice s writes only
   dst[s·n4_dst·fps, (s+1)·n4_dst·fps) and reads only src, so slice-
   partitioned execution is race-free. Each pooled range gets its own
   phi/scratch slice buffers; the Wilson.hop inside runs serially on a
   worker (the pool's re-entrancy guard), so there is exactly one
   level of parallelism. Chunk is one slice: l5 is small (8–32) and a
   slice is a full 4D stencil application. *)
let slice_pool p ~n4_dst =
  if p.l5 > 1 then Linalg.Field.implicit_pool (p.l5 * n4_dst * fps) else None

let run_slices p ~n4_dst range =
  Linalg.Field.run_pooled (slice_pool p ~n4_dst) ~chunk:1 ~n:p.l5 range

(* dst_s += -(1/2) H phi_s for every slice, using the given 4D kernel.
   [src] has n4_src-site slices (the kernel's source index space),
   [dst] has n4_dst-site slices (= kernel.n_sites). *)
let apply_hop p kernel ~n4_src ~n4_dst ~(src : Linalg.Field.t)
    ~(dst : Linalg.Field.t) ~accumulate =
  let range lo hi =
    let phi = Linalg.Field.create (n4_src * fps) in
    let scratch = Linalg.Field.create (n4_dst * fps) in
    for s = lo to hi - 1 do
      combine_slice p ~n4:n4_src ~s ~src ~phi;
      Wilson.hop kernel ~src:phi ~dst:scratch;
      let base = s * n4_dst * fps in
      if accumulate then
        for k = 0 to (n4_dst * fps) - 1 do
          Array1.unsafe_set dst (base + k)
            (Array1.unsafe_get dst (base + k)
            -. (0.5 *. Array1.unsafe_get scratch k))
        done
      else
        for k = 0 to (n4_dst * fps) - 1 do
          Array1.unsafe_set dst (base + k) (-0.5 *. Array1.unsafe_get scratch k)
        done
    done
  in
  run_slices p ~n4_dst range

(* Adjoint s-combination: phi_s = b5 chi_s + c5 (P- chi_{s-1} + P+
   chi_{s+1}) with the swapped corners (see apply_m5_dagger). *)
let combine_slice_dagger p ~n4 ~s ~(src : Linalg.Field.t) ~(phi : Linalg.Field.t) =
  let l5 = p.l5 in
  let m = p.mass in
  let base = s * n4 * fps in
  let up_base, up_scale =
    if s = l5 - 1 then (0, -.m *. p.c5) else ((s + 1) * n4 * fps, p.c5)
  in
  let dn_base, dn_scale =
    if s = 0 then ((l5 - 1) * n4 * fps, -.m *. p.c5)
    else ((s - 1) * n4 * fps, p.c5)
  in
  for site = 0 to n4 - 1 do
    let o = base + (site * fps) in
    let ou = up_base + (site * fps) in
    let od = dn_base + (site * fps) in
    let po = site * fps in
    for k = 0 to 11 do
      Array1.unsafe_set phi (po + k)
        ((p.b5 *. Array1.unsafe_get src (o + k))
        +. (up_scale *. Array1.unsafe_get src (ou + k)))
    done;
    for k = 12 to 23 do
      Array1.unsafe_set phi (po + k)
        ((p.b5 *. Array1.unsafe_get src (o + k))
        +. (dn_scale *. Array1.unsafe_get src (od + k)))
    done
  done

(* Adjoint hopping: Hop^dag = -(1/2) Phi^dag (g5 H g5). First apply the
   gamma5-conjugated 4D stencil to every slice, then the adjoint
   s-combination (order matters: the projectors do not commute with
   the stencil's spin structure, which is why G5R5 alone is not the
   Mobius adjoint). *)
let apply_hop_dagger p kernel ~n4_src ~n4_dst ~(src : Linalg.Field.t)
    ~(dst : Linalg.Field.t) ~accumulate =
  let ht = Linalg.Field.create (p.l5 * n4_dst * fps) in
  let stencil_range lo hi =
    let slice_in = Linalg.Field.create (n4_src * fps) in
    let slice_out = Linalg.Field.create (n4_dst * fps) in
    for s = lo to hi - 1 do
      let sb = s * n4_src * fps in
      for k = 0 to (n4_src * fps) - 1 do
        Array1.unsafe_set slice_in k (Array1.unsafe_get src (sb + k))
      done;
      Gamma.apply_gamma5 slice_in slice_in;
      Wilson.hop kernel ~src:slice_in ~dst:slice_out;
      Gamma.apply_gamma5 slice_out slice_out;
      let db = s * n4_dst * fps in
      for k = 0 to (n4_dst * fps) - 1 do
        Array1.unsafe_set ht (db + k) (Array1.unsafe_get slice_out k)
      done
    done
  in
  run_slices p ~n4_dst stencil_range;
  (* the s-combination reads ht across slice boundaries, so it starts
     only after every stencil slice has landed (the pool join above) *)
  let combine_range lo hi =
    let phi = Linalg.Field.create (n4_dst * fps) in
    for s = lo to hi - 1 do
      combine_slice_dagger p ~n4:n4_dst ~s ~src:ht ~phi;
      let base = s * n4_dst * fps in
      if accumulate then
        for k = 0 to (n4_dst * fps) - 1 do
          Array1.unsafe_set dst (base + k)
            (Array1.unsafe_get dst (base + k) -. (0.5 *. Array1.unsafe_get phi k))
        done
      else
        for k = 0 to (n4_dst * fps) - 1 do
          Array1.unsafe_set dst (base + k) (-0.5 *. Array1.unsafe_get phi k)
        done
    done
  in
  run_slices p ~n4_dst combine_range

(* ---- Full (unpreconditioned) operator ---- *)

type t = { p : params; kernel : Wilson.t; n4 : int }

let of_geometry ?recon p geom gauge =
  {
    p;
    kernel = Wilson.of_geometry ?recon geom gauge;
    n4 = Lattice.Geometry.volume geom;
  }

let field_length t = t.p.l5 * t.n4 * fps
let create_field t = Linalg.Field.create (field_length t)

let apply t ~src ~dst =
  apply_m5 t.p ~n4:t.n4 ~src ~dst;
  apply_hop t.p t.kernel ~n4_src:t.n4 ~n4_dst:t.n4 ~src ~dst ~accumulate:true

(* G5R5: slice s of dst = gamma5 (slice L5-1-s of src). Distinct fields. *)
let apply_g5r5 ~l5 ~n4 ~(src : Linalg.Field.t) ~(dst : Linalg.Field.t) =
  let stride = n4 * fps in
  for s = 0 to l5 - 1 do
    let sb = (l5 - 1 - s) * stride and db = s * stride in
    for site = 0 to n4 - 1 do
      let so = sb + (site * fps) and dlo = db + (site * fps) in
      for k = 0 to 11 do
        Array1.unsafe_set dst (dlo + k) (Array1.unsafe_get src (so + k))
      done;
      for k = 12 to 23 do
        Array1.unsafe_set dst (dlo + k) (-.Array1.unsafe_get src (so + k))
      done
    done
  done

(* D^dag built piecewise: M5d^dag + Hop^dag. (For c5 = 0 this equals
   G5R5 D G5R5; with c5 <> 0 the projectors do not commute with the
   stencil spin structure and the explicit adjoint is required.) *)
let apply_dagger t ~src ~dst =
  apply_m5_dagger t.p ~n4:t.n4 ~src ~dst;
  apply_hop_dagger t.p t.kernel ~n4_src:t.n4 ~n4_dst:t.n4 ~src ~dst
    ~accumulate:true

(* Normal operator D^dag D for CG. *)
let apply_normal t ~src ~dst =
  let tmp = create_field t in
  apply t ~src ~dst:tmp;
  apply_dagger t ~src:tmp ~dst

(* ---- Red-black preconditioned operator ----
   4D even/odd decomposition: S = M5d - Hop_oe M5d^{-1} Hop_eo acting
   on odd-parity 5D fields (checkerboard-indexed slices). *)

type eo = {
  p : params;
  geom : Lattice.Geometry.t;
  kern_to_even : Wilson.t;  (* reads odd cb field, writes even cb field *)
  kern_to_odd : Wilson.t;
  half : int;
}

let of_geometry_eo ?recon p geom gauge =
  (* one packed store per checkerboard kernel: the whole Schur chain
     (hop_eo, apply_schur*, the batched multi-RHS twins) reconstructs
     links through Wilson's fetch, bit-identically for a fixed codec
     across pool geometries *)
  {
    p;
    geom;
    kern_to_even = Wilson.of_checkerboard ?recon geom gauge ~parity:0;
    kern_to_odd = Wilson.of_checkerboard ?recon geom gauge ~parity:1;
    half = Lattice.Geometry.half_volume geom;
  }

let eo_field_length eo = eo.p.l5 * eo.half * fps
let create_eo_field eo = Linalg.Field.create (eo_field_length eo)

(* dst (parity p fields) = Hop_{p <- 1-p} src. *)
let hop_eo eo ~to_parity ~src ~dst =
  let kernel = if to_parity = 0 then eo.kern_to_even else eo.kern_to_odd in
  apply_hop eo.p kernel ~n4_src:eo.half ~n4_dst:eo.half ~src ~dst
    ~accumulate:false

(* Schur complement on odd fields: dst = M5 src - Hop_oe M5inv Hop_eo src *)
let apply_schur eo ~src ~dst =
  let t1 = create_eo_field eo in
  let t2 = create_eo_field eo in
  hop_eo eo ~to_parity:0 ~src ~dst:t1;
  apply_m5inv eo.p ~n4:eo.half ~src:t1 ~dst:t2;
  hop_eo eo ~to_parity:1 ~src:t2 ~dst:t1;
  apply_m5 eo.p ~n4:eo.half ~src ~dst;
  for k = 0 to eo_field_length eo - 1 do
    Array1.unsafe_set dst k (Array1.unsafe_get dst k -. Array1.unsafe_get t1 k)
  done

(* S^dag = M5d^dag - Hop_eo^dag M5d^{-dag} Hop_oe^dag, each adjoint
   taken explicitly. Hop_{p <- 1-p}^dag maps parity p back to 1-p and
   uses the opposite checkerboard kernel. *)
let hop_eo_dagger eo ~from_parity ~src ~dst =
  (* adjoint of the map (from 1-from_parity to from_parity): reads a
     field of parity [from_parity], writes parity [1-from_parity] *)
  let kernel = if from_parity = 0 then eo.kern_to_odd else eo.kern_to_even in
  apply_hop_dagger eo.p kernel ~n4_src:eo.half ~n4_dst:eo.half ~src ~dst
    ~accumulate:false

(* The dagger's finishing pass (dst <- M5d^dag src - t1), with the
   optional output tail fused into the same sweep: the subtraction and
   the tail's xpay/dot run per canonical [Field.reduce_block] while
   the block is hot, partials folded in index order — the exact
   association of the standalone [Field.dot_re], so the fused chain is
   bit-identical to apply_schur_dagger-then-dot for any geometry (the
   subtraction itself is element-local and unchanged). This is the 5d
   analogue of [Wilson.hop_tail]: it is where the CG p·Ap reduction
   rides the Schur-normal stencil instead of costing its own
   full-vector sweep. *)
let schur_dagger_finish ?tail (dst : Linalg.Field.t) (t1 : Linalg.Field.t) len =
  match tail with
  | None ->
    for k = 0 to len - 1 do
      Array1.unsafe_set dst k
        (Array1.unsafe_get dst k -. Array1.unsafe_get t1 k)
    done;
    0.
  | Some tl ->
    Linalg.Fused.tail_check "Mobius.apply_schur_dagger_tail" ~n:len ~dst tl;
    let block = Linalg.Field.reduce_block in
    let n_blocks = max 1 ((len + block - 1) / block) in
    let partials = Array.make n_blocks 0. in
    for b = 0 to n_blocks - 1 do
      let lo = b * block and hi = min len ((b + 1) * block) in
      for k = lo to hi - 1 do
        Array1.unsafe_set dst k
          (Array1.unsafe_get dst k -. Array1.unsafe_get t1 k)
      done;
      partials.(b) <- Linalg.Fused.tail_term tl ~dst lo hi
    done;
    let s =
      if n_blocks <= 1 then partials.(0)
      else begin
        let acc = ref 0. in
        for b = 0 to n_blocks - 1 do
          acc := !acc +. partials.(b)
        done;
        !acc
      end
    in
    Linalg.Field.Sanitize.check_scalar "Mobius.apply_schur_dagger_tail" s

let apply_schur_dagger_gen ?tail eo ~src ~dst =
  let t1 = create_eo_field eo in
  let t2 = create_eo_field eo in
  (* (Hop_oe)^dag : odd -> even *)
  hop_eo_dagger eo ~from_parity:1 ~src ~dst:t1;
  apply_m5inv_dagger eo.p ~n4:eo.half ~src:t1 ~dst:t2;
  (* (Hop_eo)^dag : even -> odd *)
  hop_eo_dagger eo ~from_parity:0 ~src:t2 ~dst:t1;
  apply_m5_dagger eo.p ~n4:eo.half ~src ~dst;
  schur_dagger_finish ?tail dst t1 (eo_field_length eo)

let apply_schur_dagger eo ~src ~dst =
  ignore (apply_schur_dagger_gen eo ~src ~dst : float)

let apply_schur_dagger_tail eo ~src ~dst ~tail =
  apply_schur_dagger_gen ~tail eo ~src ~dst

let apply_schur_normal eo ~src ~dst =
  let tmp = create_eo_field eo in
  apply_schur eo ~src ~dst:tmp;
  apply_schur_dagger eo ~src:tmp ~dst

(* S^dag S with the tail riding the closing dagger sweep — what
   [Solver.Dwf_solve] hands [Solver.Cg]'s [apply_dot] so the fused CG
   iteration executes the 2-sweep BLAS-1 plan the model prices. *)
let apply_schur_normal_tail eo ~src ~dst ~tail =
  let tmp = create_eo_field eo in
  apply_schur eo ~src ~dst:tmp;
  apply_schur_dagger_tail eo ~src:tmp ~dst ~tail

(* ---- batched multi-RHS Schur chain ----
   The 5d wrapper of [Wilson.hop_multi]: per slice, every RHS's
   s-combination lands in its own phi buffer and one batched 4D hop
   streams the gauge links once for all k of them. Everything that is
   per-RHS (combine, M5d/M5d⁻¹, the closing subtractions) runs
   per-RHS with [apply_hop]'s own loops, so each dst in the batch is
   bit-identical to the independent single-RHS chain for any batch
   width and pool geometry. It does not replace the single-RHS chain:
   at k = 1 it is 1.84-1.97x slower (see [Wilson.make_do_site_multi]),
   and the solves that run it are most of the Fig 2 wall time. *)

let apply_hop_multi p kernel ~n4_src ~n4_dst ~(srcs : Linalg.Field.t array)
    ~(dsts : Linalg.Field.t array) ~accumulate =
  let kw = Array.length srcs in
  let range lo hi =
    let phis = Array.init kw (fun _ -> Linalg.Field.create (n4_src * fps)) in
    let scratch =
      Array.init kw (fun _ -> Linalg.Field.create (n4_dst * fps))
    in
    for s = lo to hi - 1 do
      for v = 0 to kw - 1 do
        combine_slice p ~n4:n4_src ~s ~src:srcs.(v) ~phi:phis.(v)
      done;
      Wilson.hop_multi kernel ~srcs:phis ~dsts:scratch;
      let base = s * n4_dst * fps in
      for v = 0 to kw - 1 do
        let dst = dsts.(v) and sc = scratch.(v) in
        if accumulate then
          for k = 0 to (n4_dst * fps) - 1 do
            Array1.unsafe_set dst (base + k)
              (Array1.unsafe_get dst (base + k)
              -. (0.5 *. Array1.unsafe_get sc k))
          done
        else
          for k = 0 to (n4_dst * fps) - 1 do
            Array1.unsafe_set dst (base + k) (-0.5 *. Array1.unsafe_get sc k)
          done
      done
    done
  in
  run_slices p ~n4_dst range

let apply_hop_dagger_multi p kernel ~n4_src ~n4_dst
    ~(srcs : Linalg.Field.t array) ~(dsts : Linalg.Field.t array) ~accumulate =
  let kw = Array.length srcs in
  let hts =
    Array.init kw (fun _ -> Linalg.Field.create (p.l5 * n4_dst * fps))
  in
  let stencil_range lo hi =
    let slice_ins =
      Array.init kw (fun _ -> Linalg.Field.create (n4_src * fps))
    in
    let slice_outs =
      Array.init kw (fun _ -> Linalg.Field.create (n4_dst * fps))
    in
    for s = lo to hi - 1 do
      let sb = s * n4_src * fps in
      for v = 0 to kw - 1 do
        let src = srcs.(v) and slice_in = slice_ins.(v) in
        for k = 0 to (n4_src * fps) - 1 do
          Array1.unsafe_set slice_in k (Array1.unsafe_get src (sb + k))
        done;
        Gamma.apply_gamma5 slice_in slice_in
      done;
      Wilson.hop_multi kernel ~srcs:slice_ins ~dsts:slice_outs;
      let db = s * n4_dst * fps in
      for v = 0 to kw - 1 do
        let slice_out = slice_outs.(v) and ht = hts.(v) in
        Gamma.apply_gamma5 slice_out slice_out;
        for k = 0 to (n4_dst * fps) - 1 do
          Array1.unsafe_set ht (db + k) (Array1.unsafe_get slice_out k)
        done
      done
    done
  in
  run_slices p ~n4_dst stencil_range;
  let combine_range lo hi =
    let phi = Linalg.Field.create (n4_dst * fps) in
    for s = lo to hi - 1 do
      for v = 0 to kw - 1 do
        combine_slice_dagger p ~n4:n4_dst ~s ~src:hts.(v) ~phi;
        let dst = dsts.(v) in
        let base = s * n4_dst * fps in
        if accumulate then
          for k = 0 to (n4_dst * fps) - 1 do
            Array1.unsafe_set dst (base + k)
              (Array1.unsafe_get dst (base + k)
              -. (0.5 *. Array1.unsafe_get phi k))
          done
        else
          for k = 0 to (n4_dst * fps) - 1 do
            Array1.unsafe_set dst (base + k) (-0.5 *. Array1.unsafe_get phi k)
          done
      done
    done
  in
  run_slices p ~n4_dst combine_range

let hop_eo_multi eo ~to_parity ~srcs ~dsts =
  let kernel = if to_parity = 0 then eo.kern_to_even else eo.kern_to_odd in
  apply_hop_multi eo.p kernel ~n4_src:eo.half ~n4_dst:eo.half ~srcs ~dsts
    ~accumulate:false

let hop_eo_dagger_multi eo ~from_parity ~srcs ~dsts =
  let kernel = if from_parity = 0 then eo.kern_to_odd else eo.kern_to_even in
  apply_hop_dagger_multi eo.p kernel ~n4_src:eo.half ~n4_dst:eo.half ~srcs
    ~dsts ~accumulate:false

let apply_schur_multi eo ~(srcs : Linalg.Field.t array)
    ~(dsts : Linalg.Field.t array) =
  let kw = Array.length srcs in
  if kw = 0 || Array.length dsts <> kw then
    invalid_arg "Mobius.apply_schur_multi: batch width mismatch";
  let t1s = Array.init kw (fun _ -> create_eo_field eo) in
  let t2s = Array.init kw (fun _ -> create_eo_field eo) in
  hop_eo_multi eo ~to_parity:0 ~srcs ~dsts:t1s;
  Array.iteri
    (fun v t1 -> apply_m5inv eo.p ~n4:eo.half ~src:t1 ~dst:t2s.(v))
    t1s;
  hop_eo_multi eo ~to_parity:1 ~srcs:t2s ~dsts:t1s;
  Array.iteri (fun v src -> apply_m5 eo.p ~n4:eo.half ~src ~dst:dsts.(v)) srcs;
  let len = eo_field_length eo in
  Array.iteri
    (fun v (dst : Linalg.Field.t) ->
      let t1 = t1s.(v) in
      for k = 0 to len - 1 do
        Array1.unsafe_set dst k
          (Array1.unsafe_get dst k -. Array1.unsafe_get t1 k)
      done)
    dsts

let apply_schur_dagger_multi eo ~(srcs : Linalg.Field.t array)
    ~(dsts : Linalg.Field.t array) =
  let kw = Array.length srcs in
  if kw = 0 || Array.length dsts <> kw then
    invalid_arg "Mobius.apply_schur_dagger_multi: batch width mismatch";
  let t1s = Array.init kw (fun _ -> create_eo_field eo) in
  let t2s = Array.init kw (fun _ -> create_eo_field eo) in
  hop_eo_dagger_multi eo ~from_parity:1 ~srcs ~dsts:t1s;
  Array.iteri
    (fun v t1 -> apply_m5inv_dagger eo.p ~n4:eo.half ~src:t1 ~dst:t2s.(v))
    t1s;
  hop_eo_dagger_multi eo ~from_parity:0 ~srcs:t2s ~dsts:t1s;
  Array.iteri
    (fun v src -> apply_m5_dagger eo.p ~n4:eo.half ~src ~dst:dsts.(v))
    srcs;
  Array.iteri
    (fun v dst ->
      ignore (schur_dagger_finish dst t1s.(v) (eo_field_length eo) : float))
    dsts

let apply_schur_normal_multi eo ~(srcs : Linalg.Field.t array)
    ~(dsts : Linalg.Field.t array) =
  let tmps = Array.init (Array.length srcs) (fun _ -> create_eo_field eo) in
  apply_schur_multi eo ~srcs ~dsts:tmps;
  apply_schur_dagger_multi eo ~srcs:tmps ~dsts

(* ---- full <-> checkerboard field conversion ---- *)

let split_eo geom ~l5 (full : Linalg.Field.t) =
  let vol = Lattice.Geometry.volume geom in
  let half = Lattice.Geometry.half_volume geom in
  let even = Linalg.Field.create (l5 * half * fps) in
  let odd = Linalg.Field.create (l5 * half * fps) in
  for s = 0 to l5 - 1 do
    for site = 0 to vol - 1 do
      let p = Lattice.Geometry.parity geom site in
      let i = Lattice.Geometry.eo_index geom site in
      let src_o = ((s * vol) + site) * fps in
      let dst_o = ((s * half) + i) * fps in
      let dst = if p = 0 then even else odd in
      for k = 0 to fps - 1 do
        Array1.unsafe_set dst (dst_o + k) (Array1.unsafe_get full (src_o + k))
      done
    done
  done;
  (even, odd)

let merge_eo geom ~l5 ~(even : Linalg.Field.t) ~(odd : Linalg.Field.t) =
  let vol = Lattice.Geometry.volume geom in
  let half = Lattice.Geometry.half_volume geom in
  let full = Linalg.Field.create (l5 * vol * fps) in
  for s = 0 to l5 - 1 do
    for site = 0 to vol - 1 do
      let p = Lattice.Geometry.parity geom site in
      let i = Lattice.Geometry.eo_index geom site in
      let dst_o = ((s * vol) + site) * fps in
      let src_o = ((s * half) + i) * fps in
      let src = if p = 0 then even else odd in
      for k = 0 to fps - 1 do
        Array1.unsafe_set full (dst_o + k) (Array1.unsafe_get src (src_o + k))
      done
    done
  done;
  full

(* Schur right-hand side: y'_o = y_o - Hop_oe M5inv y_e. *)
let prepare_rhs eo ~(rhs_even : Linalg.Field.t) ~(rhs_odd : Linalg.Field.t) =
  let t1 = create_eo_field eo in
  let t2 = create_eo_field eo in
  apply_m5inv eo.p ~n4:eo.half ~src:rhs_even ~dst:t1;
  hop_eo eo ~to_parity:1 ~src:t1 ~dst:t2;
  let out = Linalg.Field.copy rhs_odd in
  for k = 0 to eo_field_length eo - 1 do
    Array1.unsafe_set out k (Array1.unsafe_get out k -. Array1.unsafe_get t2 k)
  done;
  out

(* Even-parity reconstruction: x_e = M5inv (y_e - Hop_eo x_o). *)
let reconstruct_even eo ~(rhs_even : Linalg.Field.t) ~(x_odd : Linalg.Field.t) =
  let t1 = create_eo_field eo in
  hop_eo eo ~to_parity:0 ~src:x_odd ~dst:t1;
  let t2 = Linalg.Field.copy rhs_even in
  for k = 0 to eo_field_length eo - 1 do
    Array1.unsafe_set t2 k (Array1.unsafe_get t2 k -. Array1.unsafe_get t1 k)
  done;
  let out = create_eo_field eo in
  apply_m5inv eo.p ~n4:eo.half ~src:t2 ~dst:out;
  out
