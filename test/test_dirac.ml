(* Tests for Dirac: gamma algebra, Wilson stencil (free-field
   dispersion, gamma5-hermiticity, checkerboard consistency), Mobius
   domain-wall operator (adjoint identity, M5 inverse, chiral limits). *)

module Geometry = Lattice.Geometry
module Gauge = Lattice.Gauge
module Field = Linalg.Field
module Cplx = Linalg.Cplx
module Gamma = Dirac.Gamma
module Wilson = Dirac.Wilson
module Mobius = Dirac.Mobius

let rng () = Util.Rng.create 31_337

let check_close ?(eps = 1e-10) msg a b =
  Alcotest.(check bool) (Printf.sprintf "%s (|%g - %g| <= %g)" msg a b eps) true
    (abs_float (a -. b) <= eps)

(* ---- Gamma algebra ---- *)

let test_gamma_anticommutators () =
  Alcotest.(check bool) "{g_mu, g_nu} = 2 delta" true (Gamma.anticommutator_check ())

let test_gamma5_diagonal () =
  Alcotest.(check (array (float 0.))) "g5 = diag(1,1,-1,-1)"
    [| 1.; 1.; -1.; -1. |] Gamma.gamma5_diag

let test_gamma5_squares_to_one () =
  let m = Gamma.mat_mul Gamma.gamma5_matrix Gamma.gamma5_matrix in
  for s = 0 to 3 do
    for s' = 0 to 3 do
      let want = if s = s' then Cplx.one else Cplx.zero in
      Alcotest.(check bool) "g5^2 = 1" true (Cplx.equal m.(s).(s') want)
    done
  done

let test_gamma_hermitian () =
  (* Euclidean gammas are hermitian: g = g^dag. *)
  for mu = 0 to 3 do
    let m = Gamma.matrix mu in
    for s = 0 to 3 do
      for s' = 0 to 3 do
        Alcotest.(check bool) "hermitian" true
          (Cplx.equal m.(s).(s') (Cplx.conj m.(s').(s)))
      done
    done
  done

let test_gamma5_anticommutes () =
  for mu = 0 to 3 do
    let gm = Gamma.matrix mu in
    let a = Gamma.mat_mul Gamma.gamma5_matrix gm in
    let b = Gamma.mat_mul gm Gamma.gamma5_matrix in
    for s = 0 to 3 do
      for s' = 0 to 3 do
        Alcotest.(check bool) "g5 g_mu = -g_mu g5" true
          (Cplx.equal a.(s).(s') (Cplx.neg b.(s).(s')))
      done
    done
  done

let test_apply_site_matches_matrix () =
  let r = rng () in
  for mu = 0 to 3 do
    let src = Field.create 24 and dst = Field.create 24 in
    Field.gaussian r src;
    Gamma.apply_site Gamma.gammas.(mu) src 0 dst 0;
    (* explicit matrix multiply on (spin, color) components *)
    let m = Gamma.matrix mu in
    for s = 0 to 3 do
      for c = 0 to 2 do
        let acc = ref Cplx.zero in
        for s' = 0 to 3 do
          let o = ((s' * 3) + c) * 2 in
          acc :=
            Cplx.add !acc
              (Cplx.mul m.(s).(s')
                 (Cplx.make (Bigarray.Array1.get src o) (Bigarray.Array1.get src (o + 1))))
        done;
        let o = ((s * 3) + c) * 2 in
        check_close "re" (Cplx.re !acc) (Bigarray.Array1.get dst o);
        check_close "im" (Cplx.im !acc) (Bigarray.Array1.get dst (o + 1))
      done
    done
  done

let test_apply_gamma5_involution () =
  let r = rng () in
  let src = Field.create (24 * 8) in
  Field.gaussian r src;
  let once = Field.create (Field.length src) in
  Gamma.apply_gamma5 src once;
  Gamma.apply_gamma5 once once;
  (* in place *)
  Alcotest.(check (float 0.)) "g5 g5 = id" 0. (Field.max_abs_diff src once)

(* ---- Wilson ---- *)

let unit_setup dims =
  let geom = Geometry.create dims in
  let gauge = Gauge.unit geom in
  (geom, Wilson.of_geometry geom gauge)

let test_wilson_free_dispersion () =
  (* On the unit gauge field a plane wave is an eigenvector:
     M e^{ipx} chi = e^{ipx} [(4+m) - sum cos p + i sum g_mu sin p] chi *)
  let dims = [| 4; 4; 2; 4 |] in
  let geom, w = unit_setup dims in
  let r = rng () in
  let mass = 0.1 in
  let chi = Array.init 24 (fun _ -> Util.Rng.gaussian r) in
  let k = [| 1; 3; 0; 2 |] in
  let p = Array.init 4 (fun mu -> 2. *. Float.pi *. float_of_int k.(mu) /. float_of_int dims.(mu)) in
  let vol = Geometry.volume geom in
  let src = Field.create (vol * 24) in
  Geometry.iter_sites geom (fun site ->
      let c = Geometry.coords geom site in
      let phase = ref 0. in
      for mu = 0 to 3 do
        phase := !phase +. (p.(mu) *. float_of_int c.(mu))
      done;
      let e = Cplx.exp_i !phase in
      for comp = 0 to 11 do
        let re = chi.(comp * 2) and im = chi.((comp * 2) + 1) in
        Bigarray.Array1.set src ((site * 24) + (comp * 2))
          ((e.Cplx.re *. re) -. (e.Cplx.im *. im));
        Bigarray.Array1.set src ((site * 24) + (comp * 2) + 1)
          ((e.Cplx.re *. im) +. (e.Cplx.im *. re))
      done);
  let dst = Field.create (vol * 24) in
  Wilson.apply w ~mass ~src ~dst;
  (* expected: same plane wave with spinor chi' = M(p) chi *)
  let diag = 4. +. mass -. Array.fold_left (fun a pm -> a +. cos pm) 0. p in
  let chi' = Array.make 24 0. in
  for comp = 0 to 11 do
    chi'.(comp * 2) <- diag *. chi.(comp * 2);
    chi'.((comp * 2) + 1) <- diag *. chi.((comp * 2) + 1)
  done;
  for mu = 0 to 3 do
    let m = Gamma.matrix mu in
    let s_mu = sin p.(mu) in
    for s = 0 to 3 do
      for s' = 0 to 3 do
        let g = m.(s).(s') in
        if Cplx.abs g > 0. then
          for c = 0 to 2 do
            let o = ((s * 3) + c) * 2 and o' = ((s' * 3) + c) * 2 in
            (* add i * s_mu * g * chi_{s'} *)
            let coeff = Cplx.mul (Cplx.make 0. s_mu) g in
            chi'.(o) <-
              chi'.(o)
              +. ((coeff.Cplx.re *. chi.(o')) -. (coeff.Cplx.im *. chi.(o' + 1)));
            chi'.(o + 1) <-
              chi'.(o + 1)
              +. ((coeff.Cplx.re *. chi.(o' + 1)) +. (coeff.Cplx.im *. chi.(o')))
          done
      done
    done
  done;
  (* compare site 0 (phase = 1) and a generic site *)
  List.iter
    (fun site ->
      let c = Geometry.coords geom site in
      let phase = ref 0. in
      for mu = 0 to 3 do
        phase := !phase +. (p.(mu) *. float_of_int c.(mu))
      done;
      let e = Cplx.exp_i !phase in
      for comp = 0 to 11 do
        let want_re = (e.Cplx.re *. chi'.(comp * 2)) -. (e.Cplx.im *. chi'.((comp * 2) + 1)) in
        let want_im = (e.Cplx.re *. chi'.((comp * 2) + 1)) +. (e.Cplx.im *. chi'.(comp * 2)) in
        check_close ~eps:1e-9 "plane wave re" want_re
          (Bigarray.Array1.get dst ((site * 24) + (comp * 2)));
        check_close ~eps:1e-9 "plane wave im" want_im
          (Bigarray.Array1.get dst ((site * 24) + (comp * 2) + 1))
      done)
    [ 0; Geometry.site geom [| 1; 2; 1; 3 |] ]

let random_gauge_setup dims =
  let geom = Geometry.create dims in
  let gauge = Gauge.random geom (rng ()) in
  (geom, gauge)

let test_wilson_gamma5_hermiticity () =
  let geom, gauge = random_gauge_setup [| 4; 2; 2; 4 |] in
  let w = Wilson.of_geometry geom gauge in
  let r = rng () in
  let n = Geometry.volume geom * 24 in
  let u = Field.create n and v = Field.create n in
  Field.gaussian r u;
  Field.gaussian r v;
  let dv = Field.create n and du = Field.create n in
  Wilson.apply w ~mass:0.2 ~src:v ~dst:dv;
  Wilson.apply_dagger w ~mass:0.2 ~src:u ~dst:du;
  let lhs = Field.cdot u dv and rhs = Field.cdot du v in
  check_close ~eps:1e-8 "re <u, Dv> = <D^dag u, v>" (Cplx.re lhs) (Cplx.re rhs);
  check_close ~eps:1e-8 "im <u, Dv> = <D^dag u, v>" (Cplx.im lhs) (Cplx.im rhs)

let test_wilson_checkerboard_consistency () =
  (* The full hopping restricted to one parity equals the
     checkerboarded kernel applied to the opposite-parity field. *)
  let geom, gauge = random_gauge_setup [| 4; 4; 2; 2 |] in
  let w_full = Wilson.of_geometry geom gauge in
  let w_e = Wilson.of_checkerboard geom gauge ~parity:0 in
  let w_o = Wilson.of_checkerboard geom gauge ~parity:1 in
  let r = rng () in
  let vol = Geometry.volume geom and half = Geometry.half_volume geom in
  let src = Field.create (vol * 24) in
  Field.gaussian r src;
  let dst_full = Field.create (vol * 24) in
  Wilson.hop w_full ~src ~dst:dst_full;
  (* split source by parity *)
  let src_e = Field.create (half * 24) and src_o = Field.create (half * 24) in
  Geometry.iter_sites geom (fun site ->
      let p = Geometry.parity geom site in
      let i = Geometry.eo_index geom site in
      let dst = if p = 0 then src_e else src_o in
      for k = 0 to 23 do
        Bigarray.Array1.set dst ((i * 24) + k) (Bigarray.Array1.get src ((site * 24) + k))
      done);
  let dst_e = Field.create (half * 24) and dst_o = Field.create (half * 24) in
  Wilson.hop w_e ~src:src_o ~dst:dst_e;
  Wilson.hop w_o ~src:src_e ~dst:dst_o;
  Geometry.iter_sites geom (fun site ->
      let p = Geometry.parity geom site in
      let i = Geometry.eo_index geom site in
      let cb = if p = 0 then dst_e else dst_o in
      for k = 0 to 23 do
        check_close ~eps:1e-12 "cb = full"
          (Bigarray.Array1.get dst_full ((site * 24) + k))
          (Bigarray.Array1.get cb ((i * 24) + k))
      done)

let test_wilson_hop_sites_subset () =
  let geom, gauge = random_gauge_setup [| 2; 2; 2; 4 |] in
  let w = Wilson.of_geometry geom gauge in
  let r = rng () in
  let n = Geometry.volume geom * 24 in
  let src = Field.create n in
  Field.gaussian r src;
  let full = Field.create n and partial = Field.create n in
  Wilson.hop w ~src ~dst:full;
  let sites = Array.init (Geometry.volume geom / 2) (fun i -> 2 * i) in
  Wilson.hop_sites w ~sites ~src ~dst:partial ();
  Array.iter
    (fun s ->
      for k = 0 to 23 do
        check_close ~eps:0. "subset matches"
          (Bigarray.Array1.get full ((s * 24) + k))
          (Bigarray.Array1.get partial ((s * 24) + k))
      done)
    sites

(* ---- Mobius ---- *)

let mobius_setup ?(dims = [| 2; 2; 2; 4 |]) ?(l5 = 4) ?(mass = 0.1) ?(alpha = 1.5) () =
  let geom = Geometry.create dims in
  let gauge = Gauge.warm geom (rng ()) ~eps:0.4 in
  let gauge = Gauge.with_antiperiodic_time gauge in
  let p = Mobius.mobius ~l5 ~m5:1.8 ~alpha ~mass in
  (geom, gauge, p)

let test_mobius_shamir_limit () =
  let p = Mobius.mobius ~l5:8 ~m5:1.8 ~alpha:1. ~mass:0.1 in
  let s = Mobius.shamir ~l5:8 ~m5:1.8 ~mass:0.1 in
  check_close "b5" s.Mobius.b5 p.Mobius.b5;
  check_close "c5" s.Mobius.c5 p.Mobius.c5

let test_m5inv_inverts_m5 () =
  let _, _, p = mobius_setup () in
  let n4 = 16 in
  let r = rng () in
  let src = Field.create (p.Mobius.l5 * n4 * 24) in
  Field.gaussian r src;
  let mid = Field.create (Field.length src) in
  let back = Field.create (Field.length src) in
  Mobius.apply_m5 p ~n4 ~src ~dst:mid;
  Mobius.apply_m5inv p ~n4 ~src:mid ~dst:back;
  Alcotest.(check bool) "m5inv . m5 = id" true (Field.max_abs_diff src back < 1e-10);
  (* and the other order *)
  Mobius.apply_m5inv p ~n4 ~src ~dst:mid;
  Mobius.apply_m5 p ~n4 ~src:mid ~dst:back;
  Alcotest.(check bool) "m5 . m5inv = id" true (Field.max_abs_diff src back < 1e-10)

let test_g5r5_involution () =
  let r = rng () in
  let l5 = 6 and n4 = 8 in
  let src = Field.create (l5 * n4 * 24) in
  Field.gaussian r src;
  let once = Field.create (Field.length src) in
  let twice = Field.create (Field.length src) in
  Mobius.apply_g5r5 ~l5 ~n4 ~src ~dst:once;
  Mobius.apply_g5r5 ~l5 ~n4 ~src:once ~dst:twice;
  Alcotest.(check (float 0.)) "(g5 r5)^2 = id" 0. (Field.max_abs_diff src twice)

let test_mobius_adjoint_identity () =
  let geom, gauge, p = mobius_setup () in
  let d = Mobius.of_geometry p geom gauge in
  let r = rng () in
  let n = Mobius.field_length d in
  let u = Field.create n and v = Field.create n in
  Field.gaussian r u;
  Field.gaussian r v;
  let dv = Field.create n and du = Field.create n in
  Mobius.apply d ~src:v ~dst:dv;
  Mobius.apply_dagger d ~src:u ~dst:du;
  let lhs = Field.cdot u dv and rhs = Field.cdot du v in
  check_close ~eps:1e-8 "re adjoint" (Cplx.re lhs) (Cplx.re rhs);
  check_close ~eps:1e-8 "im adjoint" (Cplx.im lhs) (Cplx.im rhs)

let test_mobius_schur_adjoint_identity () =
  let geom, gauge, p = mobius_setup () in
  let eo = Mobius.of_geometry_eo p geom gauge in
  let r = rng () in
  let n = Mobius.eo_field_length eo in
  let u = Field.create n and v = Field.create n in
  Field.gaussian r u;
  Field.gaussian r v;
  let sv = Field.create n and su = Field.create n in
  Mobius.apply_schur eo ~src:v ~dst:sv;
  Mobius.apply_schur_dagger eo ~src:u ~dst:su;
  let lhs = Field.cdot u sv and rhs = Field.cdot su v in
  check_close ~eps:1e-8 "re schur adjoint" (Cplx.re lhs) (Cplx.re rhs);
  check_close ~eps:1e-8 "im schur adjoint" (Cplx.im lhs) (Cplx.im rhs)

let test_mobius_normal_positive () =
  let geom, gauge, p = mobius_setup () in
  let d = Mobius.of_geometry p geom gauge in
  let r = rng () in
  let n = Mobius.field_length d in
  for _ = 1 to 3 do
    let v = Field.create n in
    Field.gaussian r v;
    let ndv = Field.create n in
    Mobius.apply_normal d ~src:v ~dst:ndv;
    let q = Field.dot_re v ndv in
    Alcotest.(check bool) "D^dag D positive" true (q > 0.)
  done

let test_mobius_eo_full_consistency () =
  (* Schur complement applied directly must agree with eliminating the
     even sites from the full operator: for x supported on odd sites
     with x_e = -M5inv Hop_eo x_o, (D x)_o = S x_o. *)
  let geom, gauge, p = mobius_setup () in
  let d = Mobius.of_geometry p geom gauge in
  let eo = Mobius.of_geometry_eo p geom gauge in
  let r = rng () in
  let x_odd = Mobius.create_eo_field eo in
  Field.gaussian r x_odd;
  (* x_e = -M5inv Hop_eo x_o *)
  let t = Mobius.create_eo_field eo in
  Mobius.hop_eo eo ~to_parity:0 ~src:x_odd ~dst:t;
  let x_even = Mobius.create_eo_field eo in
  Mobius.apply_m5inv p ~n4:(Geometry.half_volume geom) ~src:t ~dst:x_even;
  Field.scale (-1.) x_even;
  let full = Mobius.merge_eo geom ~l5:p.Mobius.l5 ~even:x_even ~odd:x_odd in
  let dx = Field.create (Mobius.field_length d) in
  Mobius.apply d ~src:full ~dst:dx;
  let dx_even, dx_odd = Mobius.split_eo geom ~l5:p.Mobius.l5 dx in
  (* odd part = Schur, even part = 0 *)
  let sx = Mobius.create_eo_field eo in
  Mobius.apply_schur eo ~src:x_odd ~dst:sx;
  Alcotest.(check bool) "(Dx)_odd = S x_odd" true (Field.max_abs_diff dx_odd sx < 1e-9);
  Alcotest.(check bool) "(Dx)_even = 0" true (sqrt (Field.norm2 dx_even) < 1e-9)

let test_split_merge_roundtrip () =
  let geom = Geometry.create [| 2; 2; 2; 4 |] in
  let l5 = 3 in
  let r = rng () in
  let full = Field.create (l5 * Geometry.volume geom * 24) in
  Field.gaussian r full;
  let even, odd = Mobius.split_eo geom ~l5 full in
  let back = Mobius.merge_eo geom ~l5 ~even ~odd in
  Alcotest.(check (float 0.)) "roundtrip" 0. (Field.max_abs_diff full back)

(* qcheck: adjoint identity for random Mobius parameter sets *)
let prop_mobius_adjoint_random_params =
  let gen =
    QCheck.Gen.(
      quad (int_range 2 6) (float_range 0.5 1.9) (float_range 1. 2.5)
        (float_range 0.01 0.5))
  in
  QCheck.Test.make ~count:5
    ~name:"mobius adjoint identity for random (l5, m5, alpha, mass)"
    (QCheck.make gen)
    (fun (l5, m5, alpha, mass) ->
      let geom = Geometry.create [| 2; 2; 2; 2 |] in
      let gauge = Gauge.warm geom (Util.Rng.create (l5 * 13)) ~eps:0.5 in
      let p = Mobius.mobius ~l5 ~m5 ~alpha ~mass in
      let d = Mobius.of_geometry p geom gauge in
      let r = Util.Rng.create 5 in
      let n = Mobius.field_length d in
      let u = Field.create n and v = Field.create n in
      Field.gaussian r u;
      Field.gaussian r v;
      let dv = Field.create n and du = Field.create n in
      Mobius.apply d ~src:v ~dst:dv;
      Mobius.apply_dagger d ~src:u ~dst:du;
      let lhs = Field.cdot u dv and rhs = Field.cdot du v in
      Cplx.abs (Cplx.sub lhs rhs) < 1e-6 *. (1. +. Cplx.abs lhs))

(* ---- golden bits: the kernel pinned to recorded digests ----
   Hex digests of the stencil and the solve on one fixed-seed field,
   recorded before the straight-line site body replaced the
   fetch-closure one. Each float enters the digest as its exact "%h"
   rendering, so any change in any bit of any output — a reassociated
   sum, a flipped zero sign — changes the digest. A rewrite of the
   Wilson site body must leave every line here unchanged. *)

let digest (f : Field.t) =
  let b = Buffer.create (Field.length f * 24) in
  for i = 0 to Field.length f - 1 do
    Buffer.add_string b (Printf.sprintf "%h;" (Bigarray.Array1.get f i))
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let golden_setup =
  lazy
    (let geom = Geometry.create [| 4; 4; 4; 4 |] in
     let gauge = Gauge.warm geom (Util.Rng.create 4242) ~eps:0.4 in
     (geom, Gauge.with_antiperiodic_time gauge))

let golden_src n seed =
  let f = Field.create n in
  Field.gaussian (Util.Rng.create seed) f;
  f

let golden_hops =
  [
    ("full18 full", "f9fb6be6d3804f74c262b66da72750d0");
    ("full18 even", "bc1410de65f80f0e1d18b4ae2733dd62");
    ("full18 odd", "1379daf0716eabe3408afe0445527563");
    ("recon12 full", "f9fb6be6d3804f74c262b66da72750d0");
    ("recon12 even", "bc1410de65f80f0e1d18b4ae2733dd62");
    ("recon12 odd", "1379daf0716eabe3408afe0445527563");
    ("recon8 full", "51d0fbb43f1508f575a9405c3a7cfddc");
    ("recon8 even", "ef252146a1a5a6fb2f6ccff8eb8076a6");
    ("recon8 odd", "eae9d15a0715b3d9b796489b5669a5b1");
  ]

let test_golden_hop () =
  let geom, gauge = Lazy.force golden_setup in
  let vol = Geometry.volume geom and half = Geometry.half_volume geom in
  List.iter
    (fun recon ->
      let hop what w n =
        let src = golden_src (n * Wilson.floats_per_site) 17 in
        let dst = Field.create (n * Wilson.floats_per_site) in
        Wilson.hop w ~src ~dst;
        let name = Linalg.Su3_codec.name recon ^ " " ^ what in
        Alcotest.(check string) name (List.assoc name golden_hops) (digest dst)
      in
      hop "full" (Wilson.of_geometry ~recon geom gauge) vol;
      hop "even" (Wilson.of_checkerboard ~recon geom gauge ~parity:0) half;
      hop "odd" (Wilson.of_checkerboard ~recon geom gauge ~parity:1) half)
    Linalg.Su3_codec.[ Full18; Recon12; Recon8 ];
  (* a point source: almost every neighbour is zero, so the zero signs
     of the half-spinors and mat-vec sums are exercised too *)
  let src = Field.create (vol * Wilson.floats_per_site) in
  Bigarray.Array1.set src 0 1.;
  let dst = Field.create (vol * Wilson.floats_per_site) in
  Wilson.hop (Wilson.of_geometry geom gauge) ~src ~dst;
  Alcotest.(check string) "full18 point" "7ab850e669173493da29bbd61b7f5bff"
    (digest dst)

let golden_params = Mobius.mobius ~l5:4 ~m5:1.8 ~alpha:1.5 ~mass:0.1

let test_golden_schur_normal () =
  let geom, gauge = Lazy.force golden_setup in
  let eo = Mobius.of_geometry_eo golden_params geom gauge in
  let n = Mobius.eo_field_length eo in
  let dst = Field.create n in
  Mobius.apply_schur_normal eo ~src:(golden_src n 23) ~dst;
  Alcotest.(check string) "apply_schur_normal" "efa3e5a4bdd3760306baeed30cf9a3a7"
    (digest dst)

let test_golden_solve () =
  let geom, gauge = Lazy.force golden_setup in
  let solver = Solver.Dwf_solve.create golden_params geom gauge in
  let rhs = golden_src (Solver.Dwf_solve.field_length solver) 29 in
  let x, st = Solver.Dwf_solve.solve ~tol:1e-8 solver ~rhs in
  Alcotest.(check int) "iterations" 57 st.Solver.Cg.iterations;
  Alcotest.(check string) "solution" "4b90fcab3ccbc5a8e0e89f2735466647" (digest x)

(* ---- allocation guard: no per-site or per-link allocation ----
   A serial hop allocates its site body's scratch once per launch, so
   the minor words a launch costs must not depend on the volume. *)

let hop_minor_words ~recon dims =
  let geom = Geometry.create dims in
  let gauge = Gauge.warm geom (Util.Rng.create 77) ~eps:0.4 in
  let w = Wilson.of_geometry ~recon geom gauge in
  let n = Geometry.volume geom * Wilson.floats_per_site in
  let src = golden_src n 5 and dst = Field.create n in
  (* below Field.parallel_cutoff: the implicit launch is serial *)
  assert (n < Field.parallel_cutoff);
  Wilson.hop w ~src ~dst;
  let before = Gc.minor_words () in
  Wilson.hop w ~src ~dst;
  Gc.minor_words () -. before

let test_hop_allocation_volume_independent () =
  List.iter
    (fun recon ->
      let name = Linalg.Su3_codec.name recon in
      let small = hop_minor_words ~recon [| 2; 2; 2; 2 |]
      and large = hop_minor_words ~recon [| 4; 4; 4; 4 |] in
      Alcotest.(check (float 0.))
        (Printf.sprintf "%s: 16 vs 256 sites" name) small large;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %g words per launch" name large)
        true (large < 256.))
    Linalg.Su3_codec.[ Full18; Recon12; Recon8 ]

let suite =
  [
    Alcotest.test_case "gamma anticommutators" `Quick test_gamma_anticommutators;
    Alcotest.test_case "gamma5 diagonal" `Quick test_gamma5_diagonal;
    Alcotest.test_case "gamma5 squares to 1" `Quick test_gamma5_squares_to_one;
    Alcotest.test_case "gammas hermitian" `Quick test_gamma_hermitian;
    Alcotest.test_case "gamma5 anticommutes" `Quick test_gamma5_anticommutes;
    Alcotest.test_case "apply_site = matrix" `Quick test_apply_site_matches_matrix;
    Alcotest.test_case "gamma5 involution" `Quick test_apply_gamma5_involution;
    Alcotest.test_case "wilson free dispersion" `Quick test_wilson_free_dispersion;
    Alcotest.test_case "wilson gamma5-hermiticity" `Quick test_wilson_gamma5_hermiticity;
    Alcotest.test_case "wilson checkerboard" `Quick test_wilson_checkerboard_consistency;
    Alcotest.test_case "wilson site subset" `Quick test_wilson_hop_sites_subset;
    Alcotest.test_case "mobius shamir limit" `Quick test_mobius_shamir_limit;
    Alcotest.test_case "m5inv inverts m5" `Quick test_m5inv_inverts_m5;
    Alcotest.test_case "g5r5 involution" `Quick test_g5r5_involution;
    Alcotest.test_case "mobius adjoint" `Quick test_mobius_adjoint_identity;
    Alcotest.test_case "schur adjoint" `Quick test_mobius_schur_adjoint_identity;
    Alcotest.test_case "normal op positive" `Quick test_mobius_normal_positive;
    Alcotest.test_case "eo/full consistency" `Quick test_mobius_eo_full_consistency;
    Alcotest.test_case "split/merge roundtrip" `Quick test_split_merge_roundtrip;
    QCheck_alcotest.to_alcotest prop_mobius_adjoint_random_params;
    Alcotest.test_case "golden hop digests" `Quick test_golden_hop;
    Alcotest.test_case "golden schur normal digest" `Quick test_golden_schur_normal;
    Alcotest.test_case "golden solve digest" `Quick test_golden_solve;
    Alcotest.test_case "hop allocation volume-independent" `Quick
      test_hop_allocation_volume_independent;
  ]
