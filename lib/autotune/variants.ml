(* Launch-parameter spaces for the real OCaml kernels, so the
   autotuner has genuine knobs to search — the analogue of CUDA block
   size / grid shape for this implementation:

   - BLAS-1 axpy: manual unroll depth.
   - Every other kernel: one [plan] record (fusion mode, gauge codec,
     batch width, deflation rank, pool geometry) searched by one
     driver.

   Each variant is a drop-in replacement verified identical by the
   test suite; only speed differs. *)

module Field = Linalg.Field
open Bigarray

(* ---- axpy unroll variants ---- *)

let axpy_plain alpha (x : Field.t) (y : Field.t) =
  for i = 0 to Field.length x - 1 do
    Array1.unsafe_set y i (Array1.unsafe_get y i +. (alpha *. Array1.unsafe_get x i))
  done

let axpy_unroll4 alpha (x : Field.t) (y : Field.t) =
  let n = Field.length x in
  let n4 = n - (n mod 4) in
  let i = ref 0 in
  while !i < n4 do
    let i0 = !i in
    Array1.unsafe_set y i0 (Array1.unsafe_get y i0 +. (alpha *. Array1.unsafe_get x i0));
    Array1.unsafe_set y (i0 + 1)
      (Array1.unsafe_get y (i0 + 1) +. (alpha *. Array1.unsafe_get x (i0 + 1)));
    Array1.unsafe_set y (i0 + 2)
      (Array1.unsafe_get y (i0 + 2) +. (alpha *. Array1.unsafe_get x (i0 + 2)));
    Array1.unsafe_set y (i0 + 3)
      (Array1.unsafe_get y (i0 + 3) +. (alpha *. Array1.unsafe_get x (i0 + 3)));
    i := i0 + 4
  done;
  for j = n4 to n - 1 do
    Array1.unsafe_set y j (Array1.unsafe_get y j +. (alpha *. Array1.unsafe_get x j))
  done

let axpy_unroll8 alpha (x : Field.t) (y : Field.t) =
  let n = Field.length x in
  let n8 = n - (n mod 8) in
  let i = ref 0 in
  while !i < n8 do
    for k = 0 to 7 do
      let j = !i + k in
      Array1.unsafe_set y j (Array1.unsafe_get y j +. (alpha *. Array1.unsafe_get x j))
    done;
    i := !i + 8
  done;
  for j = n8 to n - 1 do
    Array1.unsafe_set y j (Array1.unsafe_get y j +. (alpha *. Array1.unsafe_get x j))
  done

let axpy_variants : (string * (float -> Field.t -> Field.t -> unit)) list =
  [ ("plain", axpy_plain); ("unroll4", axpy_unroll4); ("unroll8", axpy_unroll8) ]


(* ---- pool launch geometries ----
   The multicore launch axis: (ndomains, chunk) pairs, the laptop
   analogue of CUDA block/grid shape. Domain counts are powers of two
   up to the machine (capped by [Domain.recommended_domain_count], or
   the explicit [max_domains] the tests use to exercise the space on
   any box); chunks are one and a quarter of the per-lane share,
   floored so tiny problems do not degenerate to per-element dispatch.
   Pooled candidates draw their pool from [Util.Pool.shared], so a
   tuning sweep spawns each width once. *)
let domain_cap max_domains =
  min
    (Option.value max_domains ~default:(Domain.recommended_domain_count ()))
    Util.Pool.max_domains

let pool_geometries ?max_domains ?(chunk_floor = 1024) ~n () =
  let dmax = domain_cap max_domains in
  let rec widths d acc = if d > dmax then List.rev acc else widths (d * 2) (d :: acc) in
  List.concat_map
    (fun d ->
      let per_lane = max 1 (n / d) in
      let cands =
        List.sort_uniq compare
          [ max chunk_floor (per_lane / 4); max chunk_floor per_lane ]
      in
      List.map (fun c -> (d, c)) cands)
    (widths 2 [])

let geom_label prefix (d, c) = Printf.sprintf "%s_d%d_c%d" prefix d c

(* ---- the one tuned plan ----
   Every launch axis the kernels expose, in one record: the BLAS-1
   tail's fusion mode, the gauge-link codec, the batch width, the
   deflation rank and the pool geometry. A kernel's candidate space
   varies the axes it has and leaves the rest at the baseline, which
   is always in the space — the tuner can refuse every "optimisation"
   (tuner honesty), and bench rows get an honest 1.0 denominator.

   The label names every axis, so it is injective: a cached winner
   names its whole plan and can never alias across any axis, and
   Check.Plan_check rule PLAN007 audits an executed plan against the
   tuned one axis by axis. *)

type plan = {
  mode : Linalg.Fused.mode;
  recon : Linalg.Su3_codec.codec;
  k : int;
  rank : int;
  geometry : (int * int) option;
}

let baseline =
  {
    mode = Linalg.Fused.Unfused;
    recon = Linalg.Su3_codec.Full18;
    k = 1;
    rank = 0;
    geometry = None;
  }

let label p =
  let prefix =
    Printf.sprintf "%s_%s_k%d_r%d"
      (Linalg.Fused.mode_name p.mode)
      (Linalg.Su3_codec.name p.recon)
      p.k p.rank
  in
  match p.geometry with
  | None -> prefix ^ "_serial"
  | Some g -> geom_label prefix g

let space points ~geometries =
  let geometries = None :: List.map Option.some geometries in
  List.concat_map
    (fun p -> List.map (fun geometry -> { p with geometry }) geometries)
    points
  |> List.fold_left
       (fun acc p -> if List.mem p acc then acc else p :: acc)
       [ baseline ]
  |> List.rev_map (fun p -> (label p, p))

(* The pool and chunk a plan launches on: a serial plan runs inline on
   the one-lane shared pool. *)
let launch (p : plan) =
  match p.geometry with
  | None -> (Util.Pool.shared ~domains:1, None)
  | Some (d, c) -> (Util.Pool.shared ~domains:d, Some c)

(* The one tuning driver behind every tune_* below. The domain cap is
   worked out once and handed to [space], and the caller's signature
   (which already names the problem shape) is extended with the cap
   and a hash of the candidate label space: a winner tuned for one
   shape, machine width or space is never served for another, and
   Tuner.tune independently refuses a cached winner absent from the
   live candidates. *)
let tune ~max_domains tuner ~kernel ~signature ~space ~run =
  let dmax = domain_cap max_domains in
  let space = space dmax in
  let signature =
    Printf.sprintf "%s:dmax%d:v%x" signature dmax
      (Hashtbl.hash (List.map fst space))
  in
  let winner =
    Tuner.tune tuner ~kernel ~signature
      (List.map (fun (l, p) -> Tuner.candidate l (fun () -> run p)) space)
  in
  (winner, List.assoc winner space)

(* The Wilson hop: serial against the pooled site-partitioned launches. *)
let tune_hop ?max_domains tuner (w : Dirac.Wilson.t) ~(src : Field.t)
    ~(dst : Field.t) ~signature =
  let n = Field.length dst / Dirac.Wilson.floats_per_site in
  tune ~max_domains tuner ~kernel:"wilson_hop"
    ~signature:(Printf.sprintf "%s:n%d" signature n)
    ~space:(fun dmax ->
      space [ baseline ]
        ~geometries:(pool_geometries ~max_domains:dmax ~chunk_floor:16 ~n ()))
    ~run:(fun p ->
      let pool, chunk = launch p in
      Dirac.Wilson.hop ~pool ?chunk w ~src ~dst)

(* One CG BLAS-1 tail iteration under a plan's fusion mode, sized to
   what each mode actually executes per iteration on the host: Unfused
   = dot_re + axpy + axpy + norm2 + xpay (5 sweeps); Fused = dot_re +
   cg_update + xpay_dot (3 sweeps, the separate-dot fallback);
   Tail_fused = cg_update + xpay_dot (2 sweeps — p·Ap rode the
   stencil). alpha/beta are fixed small scalars so repeated timing
   runs do not drift the data towards overflow. *)
let run_cg_tail (plan : plan) ~(p : Field.t) ~(ap : Field.t) ~(x : Field.t)
    ~(r : Field.t) =
  let alpha = 1e-3 and beta = 0.5 in
  let pool, chunk = launch plan in
  match plan.mode with
  | Linalg.Fused.Unfused ->
    ignore (Field.dot_re ~pool ?chunk p ap : float);
    Field.axpy ~pool ?chunk alpha p x;
    Field.axpy ~pool ?chunk (-.alpha) ap r;
    let r2 = Field.norm2 ~pool ?chunk r in
    Field.xpay ~pool ?chunk r beta p;
    r2
  | Linalg.Fused.Fused | Linalg.Fused.Tail_fused ->
    if plan.mode = Linalg.Fused.Fused then
      ignore (Field.dot_re ~pool ?chunk p ap : float);
    let r2 = Linalg.Fused.cg_update ~pool ?chunk alpha p ap x r in
    ignore (Linalg.Fused.xpay_dot ~pool ?chunk r beta p r : float);
    r2

(* The CG vector tail: the three fusion modes × pool geometries.
   [lint] vets each candidate BEFORE it enters the search: Tuner.tune
   caches its winner on first encounter, so this is the only point
   where a statically invalid plan can be kept out of the cache. The
   callback shape (rather than a direct Check.Plan_check call) is
   forced by the library graph — check links core links autotune — and
   callers close the loop with Check.Plan_check.lint_fusion. The
   baseline is exempt: a linter rejecting the reference plan is a
   linter bug, not a tuning outcome. *)
let tune_fusion ?max_domains ?lint tuner ~n =
  let p = Field.create n and ap = Field.create n in
  let x = Field.create n and r = Field.create n in
  Field.fill p 1e-3;
  Field.fill ap 1e-3;
  Field.fill r 1e-3;
  let vetted (_, (pl : plan)) =
    pl = baseline
    ||
    match lint with
    | None -> true
    | Some vet -> vet ~mode:pl.mode ~geometry:pl.geometry = None
  in
  tune ~max_domains tuner ~kernel:"cg_blas1"
    ~signature:(Printf.sprintf "n%d" n)
    ~space:(fun dmax ->
      List.filter vetted
        (space
           (List.map
              (fun mode -> { baseline with mode })
              Linalg.Fused.[ Unfused; Fused; Tail_fused ])
           ~geometries:(pool_geometries ~max_domains:dmax ~n ())))
    ~run:(fun pl -> ignore (run_cg_tail pl ~p ~ap ~x ~r : float))

(* The whole [kmax]-wide batch as sub-batches of the plan's width:
   a narrow width is priced on the gauge re-streaming it costs, not
   handed fewer vectors. *)
let run_hop_batch (plan : plan) (w : Dirac.Wilson.t) ~(srcs : Field.t array)
    ~(dsts : Field.t array) =
  let kmax = Array.length srcs in
  let pool, chunk = launch plan in
  let off = ref 0 in
  while !off < kmax do
    let width = min plan.k (kmax - !off) in
    Dirac.Wilson.hop_multi ~pool ?chunk w
      ~srcs:(Array.sub srcs !off width)
      ~dsts:(Array.sub dsts !off width);
    off := !off + width
  done

(* The batched hop: codec × batch width × pool geometry. One Wilson
   operator is built per codec, before any timing, from the same
   geometry and gauge (each owns its packed store), so a compressed
   codec pays its reconstruction flops on the full batch and nothing
   else. *)
let tune_hop_recon ?max_domains ?(codecs = Linalg.Su3_codec.all) tuner geom
    gauge ~(srcs : Field.t array) ~(dsts : Field.t array) ~signature =
  let kmax = Array.length srcs in
  if kmax = 0 || Array.length dsts <> kmax then
    invalid_arg "Variants.tune_hop_recon: batch width mismatch";
  let n = Field.length dsts.(0) / Dirac.Wilson.floats_per_site in
  let widths = List.filter (fun k -> k <= kmax) [ 1; 2; 4; 8 ] in
  let ops =
    List.map
      (fun recon -> (recon, Dirac.Wilson.of_geometry ~recon geom gauge))
      (List.sort_uniq compare (baseline.recon :: codecs))
  in
  tune ~max_domains tuner ~kernel:"wilson_hop_recon"
    ~signature:(Printf.sprintf "%s:sites%d:kmax%d" signature n kmax)
    ~space:(fun dmax ->
      space
        (List.concat_map
           (fun recon -> List.map (fun k -> { baseline with recon; k }) widths)
           codecs)
        ~geometries:(pool_geometries ~max_domains:dmax ~chunk_floor:16 ~n ()))
    ~run:(fun pl -> run_hop_batch pl (List.assoc pl.recon ops) ~srcs ~dsts)

(* Tune axpy on vectors of a given size: serial unroll variants plus
   pooled geometries in one search space. The signature carries both
   the length and the domain cap (the cache-key audit: a winner tuned
   at one (n, machine width) is never served for another). *)
let tune_axpy ?max_domains tuner ~n =
  let x = Field.create n and y = Field.create n in
  Field.fill x 1.;
  let dmax = domain_cap max_domains in
  let pooled =
    List.map
      (fun (d, c) ->
        ( geom_label "pool" (d, c),
          fun alpha x y ->
            let pool = Util.Pool.shared ~domains:d in
            Field.axpy ~pool ~chunk:c alpha x y ))
      (pool_geometries ~max_domains:dmax ~n ())
  in
  let variants = axpy_variants @ pooled in
  let signature = Printf.sprintf "n%d:dmax%d" n dmax in
  let winner =
    Tuner.tune tuner ~kernel:"axpy" ~signature
      (List.map
         (fun (label, f) -> Tuner.candidate label (fun () -> f 0.5 x y))
         variants)
  in
  (winner, List.assoc winner variants)

(* The deflation rank. Unlike the traffic axes above, the trade here
   is setup cost vs per-solve iteration reduction, so a candidate is
   priced on a whole campaign slice: Lanczos setup for its rank PLUS
   [solves] deflated solves on the same right-hand-side stream — the
   rank only wins if its setup amortizes within the campaign's solve
   count, which is therefore part of the signature. *)
let tune_deflation ?(ranks = [ 0; 2; 4; 8 ]) ?(solves = 24) ?(tol = 1e-8)
    ?(lanczos_tol = 1e-6) ?(seed = 11) tuner ~apply ~n ~signature =
  if solves < 1 then invalid_arg "Variants.tune_deflation: solves >= 1";
  (* the campaign's right-hand-side stream: one fixed deterministic
     draw, identical for every candidate (fairness) *)
  let bs =
    let rng = Util.Rng.create seed in
    Array.init solves (fun _ ->
        let b = Field.create n in
        Field.gaussian rng b;
        b)
  in
  let max_iter = 200 * n in
  let run (plan : plan) =
    (* setup is INSIDE the timed region: that is the amortization
       being tuned *)
    let deflate =
      if plan.rank = 0 then None
      else begin
        let rng = Util.Rng.create (seed + plan.rank) in
        let res =
          Solver.Lanczos.lowest ~tol:lanczos_tol ~rank:plan.rank ~apply ~n
            ~rng ()
        in
        Some (Solver.Deflate.of_lanczos ~config_hash:0 res)
      end
    in
    Array.iter
      (fun b ->
        ignore
          (Solver.Cg.solve ?deflate ~apply ~b ~tol ~max_iter
             ~flops_per_apply:1. ()
            : Field.t * Solver.Cg.stats))
      bs
  in
  tune ~max_domains:None tuner ~kernel:"cg_deflate"
    ~signature:(Printf.sprintf "%s:n%d:s%d" signature n solves)
    ~space:(fun _ ->
      space (List.map (fun rank -> { baseline with rank }) ranks) ~geometries:[])
    ~run
