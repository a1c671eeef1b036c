(* Mixed-precision CG with reliable updates — the paper's double-half
   solver. The inner iteration runs with vectors stored in 16-bit
   fixed point (per-site norms, Linalg.Field.Half); the iterated
   residual therefore drifts from the true one, and whenever it has
   dropped by [delta] relative to the last checkpoint the solution is
   promoted to the double-precision accumulator and the residual is
   recomputed exactly (a "reliable update"). All reductions are in
   double precision throughout, as in the paper. *)

module Field = Linalg.Field

type config = {
  tol : float;
  max_iter : int;
  delta : float;  (* reliable-update trigger: residual drop factor *)
  block : int;  (* floats sharing one half-precision norm (24 = site) *)
}

let default_config = { tol = 1e-8; max_iter = 2000; delta = 0.1; block = 24 }

(* Structural validity of a configuration against a vector length —
   the invariants the half codec and the reliable-update loop assume.
   Checked here at solve entry and statically by Check.Spec_check. *)
let validate_config ~n (c : config) =
  if c.block <= 0 then Error (Printf.sprintf "block must be positive (got %d)" c.block)
  else if n > 0 && n mod c.block <> 0 then
    Error
      (Printf.sprintf "block %d does not divide the vector length %d" c.block n)
  else if not (c.tol > 0. && Float.is_finite c.tol) then
    Error (Printf.sprintf "tol must be positive and finite (got %g)" c.tol)
  else if c.max_iter <= 0 then
    Error (Printf.sprintf "max_iter must be positive (got %d)" c.max_iter)
  else if not (c.delta > 0. && c.delta < 1.) then
    Error
      (Printf.sprintf "delta must lie strictly inside (0,1) (got %g)" c.delta)
  else Ok ()

(* Quantize a vector in place through the half codec: this is the
   storage-precision loss the inner solve sees. *)
let quantize ~block v =
  let h = Field.Half.create ~block (Field.length v) in
  Field.Half.encode v h;
  Field.Half.decode h v

(* The half-stored buffers the inner loop forces through the codec on
   every iteration, in quantize order: the search direction before the
   stencil, the stencil result after it, the sloppy residual after the
   update. Check.Plan_extract lifts these into Quantize steps; the
   precision-flow pass (PREC rules) verifies every half-read is
   preceded by one of them. *)
let inner_quantizes = [ "p"; "ap"; "rs" ]

(* The reliable-update kernels (promote + exact residual), as
   (kernel, full-vector sweeps) rows in launch order. *)
let reliable_update_kernels ~fused =
  if fused then [ ("axpy", 1); ("blit", 1); ("axpy_norm2", 1) ]
  else [ ("axpy", 1); ("sub", 1); ("norm2", 1) ]

let solve ?(config = default_config) ?deflate ?(fused = false) ?trace ~apply
    ~(b : Field.t) ~flops_per_apply () =
  let n = Field.length b in
  (match validate_config ~n config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Mixed.solve: " ^ msg));
  let t_start = Unix.gettimeofday () in
  let block = config.block in
  let x = Field.create n in
  (* double-precision residual *)
  let r = Field.create n in
  Field.blit b r;
  let b2 = Field.norm2 b in
  let target = config.tol *. config.tol *. b2 in
  let ap = Field.create n in
  let applies = ref 0 in
  let iters = ref 0 in
  let reliable = ref 0 in
  if b2 > 0. then begin
    (* Deflation lives entirely in the outer double-precision world:
       the low-mode guess is folded into x at entry (and refreshed at
       each reliable update below); the half-precision inner loop is
       untouched. *)
    (match deflate with
    | None -> ()
    | Some d ->
      Deflate.augment d ~r x;
      apply x ap;
      incr applies;
      Field.sub b ap r);
    let r2 = ref (Field.norm2 r) in
    let continue_outer = ref true in
    while !continue_outer && !r2 > target && !iters < config.max_iter do
      (* ---- inner half-precision CG cycle against current r ---- *)
      let rs = Field.copy r in
      quantize ~block rs;
      let p = Field.copy rs in
      let xs = Field.create n in
      let rs2 = ref (Field.norm2 rs) in
      let checkpoint = !rs2 in
      let inner_target = Float.max target (config.delta *. config.delta *. checkpoint) in
      let stalled = ref false in
      while (not !stalled) && !rs2 > inner_target && !iters < config.max_iter do
        incr iters;
        (* the stencil consumes and produces half-stored data *)
        quantize ~block p;
        apply p ap;
        incr applies;
        quantize ~block ap;
        let pap = Field.dot_re p ap in
        if pap <= 0. then stalled := true
        else begin
          let alpha = !rs2 /. pap in
          (if fused then
             (* cg_update's fused |rs|² is the PRE-quantization norm;
                the recurrence needs the post-quantization one, so it
                is discarded and recomputed after the codec pass —
                the price of keeping bit-identity with the unfused
                path. The xpay_dot monitor still saves a sweep. *)
             ignore (Linalg.Fused.cg_update alpha p ap xs rs : float)
           else begin
             Field.axpy alpha p xs;
             Field.axpy (-.alpha) ap rs
           end);
          quantize ~block rs;
          let rs2_new = Field.norm2 rs in
          let beta = rs2_new /. !rs2 in
          rs2 := rs2_new;
          if fused then ignore (Linalg.Fused.xpay_dot rs beta p rs : float)
          else Field.xpay rs beta p;
          match trace with Some f -> f rs2_new | None -> ()
        end
      done;
      (* ---- reliable update: promote and recompute exactly ---- *)
      incr reliable;
      Field.axpy 1. xs x;
      apply x ap;
      incr applies;
      let r2_new =
        if fused then begin
          (* r <- b − Ax and |r|² in one sweep: blit then
             axpy_norm2 (−1). Bitwise b +. (−1·ap) ≡ b −. ap. *)
          Field.blit b r;
          Linalg.Fused.axpy_norm2 (-1.) ap r
        end
        else begin
          Field.sub b ap r;
          Field.norm2 r
        end
      in
      (* Re-deflate the exact residual: the half codec reintroduces
         low-mode error the inner loop contracts slowly, so each
         reliable update cleans the deflated span out of x again —
         one extra (double-precision) apply per update. *)
      let r2_new =
        match deflate with
        | None -> r2_new
        | Some d ->
          let g = Deflate.deflated_guess d ~b:r in
          Field.axpy 1. g x;
          apply g ap;
          incr applies;
          Field.axpy (-1.) ap r;
          Field.norm2 r
      in
      (* If quantization noise floors out before the target, stop:
         the caller can fall back to a pure double solve. *)
      if !stalled || r2_new >= !r2 *. 0.9999 then continue_outer := false;
      r2 := r2_new
    done;
    let flops =
      (float_of_int !applies *. flops_per_apply)
      +. (float_of_int !iters *. Cg.blas1_flops ~fused n)
    in
    let rel = sqrt (Field.norm2 r /. b2) in
    ( x,
      {
        Cg.iterations = !iters;
        converged = Field.norm2 r <= target;
        relative_residual = rel;
        true_relative_residual = Some rel;
        flops;
        seconds = Unix.gettimeofday () -. t_start;
        reliable_updates = !reliable;
      } )
  end
  else
    ( x,
      {
        Cg.iterations = 0;
        converged = true;
        relative_residual = 0.;
        true_relative_residual = Some 0.;
        flops = 0.;
        seconds = Unix.gettimeofday () -. t_start;
        reliable_updates = 0;
      } )
