(* Conjugate gradient on the normal equations — the paper's solver
   family. The operator is a closure so the same CG drives the plain
   Wilson normal operator, the full Mobius normal operator and the
   red-black preconditioned Schur normal operator. *)

module Field = Linalg.Field

type stats = {
  iterations : int;
  converged : bool;
  relative_residual : float;  (* |r| / |b| from the recurrence *)
  true_relative_residual : float option;  (* recomputed |b - Ax| / |b| *)
  flops : float;
  seconds : float;
  reliable_updates : int;
}

let pp_stats ppf s =
  Format.fprintf ppf "iters=%d conv=%b rel_res=%.2e%s flops=%s time=%s"
    s.iterations s.converged s.relative_residual
    (match s.true_relative_residual with
    | None -> ""
    | Some r -> Printf.sprintf " true_res=%.2e" r)
    (Util.Ascii.si_float s.flops)
    (Util.Ascii.seconds s.seconds)

(* Flops of the BLAS-1 work per CG iteration on vectors of n floats.
   Unfused: dot_re p·Ap (2n) + axpy x (2n) + axpy r (2n) + norm2 r
   (2n) + xpay p (2n) = 10n. Fused: dot_re (2n) + cg_update
   (3 ops × 2n) + xpay_dot (2n update + 2n monitor dot) = 12n — the
   fused path spends two extra flops per float on the free p·r
   orthogonality monitor while moving fewer bytes. *)
let blas1_flops ?(fused = false) n =
  float_of_int ((if fused then 12 else 10) * n)

(* The BLAS-1 tail of one CG iteration as (kernel, full-vector sweeps)
   rows, in launch order — the ground truth Check.Plan_extract lifts
   into the plan IR and Plan_check's PLAN005 pass diffs against
   Machine.Perf_model.blas1_sweeps. Unfused, the p·Ap reduction is the
   leading host kernel. Fused, it is NOT a tail kernel at all: it
   rides the stencil's closing sweep ([apply_dot] below, built on
   Wilson.hop_tail / Mobius.apply_schur_normal_tail), so the fused
   tail is exactly cg_update + xpay_dot — the 2-sweep plan the model
   prices, with no whitelisted gap left. *)
let tail_kernels ~fused =
  if fused then [ ("cg_update", 1); ("xpay_dot", 1) ]
  else [ ("dot_re", 1); ("axpy", 1); ("axpy", 1); ("norm2", 1); ("xpay", 1) ]

(* The batched solve's per-iteration BLAS-1 tail over the active set,
   same convention: (kernel, per-RHS full-vector sweeps) rows in
   launch order. The batched kernels run each RHS's canonical blocked
   reduction, so the sweep counts per RHS equal the single-RHS tail's
   — which is exactly why the multi-RHS catalog plans price to a zero
   PLAN005 gap. *)
let multi_tail_kernels ~fused =
  if fused then [ ("multi_cg_update", 1); ("multi_xpay_dot", 1) ]
  else
    [ ("dot_re", 1); ("axpy", 1); ("axpy", 1); ("norm2", 1); ("xpay", 1) ]

(* Convergence needs both residuals. The recursive |r|² keeps falling
   after the iterate has stopped improving (rounding decouples it from
   b − Ax), so a tolerance below the attainable floor would otherwise
   report convergence on the recurrence alone. A solve is converged
   only if |r| ≤ tol·|b| AND the recomputed |b − Ax|/|b| is within
   [true_residual_slack]·tol — a factor that leaves room for the
   ordinary drift between the two at reachable tolerances. *)
let true_residual_slack = 10.

let converged ~r2 ~target ~tol ~true_res =
  r2 <= target && true_res <= true_residual_slack *. tol

let solve ?(x0 : Field.t option) ?deflate ?(fused = false) ?apply_dot ?trace
    ~apply ~(b : Field.t) ~tol ~max_iter ~flops_per_apply () =
  let n = Field.length b in
  let t_start = Unix.gettimeofday () in
  let x = match x0 with Some x -> Field.copy x | None -> Field.create n in
  let r = Field.create n in
  let ap = Field.create n in
  let pre_applies = ref 0 in
  (* r = b - A x *)
  (match x0 with
  | None -> Field.blit b r
  | Some _ ->
    apply x ap;
    incr pre_applies;
    Field.sub b ap r);
  (* the low-mode guess rides the entry: fold the deflated correction
     of the current residual into x, then recompute r exactly. The
     [deflate = None] path above is untouched (bit-identical). *)
  (match deflate with
  | None -> ()
  | Some d ->
    Deflate.augment d ~r x;
    apply x ap;
    incr pre_applies;
    Field.sub b ap r);
  let p = Field.copy r in
  let b2 = Field.norm2 b in
  if b2 = 0. then begin
    Field.fill x 0.;
    ( x,
      {
        iterations = 0;
        converged = true;
        relative_residual = 0.;
        true_relative_residual = Some 0.;
        flops = 0.;
        seconds = Unix.gettimeofday () -. t_start;
        reliable_updates = 0;
      } )
  end
  else begin
    let target = tol *. tol *. b2 in
    let r2 = ref (Field.norm2 r) in
    let iters = ref 0 in
    let applies = ref !pre_applies in
    while !r2 > target && !iters < max_iter do
      incr iters;
      (* ap = A p and pap = p·Ap. With a tail-capable operator the
         fused path computes the dot inside the stencil's closing
         sweep (no separate full-vector reduction — the 2-sweep plan
         Perf_model prices); the canonical blocked reduction makes it
         bit-identical to the dot_re below. *)
      let pap =
        match apply_dot with
        | Some f when fused ->
          incr applies;
          (f p ap : float)
        | _ ->
          apply p ap;
          incr applies;
          Field.dot_re p ap
      in
      if pap <= 0. then
        (* Operator not positive along p: bail out (caller sees
           converged=false). Normal equations should not hit this. *)
        iters := max_iter
      else begin
        let alpha = !r2 /. pap in
        let r2_new =
          if fused then Linalg.Fused.cg_update alpha p ap x r
          else begin
            Field.axpy alpha p x;
            Field.axpy (-.alpha) ap r;
            Field.norm2 r
          end
        in
        let beta = r2_new /. !r2 in
        r2 := r2_new;
        (* p = r + beta p. The fused kernel also returns p·r — in
           exact arithmetic |r|², a free orthogonality monitor riding
           the sweep; the recurrence doesn't consume it. *)
        if fused then ignore (Linalg.Fused.xpay_dot r beta p r : float)
        else Field.xpay r beta p;
        match trace with Some f -> f r2_new | None -> ()
      end
    done;
    (* true residual *)
    apply x ap;
    incr applies;
    Field.sub b ap ap;
    let true_res = sqrt (Field.norm2 ap /. b2) in
    let flops =
      (float_of_int !applies *. flops_per_apply)
      +. (float_of_int !iters *. blas1_flops ~fused n)
    in
    ( x,
      {
        iterations = !iters;
        converged = converged ~r2:!r2 ~target ~tol ~true_res;
        relative_residual = sqrt (!r2 /. b2);
        true_relative_residual = Some true_res;
        flops;
        seconds = Unix.gettimeofday () -. t_start;
        reliable_updates = 0;
      } )
  end

(* ---- batched multi-RHS front end ----
   k systems against one operator, advanced in lockstep with per-RHS
   convergence masking: a converged (or bailed-out) RHS leaves the
   active set, runs its true-residual finalization, and never touches
   the batched kernels again, while every surviving RHS executes
   *exactly* the scalar recurrence and vector kernels of its
   independent [solve] — per-RHS alpha/beta from that RHS's own
   canonical blocked reductions, batched updates through
   [Linalg.Multi_blas] whose slot i is bit-identical to the
   single-vector fused kernel. Consequence: for an operator whose
   batched application is per-RHS bit-identical to its single-RHS form
   (Wilson.hop_multi / Mobius.apply_schur_normal_multi, or any
   per-RHS loop), the returned xs.(i) and trajectory are bit-identical
   to [solve] on (bs.(i), x0s.(i)) — the property the @multirhs qcheck
   suite pins down. *)
let solve_multi ?(x0s : Field.t array option) ?deflate ?(fused = false) ?trace
    ~apply ~(bs : Field.t array) ~tol ~max_iter ~flops_per_apply () =
  let k = Array.length bs in
  if k = 0 then invalid_arg "Cg.solve_multi: empty batch";
  let n = Field.length bs.(0) in
  Array.iter
    (fun (b : Field.t) ->
      if Field.length b <> n then invalid_arg "Cg.solve_multi: length mismatch")
    bs;
  (match x0s with
  | Some xs when Array.length xs <> k ->
    invalid_arg "Cg.solve_multi: x0s width mismatch"
  | _ -> ());
  let t_start = Unix.gettimeofday () in
  let xs =
    Array.init k (fun i ->
        match x0s with Some x0 -> Field.copy x0.(i) | None -> Field.create n)
  in
  let rs = Array.init k (fun _ -> Field.create n) in
  let aps = Array.init k (fun _ -> Field.create n) in
  let applies = Array.make k 0 in
  (* r = b - A x; the guess-seeded residual uses one batched apply *)
  (match x0s with
  | None -> Array.iteri (fun i b -> Field.blit b rs.(i)) bs
  | Some _ ->
    apply xs aps;
    Array.iteri
      (fun i (b : Field.t) ->
        applies.(i) <- applies.(i) + 1;
        Field.sub b aps.(i) rs.(i))
      bs);
  (* the batched low-mode guess: one k×r coefficient tile and one
     block_axpy launch fold the deflated correction into every guess,
     then one batched apply recomputes the residuals exactly. Row i is
     bit-identical to the single-RHS [solve ?deflate] entry. *)
  (match deflate with
  | None -> ()
  | Some d ->
    Deflate.augment_multi d ~rs xs;
    apply xs aps;
    Array.iteri
      (fun i (b : Field.t) ->
        applies.(i) <- applies.(i) + 1;
        Field.sub b aps.(i) rs.(i))
      bs);
  let ps = Array.init k (fun i -> Field.copy rs.(i)) in
  let b2s = Array.map (fun b -> Field.norm2 b) bs in
  let targets = Array.map (fun b2 -> tol *. tol *. b2) b2s in
  let r2s = Array.map (fun r -> Field.norm2 r) rs in
  let iters = Array.make k 0 in
  let out = Array.make k None in
  let finalize i =
    (* the independent solve's closing true-residual pass, one RHS *)
    apply [| xs.(i) |] [| aps.(i) |];
    applies.(i) <- applies.(i) + 1;
    Field.sub bs.(i) aps.(i) aps.(i);
    let true_res = sqrt (Field.norm2 aps.(i) /. b2s.(i)) in
    let flops =
      (float_of_int applies.(i) *. flops_per_apply)
      +. (float_of_int iters.(i) *. blas1_flops ~fused n)
    in
    out.(i) <-
      Some
        {
          iterations = iters.(i);
          converged = converged ~r2:r2s.(i) ~target:targets.(i) ~tol ~true_res;
          relative_residual = sqrt (r2s.(i) /. b2s.(i));
          true_relative_residual = Some true_res;
          flops;
          seconds = Unix.gettimeofday () -. t_start;
          reliable_updates = 0;
        }
  in
  let active = Array.make k false in
  Array.iteri
    (fun i b2 ->
      if b2 = 0. then begin
        (* the zero-source early return, per RHS *)
        Field.fill xs.(i) 0.;
        out.(i) <-
          Some
            {
              iterations = 0;
              converged = true;
              relative_residual = 0.;
              true_relative_residual = Some 0.;
              flops = 0.;
              seconds = Unix.gettimeofday () -. t_start;
              reliable_updates = 0;
            }
      end
      else if r2s.(i) <= targets.(i) || max_iter <= 0 then finalize i
      else active.(i) <- true)
    b2s;
  let any_active () = Array.exists (fun a -> a) active in
  let sub (vs : Field.t array) (idx : int array) =
    Array.map (fun i -> vs.(i)) idx
  in
  while any_active () do
    let act =
      Array.of_list
        (List.filter (fun i -> active.(i)) (List.init k (fun i -> i)))
    in
    (* one batched operator sweep over the active set *)
    apply (sub ps act) (sub aps act);
    Array.iter
      (fun i ->
        iters.(i) <- iters.(i) + 1;
        applies.(i) <- applies.(i) + 1)
      act;
    let paps = Array.map (fun i -> Field.dot_re ps.(i) aps.(i)) act in
    (* a non-positive p·Ap bails that RHS out exactly as [solve] does *)
    Array.iteri
      (fun j i ->
        if paps.(j) <= 0. then begin
          iters.(i) <- max_iter;
          active.(i) <- false;
          finalize i
        end)
      act;
    let upd = Array.of_list (List.filter (fun i -> active.(i)) (Array.to_list act)) in
    if Array.length upd > 0 then begin
      (* per-RHS alpha from that RHS's own reduction *)
      let pap_of =
        let tbl = Hashtbl.create (Array.length act) in
        Array.iteri (fun j i -> Hashtbl.replace tbl i paps.(j)) act;
        fun i -> Hashtbl.find tbl i
      in
      let alphas = Array.map (fun i -> r2s.(i) /. pap_of i) upd in
      let r2_news =
        if fused then
          Linalg.Multi_blas.cg_update alphas (sub ps upd) (sub aps upd)
            (sub xs upd) (sub rs upd)
        else
          Array.map
            (fun i ->
              let alpha = r2s.(i) /. pap_of i in
              Field.axpy alpha ps.(i) xs.(i);
              Field.axpy (-.alpha) aps.(i) rs.(i);
              Field.norm2 rs.(i))
            upd
      in
      let betas =
        Array.mapi (fun j i -> r2_news.(j) /. r2s.(i)) upd
      in
      Array.iteri (fun j i -> r2s.(i) <- r2_news.(j)) upd;
      (* p = r + beta p (the fused path's p·r monitor rides the sweep) *)
      if fused then
        ignore
          (Linalg.Multi_blas.xpay_dot (sub rs upd) betas (sub ps upd)
             (sub rs upd)
            : float array)
      else Array.iteri (fun j i -> Field.xpay rs.(i) betas.(j) ps.(i)) upd;
      (match trace with
      | Some f -> Array.iteri (fun j i -> f i r2_news.(j)) upd
      | None -> ());
      (* masking: converged or exhausted RHS leave the batch *)
      Array.iter
        (fun i ->
          if r2s.(i) <= targets.(i) || iters.(i) >= max_iter then begin
            active.(i) <- false;
            finalize i
          end)
        upd
    end
  done;
  (xs, Array.map Option.get out)
