(* Multi-vector fused BLAS-1 — QUDA's multi-blas idiom on the host:
   one launch streams a whole *set* of vectors, tiling the work so the
   per-vector updates and reductions interleave block-by-block instead
   of vector-by-vector. Two families:

   - [block_axpy a xs ys]: the tiled y[i] <- y[i] + sum_j a[i][j] x[j]
     (QUDA's multi_blas_quda caxpy tile). Element-wise, so for each
     output i it matches the sequential
       Field.axpy a.(i).(0) xs.(0) ys.(i); ...; axpy a.(i).(m-1) ...
     bit-for-bit (the j-accumulation order is the same per element).

   - batched reduction kernels [axpy_norm2]/[xpay_dot]/[cg_update]:
     the Fused kernels over vector sets. Each RHS i runs the *same*
     [Fused] term body through the same canonical
     [Field.reduce_block]-float blocked, index-ordered reduction as its
     single-vector twin — the batch merely interleaves the block passes
     across RHS — so result i is bit-identical to the independent fused
     call, serial or pooled, for any pool geometry. That is the
     invariant [Cg.solve_multi] leans on for per-RHS trajectory
     identity.

   Aliasing contract: like [Fused] but across the whole set — an
   output vector sharing storage with any input of a different role,
   or with another output, raises [Invalid_argument] (probed via
   [Fused.same_data]; see Check.Mrhs_check for the static mirror). *)

open Bigarray

type t = Field.t

(* Shape check of one call: [first] is a non-empty batch, every set in
   [others] has its width, every vector has the length of
   [first.(0)], and [scalars] holds one coefficient per slot. Returns
   (length, width). *)
let check_sets name ?scalars (first : t array) (others : t array list) =
  let k = Array.length first in
  if k = 0 then invalid_arg (name ^ ": empty batch");
  let n = Field.length first.(0) in
  List.iter
    (fun (vs : t array) ->
      if Array.length vs <> k then invalid_arg (name ^ ": batch width mismatch");
      Array.iter
        (fun v ->
          if Field.length v <> n then invalid_arg (name ^ ": length mismatch"))
        vs)
    (first :: others);
  Option.iter
    (fun (a : float array) ->
      if Array.length a <> k then
        invalid_arg (name ^ ": coefficient count mismatch"))
    scalars;
  (n, k)

(* Outputs must be pairwise distinct and must not share data with any
   input of a different role. k is small (a batch width), so the
   quadratic probe is cheap. *)
let no_alias_sets name (outs : t array) (ins : t array) =
  Array.iteri
    (fun i o ->
      Array.iteri
        (fun j o' ->
          if i < j && Fused.same_data o o' then
            invalid_arg (name ^ ": two outputs share storage"))
        outs;
      Array.iter
        (fun inp ->
          if Fused.same_data o inp then
            invalid_arg (name ^ ": output aliases an input of a different role"))
        ins)
    outs

(* ---- the batched reduction engine ----
   [Field.block_fold] with one partial per RHS: the block loop runs
   outside the RHS loop, so one pass over block [b] touches every
   vector's slice while it is hot, and the per-RHS partials fold in
   block-index order — result i is bit-identical to the single-vector
   [Field.block_sum] of [term i], for the pool [Field.implicit_pool]
   picks (the explicit one when given). *)
let batch_fold pool chunk ~n ~k term =
  Field.block_fold
    (Field.implicit_pool ?pool n)
    chunk ~n ~block:Field.reduce_block ~zero:(Array.make k 0.)
    ~add:(Array.map2 ( +. ))
    (fun lo hi -> Array.init k (fun i -> term i lo hi))

let finish kernel (vs : t array) (ss : float array) =
  Array.iter (Field.Sanitize.check_vec kernel) vs;
  Array.iter (fun s -> ignore (Field.Sanitize.check_scalar kernel s : float)) ss;
  ss

(* The per-RHS range terms are the Fused term bodies, run per set
   slot — the batch owns no update/reduce loop of its own. *)

(* ---- batched axpy_norm2: ys.(i) <- ys.(i) + alphas.(i) xs.(i);
   returns per-RHS |y|^2 ---- *)

let axpy_norm2 ?pool ?chunk alphas (xs : t array) (ys : t array) =
  let name = "Multi_blas.axpy_norm2" in
  let n, k = check_sets name ~scalars:alphas ys [ xs ] in
  no_alias_sets name ys xs;
  finish "Multi_blas.axpy_norm2" ys
    (batch_fold pool chunk ~n ~k (fun i lo hi ->
         Fused.axpy_norm2_term alphas.(i) xs.(i) ys.(i) lo hi))

(* ---- batched xpay_dot: ps.(i) <- xs.(i) + betas.(i) ps.(i);
   returns per-RHS p.q ---- *)

let xpay_dot ?pool ?chunk (xs : t array) betas (ps : t array) (qs : t array) =
  let name = "Multi_blas.xpay_dot" in
  let n, k = check_sets name ~scalars:betas ps [ xs; qs ] in
  (* q is a read-only role: q = p (the monitor idiom) stays legal, so
     only the x inputs are in the alias cross-check *)
  no_alias_sets name ps xs;
  finish "Multi_blas.xpay_dot" ps
    (batch_fold pool chunk ~n ~k (fun i lo hi ->
         Fused.xpay_dot_term xs.(i) betas.(i) ps.(i) qs.(i) lo hi))

(* ---- batched cg_update: xs.(i) += alphas.(i) ps.(i);
   rs.(i) -= alphas.(i) aps.(i); returns per-RHS |r|^2 ---- *)

let cg_update ?pool ?chunk alphas (ps : t array) (aps : t array)
    (xs : t array) (rs : t array) =
  let name = "Multi_blas.cg_update" in
  let n, k = check_sets name ~scalars:alphas ps [ aps; xs; rs ] in
  no_alias_sets name (Array.append xs rs) (Array.append ps aps);
  let ss =
    batch_fold pool chunk ~n ~k (fun i lo hi ->
        Fused.cg_update_term alphas.(i) ps.(i) aps.(i) xs.(i) rs.(i) lo hi)
  in
  Array.iter (Field.Sanitize.check_vec "Multi_blas.cg_update") xs;
  finish "Multi_blas.cg_update" rs ss

(* ---- the multi-blas tile: ys.(i) <- ys.(i) + sum_j a.(i).(j) xs.(j)
   No reduction, so the pooled path is race-free by element
   partitioning alone; per element the j-accumulation runs in index
   order, matching the sequential per-j Field.axpy sweeps to the
   bit. ---- *)

let block_axpy_range (a : float array array) (xs : t array) (ys : t array) lo
    hi =
  let m = Array.length xs in
  Array.iteri
    (fun i (y : t) ->
      let ai = a.(i) in
      for e = lo to hi - 1 do
        let acc = ref (Array1.unsafe_get y e) in
        for j = 0 to m - 1 do
          acc := !acc +. (ai.(j) *. Array1.unsafe_get xs.(j) e)
        done;
        Array1.unsafe_set y e !acc
      done)
    ys

let block_axpy_checked name (a : float array array) (xs : t array)
    (ys : t array) =
  let n, _ = check_sets name ys [] in
  if fst (check_sets name xs []) <> n then
    invalid_arg (name ^ ": length mismatch");
  if Array.length a <> Array.length ys then
    invalid_arg (name ^ ": coefficient rows must match outputs");
  Array.iter
    (fun row ->
      if Array.length row <> Array.length xs then
        invalid_arg (name ^ ": coefficient columns must match inputs"))
    a;
  no_alias_sets name ys xs;
  n

let block_axpy ?pool ?chunk (a : float array array) (xs : t array)
    (ys : t array) =
  let n = block_axpy_checked "Multi_blas.block_axpy" a xs ys in
  Field.run_pooled (Field.implicit_pool ?pool n) ?chunk ~n
    (block_axpy_range a xs ys);
  Array.iter (Field.Sanitize.check_vec "Multi_blas.block_axpy") ys

(* Operand-role table for the batched kernels, by plan-IR kernel name:
   (formal, is_output) in call order, one formal per *set*. The static
   analyzer expands sets to per-RHS buffers (src0.., dst0..) itself. *)
let operand_roles = function
  | "multi_axpy_norm2" -> Some [ ("x", false); ("y", true) ]
  | "multi_xpay_dot" -> Some [ ("x", false); ("p", true); ("q", false) ]
  | "multi_cg_update" ->
    Some [ ("p", false); ("ap", false); ("x", true); ("r", true) ]
  | "block_axpy" -> Some [ ("x", false); ("y", true) ]
  | _ -> None
