(* Seeded defect fixtures: twenty-eight artifacts, each carrying
   exactly the class of bug its pass exists to catch (six of them
   nonblocking-halo defects: early boundary read, send-buffer race,
   lost completion, zero-copy corruption, wasted double-buffering,
   transport/policy mismatch; two pool-determinism defects:
   completion-order reduction, under-cutoff pooled launch; one
   fused-kernel defect: non-canonical reduction block; two batched
   multi-RHS defects: converged RHS left active, mask width
   mismatching the batch; eight plan-level defects caught statically
   from the IR alone: partition overlap, aliased fused output, tail
   output aliasing the stencil dst, zero-copy window write, model/IR
   sweep mismatch, half-codec range violation, stale-precision read,
   executed plan differing from the tuned one; two compressed
   gauge-link defects: non-unitary source link beyond the codec
   tolerance, stale compressed halo; two low-mode deflation defects:
   space stale against the live gauge configuration, basis drifted
   beyond its build bound). The CLI's --selftest and the test suite
   assert every one is detected, which keeps the checker honest — a
   pass that silently stops firing fails CI. *)

module P = Jobman.Pipeline
module F = Linalg.Field

type t = {
  name : string;
  defect : string;  (* what is wrong with the artifact *)
  expect : string;  (* rule id family expected to fire *)
  run : unit -> Diagnostic.t list;
}

let task ?(nodes = 1) ?(duration = 60.) ?(deps = []) ?(cpu_only = false) id =
  { P.id; nodes; duration; deps; cpu_only }

(* 1. A campaign whose tail contraction closes a dependency cycle. *)
let dag_cycle () =
  let tasks =
    [
      task 0 ~deps:[ 2 ];
      task 1 ~deps:[ 0 ];
      task 2 ~deps:[ 1 ];
      task 3;  (* innocent bystander, must still be schedulable *)
    ]
  in
  Dag_check.verify ~n_nodes:8 tasks

(* 2. A propagator task wider than the whole allocation. *)
let oversubscribed () =
  let tasks = [ task 0 ~nodes:64; task 1 ~deps:[ 0 ] ] in
  Dag_check.verify ~n_nodes:32 tasks

(* 3. An overlapped stencil schedule that only exchanges the x and y
   faces before a full stencil read: z/t ghosts are read stale. *)
let halo_domain () =
  let geom = Lattice.Geometry.create [| 4; 4; 4; 4 |] in
  Lattice.Domain.create geom [| 2; 2; 1; 1 |]

let stale_ghost () =
  Halo_check.verify_schedule (halo_domain ())
    [
      Halo_check.Scatter;
      Halo_check.Exchange (Some [| 0; 1; 2; 3 |]);
      Halo_check.Stencil Halo_check.Full;
    ]

(* 3a. A fine-grained overlapped schedule whose boundary sub-stencil
   for the x faces runs before those faces completed: the classic
   "forgot the wait" interleaving bug. *)
let early_boundary_read () =
  Halo_check.verify_schedule (halo_domain ())
    [
      Halo_check.Scatter;
      Halo_check.Post None;
      Halo_check.Stencil Halo_check.Interior;
      Halo_check.Stencil_faces [| 0; 1 |];  (* x faces still in flight *)
      Halo_check.Complete None;
      Halo_check.Stencil Halo_check.Boundary;
    ]

(* 3b. A rank rewrites its local sites while its posted messages are
   still in flight: the nonblocking send-buffer race. *)
let send_buffer_race () =
  Halo_check.verify_schedule (halo_domain ())
    [
      Halo_check.Scatter;
      Halo_check.Post None;
      Halo_check.Write [ 0 ];
      Halo_check.Complete None;
      Halo_check.Stencil Halo_check.Full;
    ]

(* 3c. A post whose z/t completions never happen: the receivers' ghosts
   wait forever (an MPI_Wait that was never issued). *)
let lost_completion () =
  Halo_check.verify_schedule (halo_domain ())
    [
      Halo_check.Scatter;
      Halo_check.Post None;
      Halo_check.Stencil Halo_check.Interior;
      Halo_check.Complete (Some [| 0; 1; 2; 3 |]);
      Halo_check.Stencil_faces [| 0; 1; 2; 3 |];
    ]

(* 3d. The same write-after-post pattern as 3b, but under the
   zero-copy transport, where the in-flight payload aliases the
   writer's field: the delivered ghosts are corrupt for real, and the
   diagnostic names the first racing site's global coordinate. The
   trailing exchange refreshes the ghosts so only the corruption
   fires, not a stale read. *)
let zero_copy_race () =
  Halo_check.verify_schedule ~transport:Machine.Transport.Zero_copy
    (halo_domain ())
    [
      Halo_check.Scatter;
      Halo_check.Post None;
      Halo_check.Write [ 0 ];
      Halo_check.Complete None;
      Halo_check.Exchange None;
      Halo_check.Stencil Halo_check.Full;
    ]

(* 3e. A double-buffered schedule where no write ever lands between a
   post and its completion: every rotation copy was paid for nothing —
   the staged transport would deliver the same data cheaper. *)
let wasted_double_buffer () =
  Halo_check.verify_schedule ~transport:Machine.Transport.Double_buffered
    (halo_domain ())
    [
      Halo_check.Scatter;
      Halo_check.Post None;
      Halo_check.Stencil Halo_check.Interior;
      Halo_check.Complete None;
      Halo_check.Stencil Halo_check.Boundary;
    ]

(* 3f. A GDR policy modeled with the staged transport: the real wire
   is zero-copy, so the staging model hides the send-buffer race the
   hardware path actually has. *)
let transport_mismatch () =
  Halo_check.verify_schedule ~transport:Machine.Transport.Staged
    ~policy:
      { Machine.Policy.transfer = Machine.Policy.Gdr;
        granularity = Machine.Policy.Fine }
    (halo_domain ())
    [
      Halo_check.Scatter;
      Halo_check.Exchange None;
      Halo_check.Stencil Halo_check.Full;
    ]

(* 4. A mixed-precision solve whose operator manufactures a NaN — the
   half codec would silently launder it to zero; the instrumented
   kernels trap it at the encode boundary. *)
let nan_solve () =
  let n = 2 * 24 in
  let apply (x : F.t) (y : F.t) =
    for i = 0 to n - 1 do
      Bigarray.Array1.unsafe_set y i (2.5 *. Bigarray.Array1.unsafe_get x i)
    done;
    Bigarray.Array1.unsafe_set y 0 Float.nan
  in
  let b = F.create n in
  F.gaussian (Util.Rng.create 7) b;
  Numeric_check.probe_mixed_solve ~apply ~b ()

(* 5. A field whose half-codec blocks are invalid: one block loses
   23/24 values to the int16 mantissa floor, the next underflows the
   float32 norm entirely. *)
let bad_half_block () =
  let v = F.create 48 in
  F.fill v 1e-9;
  Bigarray.Array1.set v 0 1.0;  (* block 0: dynamic range 1e9 >> 32767 *)
  for i = 24 to 47 do
    Bigarray.Array1.set v i 1e-40  (* block 1: norm below float32 *)
  done;
  Numeric_check.half_blocks ~block:24 v

(* 6. A multi-domain norm2 whose partials are combined in completion
   order: the exact nondeterminism Pool.parallel_reduce ~ordered:false
   has, and the reason the engine defaults to the ordered combine. *)
let unordered_reduce () =
  Pool_check.verify_plan
    (Pool_check.plan ~reduction:Pool_check.Completion_order ~kernel:"norm2"
       ~n:(1 lsl 17) ~domains:4 ~chunk:8192 ())

(* 6a. A 512-element axpy forked across 4 domains: bit-identical but
   slower than the serial loop — the geometry the tuner must reject. *)
let tiny_pooled () =
  Pool_check.verify_plan
    (Pool_check.plan ~kernel:"axpy" ~n:512 ~domains:4 ~chunk:128 ())

(* 7. A fused axpy_norm2 accumulating 4096-float blocks: every partial
   sums twice the canonical span, so the fused |y|2 associates
   differently from the standalone norm2 — the bit-drift the fusion
   layer exists to rule out. *)
let fused_wrong_block () =
  Fuse_check.verify_plan
    (Fuse_check.plan ~kernel:"axpy_norm2" ~n:(1 lsl 20) ~block:4096 ())

(* ---- 7'. batched multi-RHS defects ---- *)

(* 7a. A batched CG update whose RHS 1 met its stopping criterion but
   was never dropped from the active set: the batched kernels keep
   advancing an iterate the independent solve froze — the trajectory
   silently diverges from the k-independent-solves reference. *)
let mrhs_masked_update () =
  Mrhs_check.verify_plan
    (Mrhs_check.plan ~kernel:"multi_cg_update" ~k:4 ~n:(1 lsl 16)
       ~block:Linalg.Field.reduce_block
       ~active:[| true; true; true; false |]
       ~converged:[| false; true; false; true |])

(* 7b. A width-4 batched hop carrying width-3 masks: the RHS at the
   batch boundary is silently dropped (or invented) by every masked
   loop. *)
let mrhs_block_mismatch () =
  Mrhs_check.verify_plan
    (Mrhs_check.plan ~kernel:"wilson_hop_multi" ~k:4 ~n:(1 lsl 16)
       ~block:Linalg.Field.reduce_block
       ~active:[| true; true; true |]
       ~converged:[| false; false; false |])

(* ---- 8. plan-level defects: the same bug classes caught statically,
   from the IR alone, before any kernel runs ---- *)

(* 8a. A pooled launch whose explicit partition double-covers a range:
   two domains would race on [512, 1024). *)
let plan_partition_overlap () =
  let open Plan_ir in
  let k =
    kernel
      ~partition:[| (0, 1024); (512, 2048); (2048, 4096) |]
      ~args:[ ("x", Read); ("y", Update) ]
      "axpy"
  in
  Plan_check.verify
    (plan ~n:4096
       ~buffers:[ buffer ~prec:Double "x"; buffer ~prec:Double "y" ]
       ~steps:[ Launch k ] "overlap-fixture")

(* 8b. The fused CG tail with the solution output aliasing the Ap
   input — the aliasing Linalg.Fused's runtime guard rejects, caught
   from the plan. *)
let plan_aliased_output () =
  let open Plan_ir in
  let p = Plan_extract.cg_tail ~fused:true () in
  let alias = function
    | Launch k when k.kname = "cg_update" ->
      Launch
        {
          k with
          args =
            List.map
              (fun (name, role) ->
                if name = "x" then ("ap", role) else (name, role))
              k.args;
        }
    | s -> s
  in
  Plan_check.verify { p with steps = List.map alias p.steps }

(* 8b'. The tail-fused Wilson hop with the tail's xpay output renamed
   onto the stencil dst — the plan-level twin of 7a': PLAN002 catches
   the duplicate name with a writing role from the IR alone. *)
let plan_tail_aliased () =
  let open Plan_ir in
  let p = Plan_extract.wilson_hop_tail () in
  let alias = function
    | Launch k when k.kname = "wilson_hop_tail" ->
      Launch
        {
          k with
          args =
            List.map
              (fun (name, role) ->
                if name = "out" then ("dst", role) else (name, role))
              k.args;
        }
    | s -> s
  in
  Plan_check.verify { p with steps = List.map alias p.steps }

(* 8c. The zero-copy halo schedule with a kernel writing the posted
   buffer inside the open window — HALO011's corruption, from the
   schedule alone. *)
let plan_zero_copy_write () =
  let open Plan_ir in
  let p = Plan_extract.dd_zero_copy () in
  let inject = function
    | Complete _ as s ->
      [
        Launch
          (kernel ~args:[ ("x", Read); ("spinor", Update) ] "axpy");
        s;
      ]
    | s -> [ s ]
  in
  let p =
    {
      p with
      buffers = buffer ~prec:Double "x" :: p.buffers;
      steps = List.concat_map inject p.steps;
    }
  in
  Plan_check.verify p

(* 8d. A fused-tagged plan executing a sweep count the model does not
   price: an extra residual norm snuck into the tail, a nonzero
   Plan_check.sweep_gap. *)
let plan_sweep_mismatch () =
  let open Plan_ir in
  let p = Plan_extract.cg_tail ~fused:true () in
  let extra = Launch (kernel ~args:[ ("r", Read); ("r2x", Reduce) ] "norm2") in
  Plan_check.verify { p with steps = p.steps @ [ extra ] }

(* 8e. The mixed solve fed a source whose declared magnitude interval
   spans 60 decades: the first quantize point cannot represent it in
   an int16 mantissa. *)
let plan_half_range () =
  Plan_check.verify (Plan_extract.mixed ~range:(1e-30, 1e30) ~fused:true ())

(* 8f. The mixed inner iteration with the quantize of Ap dropped after
   the stencil: dot_re reads stale full-precision data alongside the
   quantized p. *)
let plan_stale_precision () =
  let open Plan_ir in
  let p = Plan_extract.mixed ~fused:true () in
  let steps =
    List.filter
      (function Quantize { qbuf = "ap"; _ } -> false | _ -> true)
      p.steps
  in
  Plan_check.verify { p with steps }

(* 8g. A batched hop executed tail-fused, through recon12, 4 wide,
   rank-8 deflated and on 2 domains, when the tuner's winner for this
   kernel and shape was the serial baseline: no axis of what runs was
   ever priced, so the bench rows and every Perf_model term describe a
   different launch. *)
let plan_untuned () =
  let module V = Autotune.Variants in
  Plan_check.verify_tuned ~kernel:"wilson_hop_recon"
    ~executed:
      {
        V.mode = Linalg.Fused.Tail_fused;
        recon = Linalg.Su3_codec.Recon12;
        k = 4;
        rank = 8;
        geometry = Some (2, 4096);
      }
    ~tuned:V.baseline

(* ---- 9. compressed gauge-link (reconstruct) defects ---- *)

(* 9a. A hot gauge field with its first link scaled by 1.3: U†U =
   1.69·1 on that link, so Recon12's rebuilt third row s·conj(r0×r1)
   is a different matrix than was stored — the unitarity contract the
   codecs rest on, RECON001's bug class. *)
let recon_nonunitary_link () =
  let geom = Lattice.Geometry.create [| 4; 4; 4; 4 |] in
  let g = Lattice.Gauge.random geom (Util.Rng.create 11) in
  let d = Lattice.Gauge.data g in
  for k = 0 to 17 do
    Bigarray.Array1.set d k (1.3 *. Bigarray.Array1.get d k)
  done;
  Recon_check.verify_gauge ~recon:Linalg.Su3_codec.Recon12 g

(* 9b. A compressed halo packed two gauge epochs before the live
   field: ghost links decode to mutated-away values — the gauge twin
   of the stale-halo spinor race. *)
let recon_stale_halo () =
  Recon_check.verify_plan
    (Recon_check.plan ~kernel:"wilson_hop_recon"
       ~recon:Linalg.Su3_codec.Recon8 ~max_violation:1e-15 ~gauge_epoch:3
       ~halo_epoch:1 ~halo_compressed:true ())

(* Shared scaffolding of the deflation fixtures: a small SPD diagonal
   operator with a separated low mode, and a genuinely converged
   Lanczos space built on it. *)
let deflate_scaffold () =
  let n = 64 in
  let diag =
    Array.init n (fun i ->
        if i < 2 then 0.02 *. float_of_int (i + 1)
        else 1. +. (float_of_int i /. float_of_int n))
  in
  let apply (x : F.t) (y : F.t) =
    for i = 0 to n - 1 do
      Bigarray.Array1.set y i (diag.(i) *. Bigarray.Array1.get x i)
    done
  in
  let res =
    Solver.Lanczos.lowest ~tol:1e-8 ~rank:2 ~basis_size:8 ~apply ~n
      ~rng:(Util.Rng.create 13) ()
  in
  (apply, res)

(* 10a. A deflation space audited against a configuration it was not
   built from: the basis is perfectly orthonormal and converged — for
   the WRONG operator. Nothing numerical ever trips; only the hash
   comparison catches it (DEF001's bug class). *)
let deflate_stale_space () =
  let apply, res = deflate_scaffold () in
  let space = Solver.Deflate.of_lanczos ~config_hash:0x01d ~bound:1e-6 res in
  Deflate_check.verify_space ~config_hash:0x0dd ~apply space

(* 10b. A basis one vector of which was rescaled after the build —
   the in-place-mutation bug: v·v = 1.1² breaks orthonormality and
   |A v − λ v| grows with it, both beyond the space's bound. *)
let deflate_drifted_basis () =
  let apply, (values, basis, stats) = deflate_scaffold () in
  F.scale 1.1 basis.(0);
  let space =
    Solver.Deflate.of_lanczos ~config_hash:0x5eed ~bound:1e-6
      (values, basis, stats)
  in
  Deflate_check.verify_space ~config_hash:0x5eed ~apply space

let all =
  [
    {
      name = "dag-cycle";
      defect = "campaign with a 3-task dependency cycle";
      expect = "CAMP003";
      run = dag_cycle;
    };
    {
      name = "oversubscribed";
      defect = "64-node task on a 32-node allocation";
      expect = "CAMP005";
      run = oversubscribed;
    };
    {
      name = "stale-ghost";
      defect = "full stencil after exchanging only the x/y faces";
      expect = "HALO003";
      run = stale_ghost;
    };
    {
      name = "early-boundary-read";
      defect = "boundary sub-stencil runs before its faces completed";
      expect = "HALO007";
      run = early_boundary_read;
    };
    {
      name = "send-buffer-race";
      defect = "rank 0 writes local sites between post and complete";
      expect = "HALO008";
      run = send_buffer_race;
    };
    {
      name = "lost-completion";
      defect = "posted z/t faces never completed";
      expect = "HALO009";
      run = lost_completion;
    };
    {
      name = "zero-copy-race";
      defect = "write between post and complete under the zero-copy transport";
      expect = "HALO011";
      run = zero_copy_race;
    };
    {
      name = "wasted-double-buffer";
      defect = "double-buffered schedule where no write ever races a post";
      expect = "HALO012";
      run = wasted_double_buffer;
    };
    {
      name = "transport-mismatch";
      defect = "GDR transfer policy modeled with the staged transport";
      expect = "HALO013";
      run = transport_mismatch;
    };
    {
      name = "nan-solve";
      defect = "mixed solve against a NaN-producing operator";
      expect = "NUM001";
      run = nan_solve;
    };
    {
      name = "bad-half-block";
      defect = "half codec blocks with unrepresentable dynamic range";
      expect = "NUM003";
      run = bad_half_block;
    };
    {
      name = "det-unordered-reduce";
      defect = "multi-domain norm2 combining partials in completion order";
      expect = "DET001";
      run = unordered_reduce;
    };
    {
      name = "det-tiny-pooled";
      defect = "512-element axpy forked across 4 domains (under the cutoff)";
      expect = "DET003";
      run = tiny_pooled;
    };
    {
      name = "fuse-wrong-block";
      defect = "fused axpy_norm2 reducing 4096-float blocks (canonical is 2048)";
      expect = "FUSE001";
      run = fused_wrong_block;
    };
    {
      name = "mrhs-masked-update";
      defect = "batched CG update with a converged RHS still active";
      expect = "MRHS001";
      run = mrhs_masked_update;
    };
    {
      name = "mrhs-block-mismatch";
      defect = "width-4 batched hop carrying width-3 per-RHS masks";
      expect = "MRHS002";
      run = mrhs_block_mismatch;
    };
    {
      name = "plan-partition-overlap";
      defect = "pooled plan whose partition double-covers [512, 1024)";
      expect = "PLAN001";
      run = plan_partition_overlap;
    };
    {
      name = "plan-aliased-output";
      defect = "CG tail plan with the solution output aliasing the Ap input";
      expect = "PLAN002";
      run = plan_aliased_output;
    };
    {
      name = "plan-tail-aliased";
      defect = "hop-tail plan with the xpay output aliasing the stencil dst";
      expect = "PLAN002";
      run = plan_tail_aliased;
    };
    {
      name = "plan-zero-copy-write";
      defect = "zero-copy plan writing the posted buffer inside the window";
      expect = "PLAN003";
      run = plan_zero_copy_write;
    };
    {
      name = "plan-sweep-mismatch";
      defect = "fused plan executing a sweep count the model does not price";
      expect = "PLAN005";
      run = plan_sweep_mismatch;
    };
    {
      name = "plan-half-range";
      defect = "mixed plan whose source range overflows the int16 mantissa";
      expect = "PREC001";
      run = plan_half_range;
    };
    {
      name = "plan-stale-precision";
      defect = "mixed plan reading Ap past a dropped quantize point";
      expect = "PREC003";
      run = plan_stale_precision;
    };
    {
      name = "plan-untuned";
      defect = "launch differing from the tuner's winner on every plan axis";
      expect = "PLAN007";
      run = plan_untuned;
    };
    {
      name = "recon-nonunitary-link";
      defect = "link scaled by 1.3 packed through the recon12 codec";
      expect = "RECON001";
      run = recon_nonunitary_link;
    };
    {
      name = "recon-stale-halo";
      defect = "compressed halo packed two gauge epochs before the field";
      expect = "RECON003";
      run = recon_stale_halo;
    };
    {
      name = "deflate-stale-space";
      defect = "converged deflation space audited against another configuration";
      expect = "DEF001";
      run = deflate_stale_space;
    };
    {
      name = "deflate-drifted-basis";
      defect = "basis vector rescaled by 1.1 after the Lanczos build";
      expect = "DEF002";
      run = deflate_drifted_basis;
    };
  ]

let find name = List.find_opt (fun f -> f.name = name) all
