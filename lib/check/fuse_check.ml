(* Static checker for fused BLAS-1 kernel plans (Linalg.Fused). A
   fused launch is summarized as a [plan] — which fused kernel, the
   vector length, the reduction block its single-pass term accumulates
   over, the pool geometry it will run on — and the pass verifies the
   contract the fused≡unfused bit-identity rests on:

   FUSE001  the fused reduction accumulates over a block size other
            than the canonical Field.reduce_block: partials associate
            differently from the standalone norm2/dot_re, so the fused
            result silently diverges from the unfused one in the last
            bits — exactly the drift the fusion layer promises away

   Output-operand aliasing is proved statically on the plan IR
   (Plan_check PLAN002), and the executed-vs-tuned plan by PLAN007. *)

type plan = {
  kernel : string;  (* fused kernel name, e.g. "cg_update" *)
  n : int;  (* vector length in floats *)
  block : int;  (* reduction block the fused term accumulates over *)
  geometry : (int * int) option;  (* (domains, chunk); None = serial *)
}

let rules =
  [
    ( "FUSE001",
      "fused reduction block diverges from the canonical unfused association" );
  ]

let plan ?geometry ~kernel ~n ~block () = { kernel; n; block; geometry }

let geom_str = function
  | None -> "serial"
  | Some (d, c) -> Printf.sprintf "d%d_c%d" d c

let loc p =
  Printf.sprintf "%s[n=%d,block=%d,%s]" p.kernel p.n p.block
    (geom_str p.geometry)

let verify_plan p =
  if p.block <> Linalg.Field.reduce_block then
    [
      Diagnostic.error ~rule:"FUSE001" ~loc:(loc p)
        ~hint:
          (Printf.sprintf
             "fold through Field.block_fold with ~block:Field.reduce_block \
              (%d floats) — the association of the standalone reductions"
             Linalg.Field.reduce_block)
        (Printf.sprintf
           "fused reduction accumulates %d-float blocks where the unfused \
            kernels accumulate %d: partials associate differently and the \
            fused result is not bit-identical to the unfused sequence"
           p.block Linalg.Field.reduce_block);
    ]
  else []

let verify_plans ps = List.concat_map verify_plan ps
