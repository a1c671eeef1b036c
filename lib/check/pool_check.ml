(* Determinism checker for the multicore kernel engine (Util.Pool).
   A pooled kernel launch is summarized as a [plan] — kernel name,
   element count, (domains, chunk) geometry, and how it combines
   reduction partials — and the pass verifies the properties the
   engine's bit-stability contract rests on:

   DET001  a reduction combined in completion order on a multi-domain
           launch: the result depends on scheduling, so repeated runs
           of norm2/cdot disagree in the last bits (the defect class
           Pool.parallel_reduce ~ordered:false exists to seed)
   DET003  a pooled launch under the parallel cutoff (warning): the
           fork/join costs more than the parallelism recovers — the
           tuner should have picked the serial variant

   Partition overlap or gap is proved statically on the plan IR by
   Plan_check PLAN001. *)

type reduction = Ordered | Completion_order

type plan = {
  kernel : string;
  n : int;  (* elements the launch must cover *)
  domains : int;
  chunk : int;
  reduction : reduction option;  (* None for map-only kernels *)
}

let rules =
  [
    ("DET001", "reduction partials combined in nondeterministic (completion) order");
    ("DET003", "pooled launch below the parallel cutoff (wasted fork/join)");
  ]

let plan ?reduction ~kernel ~n ~domains ~chunk () =
  { kernel; n; domains; chunk; reduction }

let loc p = Printf.sprintf "%s[n=%d,d=%d,c=%d]" p.kernel p.n p.domains p.chunk

let check_reduction p =
  match p.reduction with
  | Some Completion_order when p.domains > 1 ->
    [
      Diagnostic.error ~rule:"DET001" ~loc:(loc p)
        ~hint:
          "use Pool.parallel_reduce ~ordered:true (the default): partials land \
           in chunk-index slots and combine on the calling domain"
        "reduction partials combined in completion order: the result depends \
         on worker scheduling and is not bit-stable run to run";
    ]
  | _ -> []

let check_cutoff p =
  if p.domains > 1 && p.n < Linalg.Field.parallel_cutoff then
    [
      Diagnostic.warning ~rule:"DET003" ~loc:(loc p)
        ~hint:
          (Printf.sprintf
             "below %d elements the serial variant wins; let the tuner pick it"
             Linalg.Field.parallel_cutoff)
        (Printf.sprintf
           "pooled launch of %d elements is under the parallel cutoff: the \
            fork/join overhead exceeds the recovered parallelism"
           p.n);
    ]
  else []

let verify_plan p = check_reduction p @ check_cutoff p

let verify_plans ps = List.concat_map verify_plan ps
