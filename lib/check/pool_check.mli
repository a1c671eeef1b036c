(** Determinism checker for the multicore kernel engine: verifies that
    a pooled launch plan combines reduction partials in a
    deterministic order and clears the parallel cutoff. Rule ids
    [DET001] and [DET003]; partition tiling is proved on the plan IR
    ([Plan_check] PLAN001). *)

type reduction = Ordered | Completion_order

type plan = {
  kernel : string;
  n : int;  (** elements the launch must cover *)
  domains : int;
  chunk : int;
  reduction : reduction option;  (** [None] for map-only kernels *)
}

val rules : (string * string) list

val plan :
  ?reduction:reduction ->
  kernel:string ->
  n:int ->
  domains:int ->
  chunk:int ->
  unit ->
  plan

val verify_plan : plan -> Diagnostic.t list
val verify_plans : plan list -> Diagnostic.t list
