(** Static checker for fused BLAS-1 kernel plans ([Linalg.Fused]):
    verifies that a fused launch keeps the canonical reduction
    association (bit-identity with the unfused kernels). Rule id
    [FUSE001]; operand aliasing is proved on the plan IR
    ([Plan_check] PLAN002) and the executed-vs-tuned plan by
    [Plan_check] PLAN007. *)

type plan = {
  kernel : string;  (** fused kernel name, e.g. ["cg_update"] *)
  n : int;  (** vector length in floats *)
  block : int;  (** reduction block the fused term accumulates over *)
  geometry : (int * int) option;  (** (domains, chunk); [None] = serial *)
}

val rules : (string * string) list
val plan : ?geometry:int * int -> kernel:string -> n:int -> block:int -> unit -> plan
val verify_plan : plan -> Diagnostic.t list
val verify_plans : plan list -> Diagnostic.t list
