(** Seeded defect fixtures — one artifact per pass, each carrying
    exactly the bug class that pass detects. The CLI [--selftest] and
    the test suite assert every fixture yields at least one error. *)

type t = {
  name : string;
  defect : string;
  expect : string;  (** rule id expected to fire *)
  run : unit -> Diagnostic.t list;
}

val dag_cycle : unit -> Diagnostic.t list
val oversubscribed : unit -> Diagnostic.t list
val stale_ghost : unit -> Diagnostic.t list
val early_boundary_read : unit -> Diagnostic.t list
val send_buffer_race : unit -> Diagnostic.t list
val lost_completion : unit -> Diagnostic.t list
val nan_solve : unit -> Diagnostic.t list
val bad_half_block : unit -> Diagnostic.t list
val fused_wrong_block : unit -> Diagnostic.t list
val plan_partition_overlap : unit -> Diagnostic.t list
val plan_aliased_output : unit -> Diagnostic.t list
val plan_tail_aliased : unit -> Diagnostic.t list
val plan_zero_copy_write : unit -> Diagnostic.t list
val plan_sweep_mismatch : unit -> Diagnostic.t list
val plan_half_range : unit -> Diagnostic.t list
val plan_stale_precision : unit -> Diagnostic.t list
val plan_untuned : unit -> Diagnostic.t list
val recon_nonunitary_link : unit -> Diagnostic.t list
val recon_stale_halo : unit -> Diagnostic.t list
val deflate_stale_space : unit -> Diagnostic.t list
val deflate_drifted_basis : unit -> Diagnostic.t list

val all : t list
val find : string -> t option
