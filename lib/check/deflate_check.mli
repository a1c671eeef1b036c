(** Static checker for low-mode deflation executions ([Solver.Lanczos]
    / [Solver.Deflate] through the [?deflate] solver hooks): verifies
    the space matches the live gauge configuration and that the basis
    still honors the orthonormality/residual bound it was built to.
    Rule ids [DEF001]–[DEF002]; the executed-vs-tuned rank is
    [Plan_check] PLAN007. *)

type plan = {
  kernel : string;  (** deflated solver kernel, e.g. ["cg_deflate"] *)
  rank : int;  (** executed deflation rank *)
  n : int;  (** vector length in floats *)
  space_hash : int;
      (** configuration hash the space was built from
          ([Solver.Deflate.config_hash]) *)
  config_hash : int;  (** live configuration hash *)
  ortho_drift : float;  (** measured max |vᵢ·vⱼ − δᵢⱼ| over the basis *)
  max_residual : float;  (** measured worst |A v − λ v| over the basis *)
  bound : float;  (** drift/residual bound the space was built to *)
}

val rules : (string * string) list

val plan :
  kernel:string ->
  rank:int ->
  n:int ->
  space_hash:int ->
  config_hash:int ->
  ortho_drift:float ->
  max_residual:float ->
  bound:float ->
  plan

val verify_plan : plan -> Diagnostic.t list
val verify_plans : plan list -> Diagnostic.t list

val verify_space :
  ?kernel:string ->
  config_hash:int ->
  apply:(Linalg.Field.t -> Linalg.Field.t -> unit) ->
  Solver.Deflate.t ->
  Diagnostic.t list
(** Live audit of a real space: the drift and eigen-residual are
    measured here against the given operator
    ([Solver.Deflate.ortho_drift] / [max_residual]) and the resulting
    plan verified — a caller cannot report stale audit numbers. *)
