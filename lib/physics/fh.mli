(** The Feynman–Hellmann method [Bouchard et al., PRD 96 014504] — the
    paper's physics-algorithm contribution — plus the sequential
    (fixed-insertion-time) traditional baseline it replaces. *)

val axial_matrix : Linalg.Cplx.t array array
(** A3 = γz·γ5. *)

val fh_propagator :
  ?precision:Solver.Dwf_solve.precision ->
  ?tol:float ->
  Solver.Dwf_solve.t ->
  Propagator.t ->
  Propagator.t
(** One extra solve per column against the current-inserted propagator:
    D ψ_FH = Γ q, insertion summed over all of spacetime. The result's
    [stats] are these FH solves'.
    @raise Propagator.Not_converged when a solve did not converge. *)

val fh_proton_correlator :
  up:Propagator.t ->
  down:Propagator.t ->
  fh_up:Propagator.t ->
  fh_down:Propagator.t ->
  float array
(** dC/dλ for the isovector axial current (u − d), polarized projector.
    Purely imaginary in these conventions; returns the imaginary part. *)

val effective_coupling : c2:float array -> c_fh:float array -> float array
(** g_eff(t) = R(t+1) − R(t) with R = C_FH/C. *)

val restrict_timeslice :
  Lattice.Geometry.t -> tau:int -> Linalg.Field.t -> Linalg.Field.t

val sequential_propagator :
  ?precision:Solver.Dwf_solve.precision ->
  ?tol:float ->
  Solver.Dwf_solve.t ->
  tau:int ->
  Propagator.t ->
  Propagator.t
(** Insertion restricted to timeslice [tau]: ONE SOLVE PER τ — the
    traditional cost FH eliminates. By linearity Σ_τ ψ_τ = ψ_FH
    (checked exactly by the test suite). The result's [stats] are
    these solves'.
    @raise Propagator.Not_converged when a solve did not converge. *)

val traditional_3pt :
  up:Propagator.t ->
  down:Propagator.t ->
  seq_up:Propagator.t ->
  seq_down:Propagator.t ->
  float array
(** C3(τ, t) for all sink times t, given the τ-restricted legs. *)

val traditional_ratio :
  c2:float array -> c3:(int * float array) list -> t_sep:int -> (int * float) list
(** g_eff(τ; t_sep) = C3(τ, t_sep)/C2(t_sep). *)
