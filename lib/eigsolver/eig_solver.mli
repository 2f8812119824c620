(** Eigenfunction-based (surface-variable) substrate solver
    (thesis §2.3.1, Fig 2-6). *)

type t

(** CG preconditioner for the contact-panel system: [Fast_inverse] is the
    zero-padded full-surface inverse the thesis evaluates (and finds
    unpromising) in §2.3.1. *)
type preconditioner = No_preconditioner | Fast_inverse

(** [create profile layout ~panels_per_side] discretizes the surface into
    panels and tabulates the mode eigenvalues. The layout and profile must
    share a square surface. [galerkin] applies the exact piecewise-constant
    panel averaging — sinc^2 damping per direction, the precorrected-DCT
    operator; the default is the point-sampled modes used for all recorded
    experiments (see DESIGN.md "Substitutions"). *)
val create :
  ?tol:float ->
  ?max_iter:int ->
  ?precond:preconditioner ->
  ?galerkin:bool ->
  Substrate.Profile.t ->
  Geometry.Layout.t ->
  panels_per_side:int ->
  t

(** [with_tolerance ?tol ?max_iter t] is [t] with tighter (or looser) CG
    settings, sharing the discretization and eigenvalue tables but with
    private iteration stats and health — the cheap escalation step for a
    {!Substrate.Resilient} fallback ladder. *)
val with_tolerance : ?tol:float -> ?max_iter:int -> t -> t

(** Apply the restricted inverse of the full-surface operator (the
    fast-solver preconditioner candidate). *)
val apply_inverse_restricted : t -> La.Vec.t -> La.Vec.t

(** Number of contact-panel unknowns. *)
val panel_count : t -> int

(** CG iteration statistics across all solves so far (Table 2.2). *)
val stats : t -> La.Krylov.stats

(** Apply the full current-density-to-potential operator on the panel grid
    (zero-padding / DCT / eigenvalue scaling / inverse DCT of Fig 2-6). *)
val apply_operator : t -> float array -> float array

(** The restricted SPD operator A_cc on packed contact-panel dofs. *)
val apply_restricted : t -> La.Vec.t -> La.Vec.t

(** One black-box solve: contact voltages to contact currents. *)
val solve : t -> La.Vec.t -> La.Vec.t

(** Batched solves across a domain pool of [jobs] total domains (default
    {!Parallel.Pool.default_jobs}). All per-solve mutable state is private
    to each right-hand side (CG work vectors, the DCT workspace, iteration
    stats — merged into [stats t] at the end); shared tables (panels,
    eigenvalues, the DCT plan and contact support) are immutable.
    Responses are returned in input order and are bit-identical to the
    sequential loop. *)
val solve_batch : ?jobs:int -> t -> La.Vec.t array -> La.Vec.t array

(** Wrap as a counted black box whose batch implementation is
    [solve_batch]. The box's health record carries one report per solve
    (convergence, residual, iterations, CG breakdowns, wall time). *)
val blackbox : t -> Substrate.Blackbox.t
