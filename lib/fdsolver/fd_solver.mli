(** Finite-difference substrate solver with the preconditioner choices of
    thesis §2.2.2 (Table 2.1). *)

type preconditioner =
  | No_preconditioner
  | Ic0  (** incomplete Cholesky, zero fill-in *)
  | Fast_poisson of float
      (** fast Poisson solver with the given top-face Dirichlet fraction:
          1.0 pure-Dirichlet, 0.0 pure-Neumann, contact area fraction for
          the area-weighted preconditioner *)
  | Multigrid  (** one geometric V-cycle per application (thesis §2.2.2) *)

type t

(** Fraction of the top surface covered by contacts. *)
val area_fraction : Geometry.Layout.t -> float

(** [create profile layout ~nx ~nz] builds the grid (spacing a/nx; nz planes
    must span the substrate depth) and the chosen preconditioner.
    [Fast_poisson] factors its per-mode systems at the start of each solve,
    in a workspace that solve owns, so solves on one [t] share no
    scratch. *)
val create :
  ?placement:Grid.placement ->
  ?precond:preconditioner ->
  ?tol:float ->
  ?max_iter:int ->
  Substrate.Profile.t ->
  Geometry.Layout.t ->
  nx:int ->
  nz:int ->
  t

val grid : t -> Grid.t

(** [with_tolerance ?tol ?max_iter t] is [t] with tighter (or looser) CG
    settings, sharing the grid and preconditioner but with private
    iteration stats and health — the cheap escalation step for a
    {!Substrate.Resilient} fallback ladder. Preconditioner changes need a
    fresh {!create} (or {!Direct_solver}). *)
val with_tolerance : ?tol:float -> ?max_iter:int -> t -> t

(** PCG iteration statistics across all solves (Table 2.1 reports the
    average per solve). *)
val stats : t -> La.Krylov.stats

(** One black-box solve: contact voltages to contact currents. *)
val solve : t -> La.Vec.t -> La.Vec.t

(** Wrap as a counted black box. The box's health record carries one
    report per solve (convergence, residual, iterations, CG breakdowns,
    wall time). *)
val blackbox : t -> Substrate.Blackbox.t
