(** Preconditioned conjugate gradient for SPD operators given as black boxes. *)

type result = {
  x : Vec.t;
  iterations : int;
  converged : bool;
  breakdown : bool;
      (** The recurrence met a non-positive-definite direction (p' A p <= 0)
          and stopped; [converged] then only holds at a 10x relaxed
          threshold. Distinct from plain non-convergence: it means the
          operator (or preconditioner) is not SPD along the Krylov space,
          and more iterations would not have helped. *)
  residual_norm : float;
      (** The trustworthy residual: on ordinary convergence this is the
          recurrence residual that crossed the threshold; after a breakdown
          or a max-iteration exit it is the {e true} residual
          [||b - A x||], recomputed with one extra operator application on
          that exit path only (the recurrence value can drift arbitrarily
          far once the iteration misbehaves). *)
  recurrence_residual : float;
      (** The residual the PCG recurrence tracked at exit. Equal to
          [residual_norm] on ordinary convergence. *)
  residual_mismatch : bool;
      (** The recurrence and true residuals disagree by more than 10x:
          the recurrence lost accuracy and per-iteration numbers should
          be distrusted. Always [false] on ordinary convergence. *)
}

(** Accumulates per-solve iteration counts across many solves, for the
    preconditioner-effectiveness experiments (thesis Table 2.1), plus the
    number of solves that ended in a CG breakdown. *)
type stats = {
  mutable solves : int;
  mutable total_iterations : int;
  mutable breakdowns : int;
}

val make_stats : unit -> stats
val average_iterations : stats -> float

(** [merge_stats ~into s] folds [s] into [into]. Parallel batched solves
    give each concurrent solve its own stats record and merge afterwards,
    so no two domains ever share one. *)
val merge_stats : into:stats -> stats -> unit

(** [cg ~apply b] solves [A x = b] where [apply v = A v].
    [precond] applies an SPD preconditioner inverse M^{-1}.
    Converges when the 2-norm residual falls below [tol * ||b||].

    The iterate and residual live in unboxed {!Bvec} storage; the search
    direction stays a [float array] because it crosses the black-box
    boundary every iteration, and the callbacks keep their [float array]
    signatures. The array passed to [apply] is the solver's working
    direction vector: read-only, and only valid for the duration of the
    call — [apply] must not retain or mutate it. The same holds for the
    residual passed to [precond]. Symmetrically, [cg] consumes each
    [apply] and [precond] result before the next call of that callback,
    so either may return a buffer it reuses (the FD solver's fast-Poisson
    preconditioner returns its workspace's output every time). Results
    are bit-identical to {!cg_boxed}. *)
val cg :
  ?precond:(Vec.t -> Vec.t) ->
  ?tol:float ->
  ?max_iter:int ->
  ?x0:Vec.t ->
  ?stats:stats ->
  apply:(Vec.t -> Vec.t) ->
  Vec.t ->
  result

(** The original float-array implementation of the same recurrence, kept
    as the bit-identity reference for {!cg} (asserted in test/test_la.ml).
    Same callback contract as {!cg}; fresh arrays per call, no trace
    instrumentation. *)
val cg_boxed :
  ?precond:(Vec.t -> Vec.t) ->
  ?tol:float ->
  ?max_iter:int ->
  ?x0:Vec.t ->
  ?stats:stats ->
  apply:(Vec.t -> Vec.t) ->
  Vec.t ->
  result
