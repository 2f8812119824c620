(** Tridiagonal solver (Thomas algorithm). Off the solve path: the fast
    Poisson preconditioner ([Transforms.Poisson]) factors its per-mode
    systems once per solve and runs the same operations as plane-wide
    sweeps. This solver is the tests' reference for those sweeps. *)

(** [solve ~lower ~diag ~upper ~rhs] solves the tridiagonal system. All four
    arrays have length n; [lower.(0)] and [upper.(n-1)] are ignored. *)
val solve : lower:float array -> diag:float array -> upper:float array -> rhs:float array -> float array

(** Multiply the tridiagonal matrix by a vector (for testing). *)
val apply : lower:float array -> diag:float array -> upper:float array -> Vec.t -> Vec.t
