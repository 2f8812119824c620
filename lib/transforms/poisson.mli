(** Fast direct solver for the layered grid-of-resistors Laplacian with
    uniform per-face boundary conditions, used as the fast-solver
    preconditioner of thesis §2.2.2 (Table 2.1). *)

type t

(** [create ~nx ~ny ~nz ~h ~sigma ~top_fraction ~bottom_contact] builds the
    model operator for an [nx * ny * nz] cell-centered grid with spacing [h]
    and per-z-plane conductivities [sigma] (plane 0 is the top surface).
    [top_fraction] scales the uniform Dirichlet coupling on the top face:
    1.0 is the pure-Dirichlet preconditioner, 0.0 pure-Neumann, and the
    contact-area fraction gives the area-weighted preconditioner.
    [bottom_contact] adds a grounded backplane on the bottom face.
    [gz] overrides the vertical resistor conductances (length nz - 1), e.g.
    to match a grid whose vertical resistors were integrated through
    sub-grid layers. *)
val create :
  ?gz:float array ->
  nx:int ->
  ny:int ->
  nz:int ->
  h:float ->
  sigma:float array ->
  top_fraction:float ->
  bottom_contact:bool ->
  unit ->
  t

val index : t -> ix:int -> iy:int -> iz:int -> int
val size : t -> int

(** Apply the model operator (node voltages to node currents). *)
val apply : t -> float array -> float array

(** The state of one solve: the DCT scratch, the output buffer and the
    Thomas factorization (pivots and c') of every Fourier mode's
    tridiagonal system in z, computed here once. A workspace is owned by
    one caller at a time: build one per solve (a CG solve applies the
    preconditioner many times) and never share it between domains. It
    holds about [3 * size t] floats. *)
type workspace

(** Raises [Invalid_argument] if a mode's elimination meets an exact zero
    pivot. *)
val workspace : t -> workspace

(** Direct O(n log n) solve of the model system via 2-D DCT + tridiagonal
    solves. Exact when the operator is nonsingular; with all-Neumann faces the
    constant mode is regularized, giving a usable preconditioner.

    [solve ws b] returns the workspace's output buffer, which the next
    [solve] on [ws] overwrites; [b] is only read. The result is
    bit-identical to transforming each plane, solving each mode's system
    with the Thomas algorithm and transforming back. On grids whose sides
    are both powers of two a solve allocates nothing; other grids take
    the DCT's direct O(n^2) path, which allocates its row and column
    buffers on every plane (about 210 KB per solve at 12 x 10 x 5). *)
val solve : workspace -> float array -> float array

(** Series conductance of a vertical resistor crossing a layer boundary
    halfway between planes (thesis eq. (2.8) with p = 1/2). *)
val series_conductance : float -> float -> float -> float
