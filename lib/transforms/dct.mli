(** Orthonormal DCT-II / DCT-III transforms, 1-D and 2-D.

    The orthonormal scaling makes the transform matrix orthogonal, so
    [dct_iii] is both the inverse and the transpose of [dct_ii]; operators
    conjugated by these transforms stay symmetric. Power-of-two lengths run
    in O(n log n) via the FFT; other lengths use the direct O(n^2) sum. *)

(** Orthonormal DCT-II: [y_k = s_k sum_n x_n cos(pi (n + 1/2) k / N)]. *)
val dct_ii : float array -> float array

(** Inverse (= transpose) of [dct_ii]. *)
val dct_iii : float array -> float array

(** 2-D separable transforms on flat row-major data, x fastest
    (index [ix + nx * iy]). Thin wrappers: a fresh {!workspace} and an
    in-place transform of a copy. *)
val dct_ii_2d : nx:int -> ny:int -> float array -> float array

val dct_iii_2d : nx:int -> ny:int -> float array -> float array

(** {1 In-place 2-D kernel}

    Rows are transformed one at a time; columns all at once, each
    butterfly sweeping whole rows, so every column sees exactly the
    operations of a 1-D transform in the same order. Results are
    bit-identical to transforming each row and then each column with
    {!Plan.dct2_raw}/{!Plan.idct2_raw} and the orthonormal scales, without
    per-call copies, strided gathers or plan-cache locks. Grids whose sides
    are not both powers of two take the direct O(n^2) path. *)

(** The 2-D plan of one [nx * ny] grid shape: the 1-D plans of both axes.
    Immutable and safe to share between domains. *)
type plan

(** Looks up both axes' plans (the plan cache's only lock). *)
val plan : nx:int -> ny:int -> plan

(** Scratch buffers for the kernel on one grid shape. A workspace is owned
    by one caller at a time: create one per solve and never share it
    between domains. *)
type workspace

val workspace : plan -> workspace

(** [forward_2d ws a ~off] replaces the [nx * ny] grid stored at
    [a.(off) ..] by its {!dct_ii_2d}, in place. *)
val forward_2d : workspace -> float array -> off:int -> unit

(** In-place {!dct_iii_2d}, same convention. *)
val inverse_2d : workspace -> float array -> off:int -> unit

(** {2 Restricted conjugation} *)

(** The grid cells a restricted operator lives on: packed value [d] sits
    at flat index [cells.(d)]. Precomputes the rows and columns those
    cells occupy. Immutable. *)
type support

val support : plan -> int array -> support

(** [conjugate ws s ~weights ~divide x out] sets [out] to the cells of
    [dct_iii_2d (w * dct_ii_2d g)], where [g] is [x] zero-padded onto the
    grid at the support's cells and [w * h] multiplies mode [k] of [h] by
    [weights.(k)] (divides, when [divide]). Bit-identical to that
    composition of the 2-D wrappers, and exact because of two pruning
    rules: the forward row pass runs only on rows holding a cell (every
    other row is +0.0, and every butterfly, twist and positive scale keeps
    it +0.0), and the inverse column pass runs only on columns holding a
    cell (no other column is read). [out] is written, never retained. *)
val conjugate :
  workspace -> support -> weights:float array -> divide:bool -> float array -> float array -> unit

(** Eigenvalue [2 - 2 cos(pi k / n)] of the 1-D cell-centered Neumann
    Laplacian for DCT-II mode [k]; the diagonal the fast Poisson solver uses. *)
val neumann_laplacian_eigenvalue : n:int -> k:int -> float
