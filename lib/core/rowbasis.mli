(** Phase 1 of the low-rank method (thesis §4.3): the multilevel row-basis
    representation of G, built with O(log n) black-box solves, and its
    O(n log n) application. *)

type square_data = {
  coords : int * int;
  level : int;
  contacts : int array;
  v : La.Mat.t;  (** row basis V_s, orthonormal columns *)
  gpv : La.Mat.t;  (** responses G(P_s, s) V_s over [p_region] *)
  p_region : int array;  (** contacts of the interactive + local region *)
  w : La.Mat.t option;  (** finest level: orthonormal complement of V_s *)
  g_local : La.Mat.t option;  (** finest level: G(L_s, s) over [l_region] *)
  l_region : int array;
}

type t

(** [build tree layout blackbox] runs the coarse-to-fine sweep of §4.3.4.
    [sigma_rel_tol] and [max_rank] set the singular-value keep rule
    (defaults 1/100 and 6, the thesis's §4.6 settings). [seed] fixes the
    random sample vectors. [symmetric_refinement:false] disables the
    (4.16)/(4.24) refinements — the "stronger assumption" ablation of
    §4.3.1. [samples_per_square] uses more than one random sample vector
    per square (the thesis's own mitigation for layouts whose interactive
    regions hold few contacts, §4.3.3). [jobs] (default 1) batches each
    stage's independent black-box solves through
    {!Substrate.Blackbox.apply_batch}; random draws stay sequential, so the
    representation is bit-identical for any [jobs]. The result records
    [jobs] for phase 2 ({!jobs}). It ends by building the pair plan: every
    square's interactive destinations with the restricted blocks the pair
    formula (4.16) reads, so no later application repeats that index work
    (its size is the trace counter [rowbasis.plan_floats]). [checkpoint] persists
    each completed solve stage and replays finished stages on resume (see
    {!Substrate.Checkpoint}). The quadtree must have [max_level >= 2]. *)
val build :
  ?sigma_rel_tol:float ->
  ?max_rank:int ->
  ?seed:int ->
  ?symmetric_refinement:bool ->
  ?samples_per_square:int ->
  ?jobs:int ->
  ?checkpoint:Substrate.Checkpoint.t ->
  Geometry.Quadtree.t ->
  Geometry.Layout.t ->
  Substrate.Blackbox.t ->
  t

val find : t -> level:int -> ix:int -> iy:int -> square_data option
val tree : t -> Geometry.Quadtree.t

(** Black-box solves consumed while building. *)
val solves : t -> int

(** Floats stored by the representation (V_s, G(P_s, s) V_s, finest-level
    complements and local blocks) — the Table 4.2 storage currency. *)
val storage_floats : t -> int

(** The phase-1 representation as a first-class operator: O(n log n)
    application of the §4.3.2 pseudocode. *)
val op : t -> Subcouple_op.t

(** [interaction_block t ~src x] is the approximate interaction block
    G(I_s, s) X of square [src] with its interactive region, for columns
    [x] in [src] coordinates (pair formula (4.16)): one [(dst, G(dst, src) X)]
    per nonempty interactive square, in {!Geometry.Quadtree.interactive_squares}
    order. Reads the blocks the pair plan restricted at build time; used by
    phase 2. *)
val interaction_block : t -> src:square_data -> La.Mat.t -> (square_data * La.Mat.t) array

(** The parallelism [build] ran at ([jobs], floored at 1); phase 2 runs its
    per-square work at the same count. *)
val jobs : t -> int

(** Keep rule for singular values [s], sorted descending (thesis §4.6):
    how many satisfy sigma >= [sigma_rel_tol] * sigma_1 and sigma > 0,
    capped at [max_rank]. Shared by both phases and the pairwise baseline. *)
val keep_rule : sigma_rel_tol:float -> max_rank:int -> float array -> int
