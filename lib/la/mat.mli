(** Dense row-major matrices. *)

type t

val create : int -> int -> t
val init : int -> int -> (int -> int -> float) -> t
val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val update : t -> int -> int -> (float -> float) -> unit
val copy : t -> t
val identity : int -> t
val of_arrays : float array array -> t
val to_arrays : t -> float array array
val row : t -> int -> Vec.t
val col : t -> int -> Vec.t
val set_row : t -> int -> Vec.t -> unit
val set_col : t -> int -> Vec.t -> unit
val transpose : t -> t
val map : (float -> float) -> t -> t
val scale : float -> t -> t
val add : t -> t -> t
val sub : t -> t -> t

(** Matrix product. *)
val mul : t -> t -> t

(** [gemv a x] is [a * x]. *)
val gemv : t -> Vec.t -> Vec.t

(** [gemv_t a x] is [transpose a * x], computed without forming the transpose. *)
val gemv_t : t -> Vec.t -> Vec.t

val sub_matrix : t -> row:int -> col:int -> rows:int -> cols:int -> t

(** [select m ~row_idx ~col_idx] extracts the submatrix [m(row_idx, col_idx)],
    the MATLAB-style slicing the thesis uses for interaction blocks G(d, s). *)
val select : t -> row_idx:int array -> col_idx:int array -> t

val select_rows : t -> int array -> t
val hcat : t -> t -> t
val vcat : t -> t -> t
val hcat_list : t list -> t

(** Build a matrix from a non-empty list of equal-length column vectors. *)
val of_cols : Vec.t list -> t

val frobenius : t -> float
val max_abs : t -> float
val is_symmetric : ?tol:float -> t -> bool
val approx_equal : ?tol:float -> t -> t -> bool
val random : Rng.t -> int -> int -> t
val pp : Format.formatter -> t -> unit
