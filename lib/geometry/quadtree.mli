(** Multilevel quadtree of surface squares with the interactive / local
    square relations of the thesis (§3.2, §4.2). *)

type square = {
  level : int;
  ix : int;
  iy : int;
  contacts : int array;  (** contact ids inside this square, ascending *)
}

type t

exception Contact_crosses_boundary of int

(** Number of squares per side at a level: [2^level]. *)
val side_count : int -> int

(** Flat index of square (ix, iy) within its level. *)
val index : level:int -> ix:int -> iy:int -> int

(** [create ~max_level layout] assigns contacts to finest-level squares.
    With [check] (default), raises [Contact_crosses_boundary id] if a
    contact does not fit inside its finest-level square. *)
val create : ?check:bool -> max_level:int -> Layout.t -> t

val square : t -> level:int -> ix:int -> iy:int -> square
val squares_at_level : t -> int -> square array
val contacts_of : t -> level:int -> ix:int -> iy:int -> int array
val square_center : t -> level:int -> ix:int -> iy:int -> float * float
val parent_coords : ix:int -> iy:int -> int * int
val children_coords : ix:int -> iy:int -> (int * int) list

(** The square itself plus its same-level neighbors (at most 9 squares). *)
val local_squares : level:int -> ix:int -> iy:int -> (int * int) list

(** Same-level squares at distance >= 2 whose parents neighbor this square's
    parent (at most 27 squares); empty below level 2. *)
val interactive_squares : level:int -> ix:int -> iy:int -> (int * int) list

(** Sorted union of contact ids over a list of same-level squares. *)
val region_contacts : t -> level:int -> (int * int) list -> int array

(** Deepest usable subdivision level for a layout: all contacts must fit in
    single finest-level squares, preferring the shallowest level where no
    square holds more than [target] contacts. *)
val suggest_max_level : ?limit:int -> ?target:int -> Layout.t -> int

val max_level : t -> int
