(** Combine-solves machinery (thesis §3.5): grouping of square-supported
    vectors so that one black-box application serves many squares. *)

(** Partition same-level square coordinates into 9 groups by
    (ix mod 3, iy mod 3); within a group, squares are >= 3 apart. *)
val groups_of_squares : (int * int) list -> (int * int) list array

(** Partition child-square coordinates into 36 groups by parent phase mod 3
    and child position, so each group has distinct, >= 3-apart parents
    (for the splitting method of §4.3.3 whose summed vectors live in parent
    squares). *)
val groups_of_children : (int * int) list -> (int * int) list array

(** All pairs separated by at least [gap] in x or y. *)
val well_separated : gap:int -> (int * int) list -> bool

(** Sum the vectors of one combined solve; [None] for empty input. Used by
    extraction loops that collect the right-hand sides of many groups and
    solve them as one (possibly parallel) batch. *)
val sum_vectors : La.Vec.t list -> La.Vec.t option
