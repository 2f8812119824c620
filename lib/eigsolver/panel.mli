(** Panel discretization of the substrate surface (thesis Fig 2-5). *)

type t

exception Contact_without_panels of int

(** [create layout ~panels_per_side] assigns each contact the panels whose
    centers it covers. Raises [Contact_without_panels] if a contact is too
    small for the grid and [Invalid_argument] if contacts overlap. *)
val create : Geometry.Layout.t -> panels_per_side:int -> t

val panel_area : t -> float

(** Number of contact-owned panels = unknowns of the surface solve. *)
val n_dofs : t -> int

(** Scatter packed contact-panel values onto the full p x p grid. *)
val scatter : t -> La.Vec.t -> float array

(** Gather the contact-panel values of a full grid. *)
val gather : t -> float array -> La.Vec.t

(** Flat panel index ([ix + p * iy]) of each packed dof, in dof order: the
    cells {!scatter} writes and {!gather} reads. The panel's own table:
    read it, never write it. *)
val dof_panels : t -> int array

(** Expand one value per contact to all of that contact's panels. *)
val expand_contacts : t -> La.Vec.t -> La.Vec.t

(** Sum packed values per contact. *)
val sum_per_contact : t -> La.Vec.t -> La.Vec.t

val n_contacts : t -> int
