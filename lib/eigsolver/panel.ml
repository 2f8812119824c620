module Layout = Geometry.Layout
module Contact = Geometry.Contact
(* Discretization of the substrate surface into square panels
   (thesis Fig 2-5): the surface is divided into a p x p grid; each contact
   owns the panels whose centers it covers. Current density is uniform on a
   panel; potential is sampled at panel centers. *)

type t = {
  p : int;  (* panels per side *)
  size : float;  (* surface extent (square surface assumed) *)
  n_contacts : int;
  contact_panels : int array array;  (* per contact, owned flat panel indices *)
  panel_owner : int array;  (* flat panel index -> contact id or -1 *)
  contact_dofs : int array array;  (* per contact, indices into the packed dof vector *)
  dof_panels : int array;  (* packed dof -> flat panel index *)
}

exception Contact_without_panels of int

let panel_width t = t.size /. float_of_int t.p
let panel_area t = panel_width t *. panel_width t
let n_dofs t = Array.length t.dof_panels

let create (layout : Layout.t) ~panels_per_side =
  let p = panels_per_side in
  if p <= 0 then invalid_arg "Panel.create: panels_per_side must be positive";
  let size = layout.Layout.size in
  let w = size /. float_of_int p in
  let owner = Array.make (p * p) (-1) in
  let contact_panels =
    Array.mapi
      (fun id c ->
        (* Panels whose centers lie inside the contact. Restrict the scan to
           the contact's bounding cells. *)
        let gx0 = max 0 (int_of_float (c.Contact.x0 /. w) - 1) in
        let gx1 = min (p - 1) (int_of_float (c.Contact.x1 /. w) + 1) in
        let gy0 = max 0 (int_of_float (c.Contact.y0 /. w) - 1) in
        let gy1 = min (p - 1) (int_of_float (c.Contact.y1 /. w) + 1) in
        let mine = ref [] in
        for iy = gy0 to gy1 do
          for ix = gx0 to gx1 do
            let x = (float_of_int ix +. 0.5) *. w and y = (float_of_int iy +. 0.5) *. w in
            if Contact.contains c ~x ~y then begin
              let k = ix + (p * iy) in
              if owner.(k) >= 0 then
                invalid_arg
                  (Printf.sprintf "Panel.create: panel %d claimed by contacts %d and %d" k owner.(k) id);
              owner.(k) <- id;
              mine := k :: !mine
            end
          done
        done;
        if !mine = [] then raise (Contact_without_panels id);
        Array.of_list (List.rev !mine))
      layout.Layout.contacts
  in
  (* Pack all contact panels into a dof vector, in contact order. *)
  let dof_panels = Array.concat (Array.to_list contact_panels) in
  let contact_dofs =
    let next = ref 0 in
    Array.map
      (fun panels ->
        let ds = Array.init (Array.length panels) (fun k -> !next + k) in
        next := !next + Array.length panels;
        ds)
      contact_panels
  in
  { p; size; n_contacts = Array.length layout.Layout.contacts; contact_panels; panel_owner = owner; contact_dofs; dof_panels }

(* Scatter a packed dof vector onto the full panel grid (zeros elsewhere). *)
let scatter t (x : La.Vec.t) : float array =
  if Array.length x <> n_dofs t then invalid_arg "Panel.scatter: dof length mismatch";
  let grid = Array.make (t.p * t.p) 0.0 in
  Array.iteri (fun dof panel -> grid.(panel) <- x.(dof)) t.dof_panels;
  grid

(* Gather the contact-panel values of a full grid into a packed dof vector. *)
let gather t (grid : float array) : La.Vec.t =
  if Array.length grid <> t.p * t.p then invalid_arg "Panel.gather: grid length mismatch";
  Array.map (fun panel -> grid.(panel)) t.dof_panels

let dof_panels t = t.dof_panels

(* Expand contact values to the packed dof vector (each contact's value on
   all its panels). *)
let expand_contacts t (v : La.Vec.t) : La.Vec.t =
  if Array.length v <> t.n_contacts then invalid_arg "Panel.expand_contacts: contact count mismatch";
  let out = Array.make (n_dofs t) 0.0 in
  Array.iteri (fun c dofs -> Array.iter (fun d -> out.(d) <- v.(c)) dofs) t.contact_dofs;
  out

(* Sum packed dof values per contact (e.g. panel currents to contact
   currents). *)
let sum_per_contact t (x : La.Vec.t) : La.Vec.t =
  if Array.length x <> n_dofs t then invalid_arg "Panel.sum_per_contact: dof length mismatch";
  Array.map (fun dofs -> Array.fold_left (fun acc d -> acc +. x.(d)) 0.0 dofs) t.contact_dofs

let n_contacts t = t.n_contacts
