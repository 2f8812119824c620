(* Fast direct solver for the layered grid-of-resistors Laplacian with
   uniform boundary conditions on each face (thesis §2.2.2,
   "Fast-solver preconditioners").

   The substrate grid is nx x ny x nz, cell-centered, spacing h. In-plane
   resistors in z-plane k have conductance sigma.(k) * h; vertical resistors
   crossing between planes combine the two half-lengths in series
   (thesis eq. (2.8) with the boundary halfway, p = 1/2). Sidewalls are
   Neumann. The top face carries a uniform Dirichlet coupling scaled by
   [top_fraction] (p = 1 pure Dirichlet, p = 0 pure Neumann, and the
   area-weighted intermediate choices of Table 2.1); the bottom face is
   Dirichlet when [bottom_contact] (grounded backplane) and Neumann
   otherwise.

   Because the in-plane coupling in plane k is sigma.(k) * h * (Lx + Ly) with
   the same Neumann Laplacians in every plane, a 2-D DCT-II per plane
   decouples the system into one tridiagonal solve in z per (kx, ky) mode. *)

type t = {
  nx : int;
  ny : int;
  nz : int;
  h : float;
  sigma : float array;  (* per z-plane conductivity, plane 0 = top *)
  gz : float array;  (* vertical resistor conductances, length nz - 1 *)
  g_top : float;  (* extra diagonal on plane 0 from the top Dirichlet coupling *)
  g_bottom : float;  (* extra diagonal on plane nz-1 from a backplane contact *)
  dct : Dct.plan;  (* the nx x ny plane's 2-D DCT plan *)
}

let index t ~ix ~iy ~iz = ix + (t.nx * (iy + (t.ny * iz)))
let size t = t.nx * t.ny * t.nz

(* Series combination of two half-length resistors with conductances
   2 sigma_a h and 2 sigma_b h. *)
let series_conductance h sigma_a sigma_b =
  2.0 *. h *. sigma_a *. sigma_b /. (sigma_a +. sigma_b)

let create ?gz ~nx ~ny ~nz ~h ~sigma ~top_fraction ~bottom_contact () =
  if Array.length sigma <> nz then invalid_arg "Poisson.create: sigma must have one entry per z-plane";
  if nx <= 0 || ny <= 0 || nz <= 0 then invalid_arg "Poisson.create: empty grid";
  if top_fraction < 0.0 || top_fraction > 1.0 then
    invalid_arg "Poisson.create: top_fraction must be in [0, 1]";
  let gz =
    match gz with
    | Some g ->
      if Array.length g <> nz - 1 then invalid_arg "Poisson.create: gz must have nz - 1 entries";
      g
    | None -> Array.init (nz - 1) (fun k -> series_conductance h sigma.(k) sigma.(k + 1))
  in
  (* The eliminated Dirichlet node sits a full spacing h above the top plane
     (first placement choice of Fig 2-4), giving a length-h resistor in the
     top conductivity. *)
  let g_top = top_fraction *. sigma.(0) *. h in
  (* A backplane contact is on the bottom face, half a spacing below the last
     plane: a half-length resistor. *)
  let g_bottom = if bottom_contact then 2.0 *. sigma.(nz - 1) *. h else 0.0 in
  { nx; ny; nz; h; sigma; gz; g_top; g_bottom; dct = Dct.plan ~nx ~ny }

(* Apply the model operator M (for testing and for preconditioner
   verification): node currents from node voltages. *)
let apply t (v : float array) : float array =
  if Array.length v <> size t then invalid_arg "Poisson.apply: dimension mismatch";
  let out = Array.make (size t) 0.0 in
  let { nx; ny; nz; h; sigma; gz; g_top; g_bottom; dct = _ } = t in
  for iz = 0 to nz - 1 do
    let g_plane = sigma.(iz) *. h in
    for iy = 0 to ny - 1 do
      for ix = 0 to nx - 1 do
        let i = index t ~ix ~iy ~iz in
        let acc = ref 0.0 in
        let couple g j = acc := !acc +. (g *. (v.(i) -. v.(j))) in
        if ix > 0 then couple g_plane (index t ~ix:(ix - 1) ~iy ~iz);
        if ix < nx - 1 then couple g_plane (index t ~ix:(ix + 1) ~iy ~iz);
        if iy > 0 then couple g_plane (index t ~ix ~iy:(iy - 1) ~iz);
        if iy < ny - 1 then couple g_plane (index t ~ix ~iy:(iy + 1) ~iz);
        if iz > 0 then couple gz.(iz - 1) (index t ~ix ~iy ~iz:(iz - 1));
        if iz < nz - 1 then couple gz.(iz) (index t ~ix ~iy ~iz:(iz + 1));
        if iz = 0 then acc := !acc +. (g_top *. v.(i));
        if iz = nz - 1 then acc := !acc +. (g_bottom *. v.(i));
        out.(i) <- !acc
      done
    done
  done;
  out

(* Direct solve M x = b via DCT in x, y and tridiagonal solves in z.
   When the operator is singular (pure Neumann everywhere), the (0,0) mode is
   regularized with a small diagonal shift; the result is then a valid
   preconditioner though not an exact solve. *)
let solve t (b : float array) : float array =
  if Array.length b <> size t then invalid_arg "Poisson.solve: dimension mismatch";
  let { nx; ny; nz; h; sigma; gz; g_top; g_bottom; dct } = t in
  let plane = nx * ny in
  (* Forward 2-D DCT of every z-plane, in place. The workspace belongs to
     this call, so [t] stays immutable and concurrent solves never share
     scratch. *)
  let ws = Dct.workspace dct in
  let hat = Array.copy b in
  for iz = 0 to nz - 1 do
    Dct.forward_2d ws hat ~off:(iz * plane)
  done;
  (* Exact test: boundary conductances are 0.0 only when the caller asked
     for pure-Neumann walls, which is the one genuinely singular case. *)
  let singular = Float.equal g_top 0.0 && Float.equal g_bottom 0.0 in
  (* One tridiagonal system in z per (kx, ky) mode. *)
  let lower = Array.make nz 0.0 and diag = Array.make nz 0.0 in
  let upper = Array.make nz 0.0 and rhs = Array.make nz 0.0 in
  for ky = 0 to ny - 1 do
    let ly = Dct.neumann_laplacian_eigenvalue ~n:ny ~k:ky in
    for kx = 0 to nx - 1 do
      let lx = Dct.neumann_laplacian_eigenvalue ~n:nx ~k:kx in
      for iz = 0 to nz - 1 do
        let d = ref (sigma.(iz) *. h *. (lx +. ly)) in
        if iz > 0 then begin
          d := !d +. gz.(iz - 1);
          lower.(iz) <- -.gz.(iz - 1)
        end
        else lower.(iz) <- 0.0;
        if iz < nz - 1 then begin
          d := !d +. gz.(iz);
          upper.(iz) <- -.gz.(iz)
        end
        else upper.(iz) <- 0.0;
        if iz = 0 then d := !d +. g_top;
        if iz = nz - 1 then d := !d +. g_bottom;
        if singular && kx = 0 && ky = 0 then d := !d +. (1e-12 *. sigma.(iz) *. h);
        diag.(iz) <- !d;
        rhs.(iz) <- hat.((iz * plane) + (ky * nx) + kx)
      done;
      let x = La.Tridiag.solve ~lower ~diag ~upper ~rhs in
      for iz = 0 to nz - 1 do
        hat.((iz * plane) + (ky * nx) + kx) <- x.(iz)
      done
    done
  done;
  (* Inverse 2-D DCT of every z-plane, in place. *)
  for iz = 0 to nz - 1 do
    Dct.inverse_2d ws hat ~off:(iz * plane)
  done;
  hat
