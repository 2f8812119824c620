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

(* The state of one solve: the DCT scratch, the output buffer, and the
   Thomas factorization of every mode's tridiagonal system in z. Mode k of
   plane iz is stored at [iz * plane + k] (plane-major), so each sweep
   below walks whole z-planes contiguously. Only [pivot] and [cprime] are
   kept: the sub-diagonal is -gz for every mode. *)
type workspace = {
  op : t;
  dct_ws : Dct.workspace;
  out : float array;  (* the solution, overwritten by every solve *)
  pivot : float array;  (* the elimination pivot m_iz, nz planes *)
  cprime : float array;  (* c'_iz, nz - 1 planes: substitution never reads c'_(nz-1) *)
}

(* Factor each mode's system with exactly the operations of the Thomas
   algorithm: m_0 = d_0, c'_0 = u_0 / m_0, m_i = d_i - l_i c'_(i-1),
   c'_i = u_i / m_i, with l_i = -gz_(i-1) and u_i = -gz_i. The diagonal
   d_i is built term by term in the order the model defines it. When the
   operator is singular (pure Neumann everywhere), the (0,0) mode is
   regularized with a small diagonal shift; the solve is then a valid
   preconditioner though not an exact inverse. *)
let workspace t =
  let { nx; ny; nz; h; sigma; gz; g_top; g_bottom; dct } = t in
  let plane = nx * ny in
  let lx = Array.init nx (fun k -> Dct.neumann_laplacian_eigenvalue ~n:nx ~k) in
  let ly = Array.init ny (fun k -> Dct.neumann_laplacian_eigenvalue ~n:ny ~k) in
  (* Exact test: boundary conductances are 0.0 only when the caller asked
     for pure-Neumann walls, which is the one genuinely singular case. *)
  let singular = Float.equal g_top 0.0 && Float.equal g_bottom 0.0 in
  let pivot = Array.make (plane * nz) 0.0 and cprime = Array.make (plane * (nz - 1)) 0.0 in
  for iz = 0 to nz - 1 do
    for ky = 0 to ny - 1 do
      for kx = 0 to nx - 1 do
        let k = (ky * nx) + kx in
        let d = sigma.(iz) *. h *. (lx.(kx) +. ly.(ky)) in
        let d = if iz > 0 then d +. gz.(iz - 1) else d in
        let d = if iz < nz - 1 then d +. gz.(iz) else d in
        let d = if iz = 0 then d +. g_top else d in
        let d = if iz = nz - 1 then d +. g_bottom else d in
        let d = if singular && k = 0 then d +. (1e-12 *. sigma.(iz) *. h) else d in
        let m = if iz = 0 then d else d -. (-.gz.(iz - 1) *. cprime.(((iz - 1) * plane) + k)) in
        (* Exact-zero pivot check: the elimination only divides, so any
           nonzero pivot is arithmetically usable. *)
        if Float.equal m 0.0 then invalid_arg "Poisson.workspace: zero pivot";
        pivot.((iz * plane) + k) <- m;
        if iz < nz - 1 then cprime.((iz * plane) + k) <- -.gz.(iz) /. m
      done
    done
  done;
  { op = t; dct_ws = Dct.workspace dct; out = Array.make (plane * nz) 0.0; pivot; cprime }

(* Forward elimination over whole z-planes, in place:
   d'_0 = b_0 / m_0, d'_i = (b_i - l_i d'_(i-1)) / m_i with l_i = -gz_(i-1). *)
let eliminate ws =
  let { op = { nx; ny; nz; gz; _ }; out; pivot; _ } = ws in
  let plane = nx * ny in
  for k = 0 to plane - 1 do
    Array.unsafe_set out k (Array.unsafe_get out k /. Array.unsafe_get pivot k)
  done;
  for iz = 1 to nz - 1 do
    let l = -.Array.unsafe_get gz (iz - 1) in
    let cur = iz * plane and prev = (iz - 1) * plane in
    for k = 0 to plane - 1 do
      Array.unsafe_set out (cur + k)
        ((Array.unsafe_get out (cur + k) -. (l *. Array.unsafe_get out (prev + k)))
        /. Array.unsafe_get pivot (cur + k))
    done
  done
[@@lint.hotpath
  "out and pivot hold nz planes of nx * ny, gz has nz - 1 entries: every index is bounded by the \
   loops"]

(* Back substitution over whole z-planes, in place: x_(nz-1) = d'_(nz-1),
   x_i = d'_i - c'_i x_(i+1). *)
let substitute ws =
  let { op = { nx; ny; nz; _ }; out; cprime; _ } = ws in
  let plane = nx * ny in
  for iz = nz - 2 downto 0 do
    let cur = iz * plane and next = (iz + 1) * plane in
    for k = 0 to plane - 1 do
      Array.unsafe_set out (cur + k)
        (Array.unsafe_get out (cur + k)
        -. (Array.unsafe_get cprime (cur + k) *. Array.unsafe_get out (next + k)))
    done
  done
[@@lint.hotpath
  "out holds nz planes of nx * ny and cprime nz - 1: every index is bounded by the loops"]

(* Direct solve M x = b: forward 2-D DCT of every z-plane, one elimination
   and one substitution sweep over the planes (one tridiagonal system in z
   per (kx, ky) mode, each seeing the Thomas algorithm's operations in its
   order), then the inverse DCTs. All four passes run in place on
   [ws.out]. *)
let solve ws (b : float array) : float array =
  let { op; dct_ws; out; _ } = ws in
  let n = size op and plane = op.nx * op.ny in
  if Array.length b <> n then invalid_arg "Poisson.solve: dimension mismatch";
  Array.blit b 0 out 0 n;
  for iz = 0 to op.nz - 1 do
    Dct.forward_2d dct_ws out ~off:(iz * plane)
  done;
  eliminate ws;
  substitute ws;
  for iz = 0 to op.nz - 1 do
    Dct.inverse_2d dct_ws out ~off:(iz * plane)
  done;
  out
