(* Tridiagonal system solver (Thomas algorithm).

   The fast Poisson preconditioner (thesis §2.2.2) reduces the 3-D grid
   Laplacian, after a 2-D DCT in x and y, to one tridiagonal system in z per
   Fourier mode. [Transforms.Poisson] factors those systems once per solve
   and eliminates all modes of a z-plane in one sweep; this per-system
   solver, in O(nz), is the reference its tests compare against bitwise. *)

(* Solve the system with subdiagonal [lower], diagonal [diag], superdiagonal
   [upper] and right-hand side [rhs]. [lower.(i)] couples row i to i-1
   (lower.(0) unused); [upper.(i)] couples row i to i+1 (last entry unused). *)
let solve ~lower ~diag ~upper ~rhs =
  let n = Array.length diag in
  if Array.length lower <> n || Array.length upper <> n || Array.length rhs <> n then
    invalid_arg "Tridiag.solve: dimension mismatch";
  if n = 0 then [||]
  else begin
    let c' = Array.make n 0.0 and d' = Array.make n 0.0 in
    (* Exact-zero pivot checks: the elimination only divides, so any nonzero
       pivot is arithmetically usable; near-zero accuracy loss is the
       caller's conditioning problem, not a reason to refuse the solve. *)
    if Float.equal diag.(0) 0.0 then invalid_arg "Tridiag.solve: zero pivot";
    c'.(0) <- upper.(0) /. diag.(0);
    d'.(0) <- rhs.(0) /. diag.(0);
    for i = 1 to n - 1 do
      let m = diag.(i) -. (lower.(i) *. c'.(i - 1)) in
      if Float.equal m 0.0 then invalid_arg "Tridiag.solve: zero pivot";
      c'.(i) <- upper.(i) /. m;
      d'.(i) <- (rhs.(i) -. (lower.(i) *. d'.(i - 1))) /. m
    done;
    let x = Array.make n 0.0 in
    x.(n - 1) <- d'.(n - 1);
    for i = n - 2 downto 0 do
      x.(i) <- d'.(i) -. (c'.(i) *. x.(i + 1))
    done;
    x
  end

(* Dense application, for testing: y = T x. *)
let apply ~lower ~diag ~upper (x : Vec.t) : Vec.t =
  let n = Array.length diag in
  Array.init n (fun i ->
      let v = diag.(i) *. x.(i) in
      let v = if i > 0 then v +. (lower.(i) *. x.(i - 1)) else v in
      if i < n - 1 then v +. (upper.(i) *. x.(i + 1)) else v)
