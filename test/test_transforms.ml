(* Tests for FFT, DCT and the fast Poisson solver. *)

open La
open Transforms

let rng = Rng.create 1234

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* FFT *)

let test_fft_matches_naive () =
  List.iter
    (fun n ->
      let re = Rng.gaussian_array rng n and im = Rng.gaussian_array rng n in
      let er, ei = Fft.dft_naive ~sign:(-1) re im in
      let fr = Array.copy re and fi = Array.copy im in
      Fft.forward fr fi;
      Alcotest.(check bool)
        (Printf.sprintf "fft re n=%d" n)
        true
        (Vec.approx_equal ~tol:1e-8 fr er && Vec.approx_equal ~tol:1e-8 fi ei))
    [ 1; 2; 4; 8; 16; 64 ]

let test_fft_roundtrip () =
  let n = 32 in
  let re = Rng.gaussian_array rng n and im = Rng.gaussian_array rng n in
  let fr = Array.copy re and fi = Array.copy im in
  Fft.forward fr fi;
  Fft.inverse fr fi;
  Alcotest.(check bool) "roundtrip" true
    (Vec.approx_equal ~tol:1e-10 fr re && Vec.approx_equal ~tol:1e-10 fi im)

let test_fft_rejects_non_power_of_two () =
  Alcotest.check_raises "n=3" (Invalid_argument "Fft.transform: length must be a power of two")
    (fun () -> Fft.forward (Array.make 3 0.0) (Array.make 3 0.0))

let test_fft_parseval () =
  let n = 64 in
  let re = Rng.gaussian_array rng n and im = Array.make n 0.0 in
  let energy_time = Array.fold_left (fun a x -> a +. (x *. x)) 0.0 re in
  let fr = Array.copy re and fi = Array.copy im in
  Fft.forward fr fi;
  let energy_freq =
    Array.fold_left ( +. ) 0.0 (Array.init n (fun i -> (fr.(i) *. fr.(i)) +. (fi.(i) *. fi.(i))))
    /. float_of_int n
  in
  Alcotest.(check (float 1e-8)) "parseval" energy_time energy_freq

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* Reference: the plain radix-2 stage loop, one stage at a time. The fused
   loops of the plan must match it bitwise. *)
let reference_stages (t : Plan.t) ~sign re im =
  for s = 0 to Array.length t.Plan.stage_wr - 1 do
    let half = 1 lsl s in
    let wr = t.Plan.stage_wr.(s) and wi = t.Plan.stage_wi.(s) in
    let i = ref 0 in
    while !i < t.Plan.n do
      for k = 0 to half - 1 do
        let a = !i + k and b = !i + k + half in
        let twr = wr.(k) and twi = if sign < 0 then wi.(k) else -.wi.(k) in
        let tr = (twr *. re.(b)) -. (twi *. im.(b)) in
        let ti = (twr *. im.(b)) +. (twi *. re.(b)) in
        re.(b) <- re.(a) -. tr;
        im.(b) <- im.(a) -. ti;
        re.(a) <- re.(a) +. tr;
        im.(a) <- im.(a) +. ti
      done;
      i := !i + (2 * half)
    done
  done

let test_fft_stages_bit_identical () =
  List.iter
    (fun n ->
      let plan = Plan.get n in
      List.iter
        (fun sign ->
          let re = Rng.gaussian_array rng n and im = Rng.gaussian_array rng n in
          re.(0) <- -0.0;
          let re' = Array.copy re and im' = Array.copy im in
          reference_stages plan ~sign re im;
          Plan.fft_stages plan ~sign re' im';
          Alcotest.(check bool)
            (Printf.sprintf "n=%d sign %d" n sign)
            true
            (bits_equal re re' && bits_equal im im');
          (* Columns of a grid, a subset of them, transformed at once. *)
          let width = 5 in
          let cols = [| 0; 2; 3 |] in
          let gre = Rng.gaussian_array rng (n * width) and gim = Rng.gaussian_array rng (n * width) in
          let gre' = Array.copy gre and gim' = Array.copy gim in
          Plan.fft_stages_columns plan ~sign gre' gim' ~width ~cols ~ncols:(Array.length cols);
          for x = 0 to width - 1 do
            let col a = Array.init n (fun e -> a.((e * width) + x)) in
            let cre = col gre and cim = col gim in
            if Array.mem x cols then reference_stages plan ~sign cre cim;
            Alcotest.(check bool)
              (Printf.sprintf "n=%d sign %d column %d" n sign x)
              true
              (bits_equal cre (col gre') && bits_equal cim (col gim'))
          done)
        [ -1; 1 ])
    [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ]

(* ------------------------------------------------------------------ *)
(* DCT *)

(* Explicit orthonormal DCT-II matrix for comparison. *)
let dct_matrix n =
  Mat.init n n (fun k j ->
      let s = if k = 0 then sqrt (1.0 /. float_of_int n) else sqrt (2.0 /. float_of_int n) in
      s *. cos (Float.pi *. (float_of_int j +. 0.5) *. float_of_int k /. float_of_int n))

let test_dct_matches_matrix () =
  List.iter
    (fun n ->
      let x = Rng.gaussian_array rng n in
      let expected = Mat.gemv (dct_matrix n) x in
      Alcotest.(check bool)
        (Printf.sprintf "dct n=%d" n)
        true
        (Vec.approx_equal ~tol:1e-9 (Dct.dct_ii x) expected))
    [ 1; 2; 3; 4; 5; 8; 16; 17; 32 ]

let test_dct_roundtrip () =
  List.iter
    (fun n ->
      let x = Rng.gaussian_array rng n in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip n=%d" n)
        true
        (Vec.approx_equal ~tol:1e-9 (Dct.dct_iii (Dct.dct_ii x)) x))
    [ 1; 2; 3; 7; 8; 64 ]

let test_dct_orthogonal () =
  (* Energy preservation: ||DCT x|| = ||x||. *)
  let x = Rng.gaussian_array rng 128 in
  Alcotest.(check (float 1e-9)) "norm preserved" (Vec.norm2 x) (Vec.norm2 (Dct.dct_ii x))

let test_dct_transpose_property () =
  (* <DCT x, y> = <x, DCT' y> = <x, DCT-III y>. *)
  let x = Rng.gaussian_array rng 16 and y = Rng.gaussian_array rng 16 in
  Alcotest.(check (float 1e-9)) "adjoint" (Vec.dot (Dct.dct_ii x) y) (Vec.dot x (Dct.dct_iii y))

let test_dct_2d_roundtrip () =
  let nx = 8 and ny = 4 in
  let a = Rng.gaussian_array rng (nx * ny) in
  let b = Dct.dct_iii_2d ~nx ~ny (Dct.dct_ii_2d ~nx ~ny a) in
  Alcotest.(check bool) "2d roundtrip" true (Vec.approx_equal ~tol:1e-9 a b)

let test_dct_2d_separable () =
  (* A rank-1 grid f(x) g(y) transforms to dct(f) outer dct(g). *)
  let nx = 4 and ny = 8 in
  let f = Rng.gaussian_array rng nx and g = Rng.gaussian_array rng ny in
  let a = Array.init (nx * ny) (fun i -> f.(i mod nx) *. g.(i / nx)) in
  let fa = Dct.dct_ii f and ga = Dct.dct_ii g in
  let expected = Array.init (nx * ny) (fun i -> fa.(i mod nx) *. ga.(i / nx)) in
  Alcotest.(check bool) "separable" true
    (Vec.approx_equal ~tol:1e-9 (Dct.dct_ii_2d ~nx ~ny a) expected)

let test_dct_plan_matches_naive_large () =
  (* The FFT-plan path agrees with the direct sum at solver-scale lengths. *)
  List.iter
    (fun n ->
      let x = Rng.gaussian_array rng n in
      let fast = Dct.dct_ii x in
      let slow = Mat.gemv (dct_matrix n) x in
      Alcotest.(check bool) (Printf.sprintf "plan n=%d" n) true (Vec.approx_equal ~tol:1e-8 fast slow))
    [ 128; 256 ]

let test_dct_2d_rect_roundtrip () =
  (* Rectangular power-of-two grids through the plan path. *)
  let nx = 32 and ny = 8 in
  let a = Rng.gaussian_array rng (nx * ny) in
  Alcotest.(check bool) "rect roundtrip" true
    (Vec.approx_equal ~tol:1e-9 a (Dct.dct_iii_2d ~nx ~ny (Dct.dct_ii_2d ~nx ~ny a)))

(* Bit-identity of the in-place 2-D kernel. The references below are the
   plain allocating composition: every row, then every (strided) column,
   through the public 1-D plan routines with the orthonormal scale applied
   as a separate rounding. *)

let reference_2d ~inverse ~nx ~ny a =
  let out = Array.copy a in
  let nmax = max nx ny in
  let re = Array.make nmax 0.0 and im = Array.make nmax 0.0 in
  let buf = Array.make nmax 0.0 and res = Array.make nmax 0.0 in
  let run len =
    let plan = Plan.get len in
    if inverse then begin
      let s0 = sqrt (float_of_int len) and s = sqrt (float_of_int len /. 2.0) in
      buf.(0) <- buf.(0) *. s0;
      for k = 1 to len - 1 do
        buf.(k) <- buf.(k) *. s
      done;
      Plan.idct2_raw plan buf re im res
    end
    else begin
      Plan.dct2_raw plan buf re im res;
      let s0 = sqrt (1.0 /. float_of_int len) and s = sqrt (2.0 /. float_of_int len) in
      res.(0) <- res.(0) *. s0;
      for k = 1 to len - 1 do
        res.(k) <- res.(k) *. s
      done
    end
  in
  for iy = 0 to ny - 1 do
    Array.blit out (iy * nx) buf 0 nx;
    run nx;
    Array.blit res 0 out (iy * nx) nx
  done;
  for ix = 0 to nx - 1 do
    for iy = 0 to ny - 1 do
      buf.(iy) <- out.((iy * nx) + ix)
    done;
    run ny;
    for iy = 0 to ny - 1 do
      out.((iy * nx) + ix) <- res.(iy)
    done
  done;
  out

(* The direct path for sides that are not powers of two: rows, then
   columns, through the 1-D O(n^2) transforms. *)
let reference_2d_direct f1d ~nx ~ny a =
  let out = Array.copy a in
  for iy = 0 to ny - 1 do
    Array.blit (f1d (Array.sub out (iy * nx) nx)) 0 out (iy * nx) nx
  done;
  for ix = 0 to nx - 1 do
    let col = f1d (Array.init ny (fun iy -> out.((iy * nx) + ix))) in
    Array.iteri (fun iy v -> out.((iy * nx) + ix) <- v) col
  done;
  out

(* Seeded grids with the values the solvers produce: signed zeros, exact
   zeros in whole rows, and ordinary Gaussians. *)
let seeded_grid ~seed ~nx ~ny =
  let a = Rng.gaussian_array (Rng.create seed) (nx * ny) in
  for ix = 0 to nx - 1 do
    a.(ix) <- 0.0
  done;
  Array.mapi (fun i v -> if i mod 7 = 3 then -0.0 else v) a

let test_dct_2d_bit_identical () =
  List.iteri
    (fun i (nx, ny) ->
      let a = seeded_grid ~seed:(900 + i) ~nx ~ny in
      let label dir = Printf.sprintf "%s %dx%d" dir nx ny in
      Alcotest.(check bool) (label "dct_ii_2d") true
        (bits_equal (reference_2d ~inverse:false ~nx ~ny a) (Dct.dct_ii_2d ~nx ~ny a));
      Alcotest.(check bool) (label "dct_iii_2d") true
        (bits_equal (reference_2d ~inverse:true ~nx ~ny a) (Dct.dct_iii_2d ~nx ~ny a)))
    [ (4, 8); (32, 32); (64, 128); (128, 128); (1, 1); (2, 16) ]

let test_dct_2d_direct_bit_identical () =
  (* Sides that are not both powers of two keep the direct path. *)
  List.iteri
    (fun i (nx, ny) ->
      let a = seeded_grid ~seed:(950 + i) ~nx ~ny in
      let label dir = Printf.sprintf "%s %dx%d" dir nx ny in
      Alcotest.(check bool) (label "dct_ii_2d") true
        (bits_equal (reference_2d_direct Dct.dct_ii ~nx ~ny a) (Dct.dct_ii_2d ~nx ~ny a));
      Alcotest.(check bool) (label "dct_iii_2d") true
        (bits_equal (reference_2d_direct Dct.dct_iii ~nx ~ny a) (Dct.dct_iii_2d ~nx ~ny a)))
    [ (6, 5); (8, 12) ]

let test_dct_2d_in_place_offset () =
  (* One workspace transforms several grids stored back to back, in place,
     and leaves everything outside the addressed grid alone. *)
  let nx = 16 and ny = 8 in
  let plane = nx * ny in
  let a = Rng.gaussian_array (Rng.create 31) ((3 * plane) + 5) in
  let orig = Array.copy a in
  let ws = Dct.workspace (Dct.plan ~nx ~ny) in
  Dct.forward_2d ws a ~off:(plane + 5);
  Alcotest.(check bool) "forward region" true
    (bits_equal
       (reference_2d ~inverse:false ~nx ~ny (Array.sub orig (plane + 5) plane))
       (Array.sub a (plane + 5) plane));
  Alcotest.(check bool) "prefix untouched" true
    (bits_equal (Array.sub orig 0 (plane + 5)) (Array.sub a 0 (plane + 5)));
  Alcotest.(check bool) "suffix untouched" true
    (bits_equal (Array.sub orig ((2 * plane) + 5) plane) (Array.sub a ((2 * plane) + 5) plane));
  Dct.inverse_2d ws a ~off:0;
  Alcotest.(check bool) "inverse region" true
    (bits_equal (reference_2d ~inverse:true ~nx ~ny (Array.sub orig 0 plane)) (Array.sub a 0 plane));
  Alcotest.check_raises "region past the end"
    (Invalid_argument "Dct.forward_2d: grid at offset 262 exceeds the array") (fun () ->
      Dct.forward_2d ws a ~off:((2 * plane) + 6))

let test_conjugate_matches_composition () =
  (* The pruned, fused conjugation equals dct_iii_2d (w * dct_ii_2d g)
     gathered at the support, bit for bit, on a support that leaves whole
     rows and columns empty, with -0.0 among the values; for both weight
     directions and for the direct path. *)
  List.iter
    (fun (nx, ny) ->
      let rng = Rng.create (nx + (7 * ny)) in
      let cells =
        List.filter
          (fun c -> (c / nx) mod 3 <> 1 && c mod nx mod 4 <> 2 && c mod 5 <> 0)
          (List.init (nx * ny) Fun.id)
        |> Array.of_list
      in
      let x =
        Array.mapi
          (fun d v -> if d mod 9 = 4 then -0.0 else v)
          (Rng.gaussian_array rng (Array.length cells))
      in
      let weights = Array.map (fun v -> 0.5 +. Float.abs v) (Rng.gaussian_array rng (nx * ny)) in
      let plan = Dct.plan ~nx ~ny in
      let sup = Dct.support plan cells in
      let ws = Dct.workspace plan in
      List.iter
        (fun divide ->
          let g = Array.make (nx * ny) 0.0 in
          Array.iteri (fun d c -> g.(c) <- x.(d)) cells;
          let hat = Dct.dct_ii_2d ~nx ~ny g in
          let w = Array.mapi (fun k v -> if divide then v /. weights.(k) else weights.(k) *. v) hat in
          let full = Dct.dct_iii_2d ~nx ~ny w in
          let expected = Array.map (fun c -> full.(c)) cells in
          let out = Array.make (Array.length cells) nan in
          Dct.conjugate ws sup ~weights ~divide x out;
          Alcotest.(check bool)
            (Printf.sprintf "%dx%d divide=%b" nx ny divide)
            true (bits_equal expected out))
        [ false; true; false ])
    [ (16, 16); (32, 8); (6, 10) ]

let prop_dct_linear =
  let gen =
    QCheck2.Gen.(
      let* n = oneofl [ 4; 8; 16 ] in
      let* xs = list_repeat n (float_range (-5.0) 5.0) in
      let* ys = list_repeat n (float_range (-5.0) 5.0) in
      return (Array.of_list xs, Array.of_list ys))
  in
  qtest "DCT is linear" gen (fun (x, y) ->
      let lhs = Dct.dct_ii (Vec.add x y) in
      let rhs = Vec.add (Dct.dct_ii x) (Dct.dct_ii y) in
      Vec.approx_equal ~tol:1e-9 lhs rhs)

let test_neumann_eigenpair () =
  (* The DCT mode really is an eigenvector of the 1-D Neumann Laplacian. *)
  let n = 16 and k = 5 in
  let mode = Array.init n (fun j -> cos (Float.pi *. (float_of_int j +. 0.5) *. float_of_int k /. float_of_int n)) in
  let lap v =
    Array.init n (fun i ->
        let left = if i > 0 then v.(i) -. v.(i - 1) else 0.0 in
        let right = if i < n - 1 then v.(i) -. v.(i + 1) else 0.0 in
        left +. right)
  in
  let lambda = Dct.neumann_laplacian_eigenvalue ~n ~k in
  Alcotest.(check bool) "eigenpair" true
    (Vec.approx_equal ~tol:1e-9 (lap mode) (Vec.scale lambda mode))

(* ------------------------------------------------------------------ *)
(* Poisson *)

let make_poisson ?(top_fraction = 1.0) ?(bottom_contact = false) ?(nx = 4) ?(ny = 4) ?(nz = 3) () =
  let sigma = Array.init nz (fun k -> if k = 0 then 1.0 else 10.0) in
  Poisson.create ~nx ~ny ~nz ~h:0.5 ~sigma ~top_fraction ~bottom_contact ()

let test_poisson_solver_exact () =
  (* solve really inverts apply when the operator is nonsingular. *)
  let p = make_poisson () in
  let n = Poisson.size p in
  let x = Rng.gaussian_array rng n in
  let b = Poisson.apply p x in
  let x' = Poisson.solve (Poisson.workspace p) b in
  Alcotest.(check bool) "exact inverse" true (Vec.approx_equal ~tol:1e-8 x x')

let test_poisson_solver_exact_backplane () =
  let p = make_poisson ~top_fraction:0.0 ~bottom_contact:true () in
  let n = Poisson.size p in
  let x = Rng.gaussian_array rng n in
  Alcotest.(check bool) "backplane inverse" true
    (Vec.approx_equal ~tol:1e-8 x (Poisson.solve (Poisson.workspace p) (Poisson.apply p x)))

let test_poisson_apply_symmetric () =
  (* <M x, y> = <x, M y>. *)
  let p = make_poisson ~top_fraction:0.3 () in
  let n = Poisson.size p in
  let x = Rng.gaussian_array rng n and y = Rng.gaussian_array rng n in
  Alcotest.(check (float 1e-8)) "self-adjoint" (Vec.dot (Poisson.apply p x) y)
    (Vec.dot x (Poisson.apply p y))

let test_poisson_apply_matches_dense_stamp () =
  (* Check the operator against an independently stamped dense matrix on a
     tiny grid. *)
  let p = make_poisson ~nx:2 ~ny:2 ~nz:2 ~top_fraction:1.0 () in
  let n = Poisson.size p in
  let dense = Mat.init n n (fun i j ->
      let ei = Array.make n 0.0 in
      ei.(j) <- 1.0;
      (Poisson.apply p ei).(i))
  in
  Alcotest.(check bool) "symmetric dense" true (Mat.is_symmetric dense);
  (* Diagonal dominance with strictness on the top plane (Dirichlet above). *)
  for i = 0 to n - 1 do
    let off = ref 0.0 in
    for j = 0 to n - 1 do
      if i <> j then off := !off +. Float.abs (Mat.get dense i j)
    done;
    Alcotest.(check bool) "diagonally dominant" true (Mat.get dense i i >= !off -. 1e-12)
  done

let test_poisson_singular_mode_regularized () =
  (* Pure Neumann everywhere: solve must not blow up. *)
  let p = make_poisson ~top_fraction:0.0 ~bottom_contact:false () in
  let n = Poisson.size p in
  (* Zero-mean rhs lies in the range of the singular operator. *)
  let b = Rng.gaussian_array rng n in
  let mean = Vec.sum b /. float_of_int n in
  let b = Array.map (fun x -> x -. mean) b in
  let x = Poisson.solve (Poisson.workspace p) b in
  let r = Vec.sub (Poisson.apply p x) b in
  Alcotest.(check bool) "residual small on range" true (Vec.norm2 r < 1e-6 *. Vec.norm2 b)

(* Reference solve, one plane at a time: copy each z-plane out, transform
   it with the allocating reference, copy it back;
   one tridiagonal system per mode; the same in reverse. Boundary terms are
   rebuilt from [create]'s formulas. *)
let reference_poisson_solve ~nx ~ny ~nz ~h ~sigma ~top_fraction ~bottom_contact b =
  let plane = nx * ny in
  let gz = Array.init (nz - 1) (fun k -> Poisson.series_conductance h sigma.(k) sigma.(k + 1)) in
  let g_top = top_fraction *. sigma.(0) *. h in
  let g_bottom = if bottom_contact then 2.0 *. sigma.(nz - 1) *. h else 0.0 in
  let fast = Fft.is_power_of_two nx && Fft.is_power_of_two ny in
  let transform ~inverse a =
    if fast then reference_2d ~inverse ~nx ~ny a
    else reference_2d_direct (if inverse then Dct.dct_iii else Dct.dct_ii) ~nx ~ny a
  in
  let hat = Array.make (nx * ny * nz) 0.0 in
  for iz = 0 to nz - 1 do
    Array.blit (transform ~inverse:false (Array.sub b (iz * plane) plane)) 0 hat (iz * plane) plane
  done;
  let singular = Float.equal g_top 0.0 && Float.equal g_bottom 0.0 in
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
      let x = Tridiag.solve ~lower ~diag ~upper ~rhs in
      for iz = 0 to nz - 1 do
        hat.((iz * plane) + (ky * nx) + kx) <- x.(iz)
      done
    done
  done;
  let out = Array.make (nx * ny * nz) 0.0 in
  for iz = 0 to nz - 1 do
    Array.blit (transform ~inverse:true (Array.sub hat (iz * plane) plane)) 0 out (iz * plane) plane
  done;
  out

let test_poisson_solve_bit_identical () =
  List.iteri
    (fun i (nx, ny, nz, top_fraction, bottom_contact) ->
      let h = 0.5 in
      let sigma = Array.init nz (fun k -> if k = 0 then 1.0 else 10.0 +. float_of_int k) in
      let p = Poisson.create ~nx ~ny ~nz ~h ~sigma ~top_fraction ~bottom_contact () in
      let b = Rng.gaussian_array (Rng.create (600 + i)) (Poisson.size p) in
      b.(1) <- -0.0;
      Alcotest.(check bool)
        (Printf.sprintf "%dx%dx%d top %.2f backplane %b" nx ny nz top_fraction bottom_contact)
        true
        (bits_equal
           (reference_poisson_solve ~nx ~ny ~nz ~h ~sigma ~top_fraction ~bottom_contact b)
           (Poisson.solve (Poisson.workspace p) b)))
    [
      (32, 32, 8, 0.35, false);
      (4, 4, 3, 1.0, false);
      (8, 16, 4, 0.0, true);
      (4, 4, 3, 0.0, false);
      (6, 5, 3, 0.5, true);
      (16, 16, 8, 0.35, false);
      (64, 64, 16, 0.2, true);
      (32, 32, 8, 1.0, true);
      (8, 8, 1, 0.5, false);
      (4, 4, 1, 0.0, false);
    ]

(* One workspace serves a whole CG solve, so its factor tables and scratch
   must carry nothing from one right-hand side to the next. *)
let test_poisson_workspace_reuse () =
  List.iter
    (fun (nx, ny, nz, top_fraction, bottom_contact) ->
      let p = make_poisson ~top_fraction ~bottom_contact ~nx ~ny ~nz () in
      let ws = Poisson.workspace p in
      List.iter
        (fun seed ->
          let b = Rng.gaussian_array (Rng.create seed) (Poisson.size p) in
          let reused = Array.copy (Poisson.solve ws b) in
          Alcotest.(check bool)
            (Printf.sprintf "%dx%dx%d rhs %d" nx ny nz seed)
            true
            (bits_equal (Poisson.solve (Poisson.workspace p) b) reused))
        [ 1; 2; 3 ])
    [ (16, 16, 4, 0.35, false); (4, 4, 3, 0.0, false); (6, 5, 3, 0.5, true) ]

(* On power-of-two grids a solve on a warmed workspace allocates nothing:
   the few words [Gc.allocated_bytes] boxes for itself, spread over 100
   calls, stay below one word per call. *)
let test_poisson_solve_allocation_free () =
  List.iter
    (fun (nx, ny, nz) ->
      let p = make_poisson ~nx ~ny ~nz () in
      let ws = Poisson.workspace p in
      let b = Rng.gaussian_array (Rng.create 9) (Poisson.size p) in
      ignore (Poisson.solve ws b);
      let before = Gc.allocated_bytes () in
      for _ = 1 to 100 do
        ignore (Poisson.solve ws b)
      done;
      let per_call = (Gc.allocated_bytes () -. before) /. 100.0 in
      Alcotest.(check bool)
        (Printf.sprintf "%dx%dx%d: %.2f bytes per solve" nx ny nz per_call)
        true
        (per_call < float_of_int (Sys.word_size / 8)))
    [ (16, 16, 4); (32, 32, 8); (64, 64, 16) ]

let test_series_conductance () =
  (* Equal conductivities: series of two half resistors = one full resistor. *)
  Alcotest.(check (float 1e-12)) "uniform" 0.5 (Poisson.series_conductance 0.5 1.0 1.0);
  (* Matches (2.8): g = h / (p/s1 + (1-p)/s2) at p = 1/2. *)
  let h = 2.0 and s1 = 3.0 and s2 = 5.0 in
  Alcotest.(check (float 1e-12)) "layered"
    (h /. ((0.5 /. s1) +. (0.5 /. s2)))
    (Poisson.series_conductance h s1 s2)

let () =
  Alcotest.run "transforms"
    [
      ( "fft",
        [
          Alcotest.test_case "matches naive DFT" `Quick test_fft_matches_naive;
          Alcotest.test_case "roundtrip" `Quick test_fft_roundtrip;
          Alcotest.test_case "rejects non-power-of-two" `Quick test_fft_rejects_non_power_of_two;
          Alcotest.test_case "parseval" `Quick test_fft_parseval;
          Alcotest.test_case "fused stages bit-identical to radix-2" `Quick
            test_fft_stages_bit_identical;
        ] );
      ( "dct",
        [
          Alcotest.test_case "matches explicit matrix" `Quick test_dct_matches_matrix;
          Alcotest.test_case "roundtrip" `Quick test_dct_roundtrip;
          Alcotest.test_case "orthogonal" `Quick test_dct_orthogonal;
          Alcotest.test_case "transpose property" `Quick test_dct_transpose_property;
          Alcotest.test_case "2d roundtrip" `Quick test_dct_2d_roundtrip;
          Alcotest.test_case "2d separable" `Quick test_dct_2d_separable;
          Alcotest.test_case "neumann eigenpair" `Quick test_neumann_eigenpair;
          Alcotest.test_case "plan matches naive (large)" `Quick test_dct_plan_matches_naive_large;
          Alcotest.test_case "2d rectangular roundtrip" `Quick test_dct_2d_rect_roundtrip;
          Alcotest.test_case "2d bit-identical to row-column reference" `Quick
            test_dct_2d_bit_identical;
          Alcotest.test_case "2d direct path bit-identical" `Quick test_dct_2d_direct_bit_identical;
          Alcotest.test_case "2d in place at an offset" `Quick test_dct_2d_in_place_offset;
          Alcotest.test_case "conjugate matches composition" `Quick
            test_conjugate_matches_composition;
          prop_dct_linear;
        ] );
      ( "poisson",
        [
          Alcotest.test_case "exact inverse (top dirichlet)" `Quick test_poisson_solver_exact;
          Alcotest.test_case "exact inverse (backplane)" `Quick test_poisson_solver_exact_backplane;
          Alcotest.test_case "apply symmetric" `Quick test_poisson_apply_symmetric;
          Alcotest.test_case "matches dense stamp" `Quick test_poisson_apply_matches_dense_stamp;
          Alcotest.test_case "singular mode regularized" `Quick test_poisson_singular_mode_regularized;
          Alcotest.test_case "series conductance" `Quick test_series_conductance;
          Alcotest.test_case "solve bit-identical to per-plane reference" `Quick
            test_poisson_solve_bit_identical;
          Alcotest.test_case "workspace reuse bit-identical to fresh" `Quick
            test_poisson_workspace_reuse;
          Alcotest.test_case "solve allocation-free on power-of-two grids" `Quick
            test_poisson_solve_allocation_free;
        ] );
    ]
