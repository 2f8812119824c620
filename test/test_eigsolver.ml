(* Tests for the eigenfunction (surface-variable) substrate solver. *)

open La
module Profile = Substrate.Profile
module Blackbox = Substrate.Blackbox
open Eigsolver

let rng = Rng.create 77

let uniform_profile ?(backplane = Profile.Grounded) ?(size = 16.0) ?(depth = 4.0) ?(sigma = 2.0) () =
  Profile.make ~a:size ~b:size ~layers:[ { Profile.thickness = depth; conductivity = sigma } ] ~backplane

(* ------------------------------------------------------------------ *)
(* Eigenvalues *)

let test_lambda_uniform_grounded () =
  (* Single grounded layer: lambda = tanh(gamma d) / (sigma gamma). *)
  let p = uniform_profile () in
  List.iter
    (fun (m, n) ->
      let g = Eigenvalues.gamma p ~m ~n in
      let expected = tanh (g *. 4.0) /. (2.0 *. g) in
      Alcotest.(check (float 1e-10))
        (Printf.sprintf "mode (%d,%d)" m n)
        expected
        (Eigenvalues.lambda p ~m ~n))
    [ (1, 0); (0, 1); (3, 2); (10, 10) ]

let test_lambda_uniform_floating () =
  (* Floating backplane: lambda = coth(gamma d) / (sigma gamma). *)
  let p = uniform_profile ~backplane:Profile.Floating () in
  let m = 2 and n = 1 in
  let g = Eigenvalues.gamma p ~m ~n in
  Alcotest.(check (float 1e-10)) "coth form" (1.0 /. (tanh (g *. 4.0) *. 2.0 *. g)) (Eigenvalues.lambda p ~m ~n)

let test_lambda_dc () =
  (* DC mode of a grounded stack: series resistance sum t_k / sigma_k. *)
  let p =
    Profile.make ~a:8.0 ~b:8.0
      ~layers:[ { Profile.thickness = 1.0; conductivity = 2.0 }; { Profile.thickness = 3.0; conductivity = 0.5 } ]
      ~backplane:Profile.Grounded
  in
  Alcotest.(check (float 1e-12)) "series" ((1.0 /. 2.0) +. (3.0 /. 0.5)) (Eigenvalues.lambda p ~m:0 ~n:0);
  (* Floating DC mode is the huge stand-in. *)
  let pf = uniform_profile ~backplane:Profile.Floating () in
  Alcotest.(check (float 1.0)) "floating dc" Eigenvalues.floating_dc_lambda (Eigenvalues.lambda pf ~m:0 ~n:0)

let test_lambda_two_layer_matches_coefficient_recursion () =
  (* Cross-check the admittance recursion against the thesis's coefficient
     recursion (2.34)-(2.35) computed directly (safe here because the layers
     are thin enough not to overflow). *)
  let sigma1 = 3.0 and sigma2 = 0.7 in
  let t1 = 0.4 and t2 = 0.8 in
  let p =
    Profile.make ~a:4.0 ~b:4.0
      ~layers:[ { Profile.thickness = t1; conductivity = sigma1 }; { Profile.thickness = t2; conductivity = sigma2 } ]
      ~backplane:Profile.Grounded
  in
  let m = 2 and n = 3 in
  let g = Eigenvalues.gamma p ~m ~n in
  let d = t1 +. t2 in
  (* Bottom layer (sigma2): grounded start (zeta, xi) = (1, -1). Interface at
     height t2 above the bottom, i.e. d - d_k = t2. *)
  let zeta1 = 1.0 and xi1 = -1.0 in
  let ratio = sigma2 /. sigma1 in
  let e = exp (g *. t2) in
  let zeta2 = (0.5 *. (1.0 +. ratio) *. zeta1) +. (0.5 *. (1.0 -. ratio) /. (e *. e) *. xi1) in
  let xi2 = (0.5 *. (1.0 -. ratio) *. e *. e *. zeta1) +. (0.5 *. (1.0 +. ratio) *. xi1) in
  let ed = exp (g *. d) in
  let expected = ((zeta2 *. ed) +. (xi2 /. ed)) /. (sigma1 *. g *. ((zeta2 *. ed) -. (xi2 /. ed))) in
  Alcotest.(check (float 1e-10)) "matches (2.35)" expected (Eigenvalues.lambda p ~m ~n)

let test_lambda_positive_decreasing () =
  let p = Profile.thesis_default () in
  let prev = ref Float.infinity in
  for m = 0 to 40 do
    let l = Eigenvalues.lambda p ~m ~n:m in
    Alcotest.(check bool) "positive" true (l > 0.0);
    Alcotest.(check bool) "decreasing along diagonal" true (l <= !prev +. 1e-15);
    prev := l
  done

let test_lambda_no_overflow_thick_layers () =
  (* The raw coefficient recursion overflows here; the admittance form must
     not. *)
  let p = Profile.thesis_default () in
  let l = Eigenvalues.lambda p ~m:127 ~n:127 in
  Alcotest.(check bool) "finite" true (Float.is_finite l && l > 0.0)

(* ------------------------------------------------------------------ *)
(* Panel *)

let small_layout () = Geometry.Layout.regular_grid ~size:16.0 ~per_side:4 ~fill:0.5 ()

let test_panel_assignment () =
  let pan = Panel.create (small_layout ()) ~panels_per_side:16 in
  Alcotest.(check int) "16 contacts" 16 (Panel.n_contacts pan);
  (* Each contact spans 2 units = 2 panels of width 1. *)
  Alcotest.(check int) "4 panels per contact" (16 * 4) (Panel.n_dofs pan)

let test_panel_too_coarse () =
  Alcotest.check_raises "no panels" (Panel.Contact_without_panels 0) (fun () ->
      ignore (Panel.create (small_layout ()) ~panels_per_side:2))

let test_panel_scatter_gather () =
  let pan = Panel.create (small_layout ()) ~panels_per_side:16 in
  let x = Rng.gaussian_array rng (Panel.n_dofs pan) in
  Alcotest.(check bool) "gather . scatter = id" true
    (Vec.approx_equal x (Panel.gather pan (Panel.scatter pan x)))

let test_panel_expand_sum () =
  let pan = Panel.create (small_layout ()) ~panels_per_side:16 in
  let v = Vec.init 16 (fun i -> float_of_int i) in
  let expanded = Panel.expand_contacts pan v in
  (* Summing the expansion multiplies by the panel count per contact. *)
  let sums = Panel.sum_per_contact pan expanded in
  Alcotest.(check bool) "sum = 4 v" true (Vec.approx_equal sums (Vec.scale 4.0 v))

(* ------------------------------------------------------------------ *)
(* Solver *)

let make_solver ?(profile = uniform_profile ()) ?(layout = small_layout ()) ?(pps = 16) () =
  Eig_solver.create profile layout ~panels_per_side:pps

let test_operator_symmetric () =
  let s = make_solver () in
  let n = Eig_solver.panel_count s in
  let x = Rng.gaussian_array rng n and y = Rng.gaussian_array rng n in
  Alcotest.(check (float 1e-9)) "self-adjoint"
    (Vec.dot (Eig_solver.apply_restricted s x) y)
    (Vec.dot x (Eig_solver.apply_restricted s y))

let test_operator_positive () =
  let s = make_solver () in
  let n = Eig_solver.panel_count s in
  for _ = 1 to 5 do
    let x = Rng.gaussian_array rng n in
    Alcotest.(check bool) "positive" true (Vec.dot x (Eig_solver.apply_restricted s x) > 0.0)
  done

let test_g_symmetric_and_signs () =
  let s = make_solver () in
  let bb = Eig_solver.blackbox s in
  let g = Blackbox.extract_dense bb in
  Alcotest.(check bool) "symmetric" true (Mat.is_symmetric ~tol:1e-6 g);
  (* Diagonal positive, off-diagonal negative (thesis §2.4). *)
  for i = 0 to Mat.rows g - 1 do
    Alcotest.(check bool) "diag > 0" true (Mat.get g i i > 0.0);
    for j = 0 to Mat.cols g - 1 do
      if i <> j then Alcotest.(check bool) "offdiag < 0" true (Mat.get g i j < 1e-12)
    done
  done

let test_g_diagonally_dominant () =
  (* Grounded backplane: strict diagonal dominance — some current escapes
     through the backplane (thesis §2.4). *)
  let s = make_solver () in
  let g = Blackbox.extract_dense (Eig_solver.blackbox s) in
  for i = 0 to Mat.rows g - 1 do
    let off = ref 0.0 in
    for j = 0 to Mat.cols g - 1 do
      if i <> j then off := !off +. Float.abs (Mat.get g i j)
    done;
    Alcotest.(check bool) "strictly dominant" true (Mat.get g i i > !off)
  done

let test_g_matches_dense_reference () =
  (* Build A_cc densely, compute G = area * F' A_cc^{-1} F by Cholesky, and
     compare with the black-box CG path. *)
  let layout = Geometry.Layout.regular_grid ~size:16.0 ~per_side:2 ~fill:0.5 () in
  let s = make_solver ~layout () in
  let nd = Eig_solver.panel_count s in
  let a_cc =
    Mat.init nd nd (fun i j ->
        let e = Array.make nd 0.0 in
        e.(j) <- 1.0;
        (Eig_solver.apply_restricted s e).(i))
  in
  let pan = Panel.create layout ~panels_per_side:16 in
  let n = 4 in
  let g_ref =
    Mat.init n n (fun i j ->
        let ej = Array.make n 0.0 in
        ej.(j) <- 1.0;
        let rho = Cholesky.solve a_cc (Panel.expand_contacts pan ej) in
        (Panel.sum_per_contact pan rho).(i) *. Panel.panel_area pan)
  in
  let g = Blackbox.extract_dense (Eig_solver.blackbox s) in
  Alcotest.(check bool) "matches dense" true (Mat.approx_equal ~tol:1e-5 g g_ref)

let test_single_full_contact_dc_resistance () =
  (* One contact covering the whole surface of a uniform grounded slab:
     G = sigma * area / depth exactly (only the DC mode is excited). *)
  let size = 16.0 and depth = 4.0 and sigma = 2.0 in
  let layout =
    {
      Geometry.Layout.size;
      contacts = [| Geometry.Contact.make ~x0:0.0 ~y0:0.0 ~x1:size ~y1:size |];
      name = "full";
    }
  in
  let profile = uniform_profile ~size ~depth ~sigma () in
  let s = Eig_solver.create profile layout ~panels_per_side:8 in
  let i = Eig_solver.solve s [| 1.0 |] in
  Alcotest.(check (float 1e-6)) "slab resistance" (sigma *. size *. size /. depth) i.(0)

let test_coupling_decays_with_distance () =
  let layout = Geometry.Layout.regular_grid ~size:32.0 ~per_side:8 ~fill:0.5 () in
  let profile = uniform_profile ~size:32.0 ~depth:8.0 () in
  let s = Eig_solver.create profile layout ~panels_per_side:32 in
  let g = Blackbox.extract_dense (Eig_solver.blackbox s) in
  (* Coupling from contact 0 (corner) to its row neighbors decreases. *)
  let c01 = Float.abs (Mat.get g 0 1) in
  let c03 = Float.abs (Mat.get g 0 3) in
  let c07 = Float.abs (Mat.get g 0 7) in
  Alcotest.(check bool) "monotone decay" true (c01 > c03 && c03 > c07)

let test_floating_backplane_row_sums () =
  (* With no backplane contact, all injected current must leave through the
     other contacts: G 1 = 0 up to the large-but-finite DC stand-in
     (thesis §2.4: "E G_ij = 0 for all j"). *)
  let profile = uniform_profile ~backplane:Profile.Floating () in
  let s = make_solver ~profile () in
  let g = Blackbox.extract_dense (Eig_solver.blackbox s) in
  let ones = Array.make 16 1.0 in
  let sums = Mat.gemv g ones in
  let scale = Mat.max_abs g in
  Alcotest.(check bool)
    (Printf.sprintf "row sums %.2e of scale %.2e" (Vec.norm_inf sums) scale)
    true
    (Vec.norm_inf sums < 1e-6 *. scale)

let test_grounded_backplane_loses_current () =
  (* Grounded backplane: G 1 > 0 strictly (current escapes downward). *)
  let s = make_solver () in
  let g = Blackbox.extract_dense (Eig_solver.blackbox s) in
  let sums = Mat.gemv g (Array.make 16 1.0) in
  Array.iter (fun x -> Alcotest.(check bool) "positive row sum" true (x > 0.0)) sums

let test_galerkin_correction () =
  (* The precorrected-DCT (Galerkin) operator damps the short-range modes:
     the diagonal self-conductance shrinks while the physics stays sane
     (symmetric, diagonally dominant, same DC behavior). *)
  let point = make_solver () in
  let galerkin =
    Eig_solver.create ~galerkin:true (uniform_profile ()) (small_layout ()) ~panels_per_side:16
  in
  let g_p = Blackbox.extract_dense (Eig_solver.blackbox point) in
  let g_g = Blackbox.extract_dense (Eig_solver.blackbox galerkin) in
  Alcotest.(check bool) "galerkin symmetric" true (Mat.is_symmetric ~tol:1e-6 g_g);
  Alcotest.(check bool) "same magnitude" true
    (Float.abs (Mat.get g_g 0 0 -. Mat.get g_p 0 0) < 0.5 *. Mat.get g_p 0 0);
  (* Damping the potential operator's high (local) modes means less
     potential per unit current, i.e. MORE conductance: G ~ A^{-1}. *)
  Alcotest.(check bool) "diagonal increases" true (Mat.get g_g 0 0 > Mat.get g_p 0 0)

let test_fast_inverse_preconditioner () =
  (* §2.3.1's zero-padded inverse: must not change the answer; iterations
     should not increase. *)
  let s_plain = make_solver () in
  let s_pre =
    Eig_solver.create ~precond:Eig_solver.Fast_inverse (uniform_profile ()) (small_layout ())
      ~panels_per_side:16
  in
  let u = Vec.init 16 (fun i -> float_of_int (i mod 3) -. 1.0) in
  let a = Eig_solver.solve s_plain u and b = Eig_solver.solve s_pre u in
  Alcotest.(check bool) "same currents" true (Vec.norm2 (Vec.sub a b) < 1e-6 *. Vec.norm2 a);
  let i_plain = Krylov.average_iterations (Eig_solver.stats s_plain) in
  let i_pre = Krylov.average_iterations (Eig_solver.stats s_pre) in
  Alcotest.(check bool)
    (Printf.sprintf "iterations %.0f <= %.0f" i_pre i_plain)
    true (i_pre <= i_plain)

let test_blackbox_counts () =
  let s = make_solver () in
  let bb = Eig_solver.blackbox s in
  ignore (Blackbox.apply bb (Array.make 16 1.0));
  ignore (Blackbox.apply bb (Array.make 16 0.5));
  Alcotest.(check int) "two solves" 2 (Blackbox.solve_count bb);
  Blackbox.reset_count bb;
  Alcotest.(check int) "reset" 0 (Blackbox.solve_count bb)

let test_blackbox_rejects_bad_length () =
  let s = make_solver () in
  let bb = Eig_solver.blackbox s in
  Alcotest.check_raises "bad length"
    (Invalid_argument "Blackbox: expected 16 contact voltages, got 3") (fun () ->
      ignore (Blackbox.apply bb (Array.make 3 1.0)))

(* ------------------------------------------------------------------ *)
(* Bit-identity of the operators on the in-place DCT kernel *)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* Reference: the Fig 2-6 pipeline unfused, full 2-D transforms around a
   separate eigenvalue pass. *)
let reference_operator ~lambdas ~p ~divide grid =
  let hat = Transforms.Dct.dct_ii_2d ~nx:p ~ny:p grid in
  let w = Array.mapi (fun k v -> if divide then v /. lambdas.(k) else lambdas.(k) *. v) hat in
  Transforms.Dct.dct_iii_2d ~nx:p ~ny:p w

let with_negative_zeros x = Array.mapi (fun i v -> if i mod 5 = 2 then -0.0 else v) x

let test_restricted_operator_bit_identical () =
  (* 16 panels run the pruned kernel; 12 is not a power of two and takes
     the direct path. *)
  List.iter
    (fun pps ->
      let profile = uniform_profile () and layout = small_layout () in
      let s = Eig_solver.create profile layout ~panels_per_side:pps in
      let pan = Panel.create layout ~panels_per_side:pps in
      let lambdas = Eigenvalues.table profile ~p:pps in
      let cells = Panel.dof_panels pan in
      let empty side = List.exists (fun i -> not (Array.exists (fun c -> side c = i) cells)) in
      Alcotest.(check bool) "a panel row holds no contact" true
        (empty (fun c -> c / pps) (List.init pps Fun.id));
      Alcotest.(check bool) "a panel column holds no contact" true
        (empty (fun c -> c mod pps) (List.init pps Fun.id));
      let rho = with_negative_zeros (Rng.gaussian_array rng (Panel.n_dofs pan)) in
      let grid = Panel.scatter pan rho in
      let label what = Printf.sprintf "%s, p = %d" what pps in
      Alcotest.(check bool) (label "apply_restricted = gather (apply_operator (scatter rho))") true
        (bits_equal
           (Panel.gather pan (Eig_solver.apply_operator s grid))
           (Eig_solver.apply_restricted s rho));
      Alcotest.(check bool) (label "apply_operator = unfused transforms") true
        (bits_equal
           (reference_operator ~lambdas ~p:pps ~divide:false grid)
           (Eig_solver.apply_operator s grid));
      Alcotest.(check bool) (label "apply_inverse_restricted = unfused transforms") true
        (bits_equal
           (Panel.gather pan (reference_operator ~lambdas ~p:pps ~divide:true grid))
           (Eig_solver.apply_inverse_restricted s rho)))
    [ 16; 12 ]

let test_solve_batch_bit_identical () =
  List.iter
    (fun precond ->
      let s = Eig_solver.create ~precond (uniform_profile ()) (small_layout ()) ~panels_per_side:16 in
      let vs = Array.init 5 (fun i -> with_negative_zeros (Rng.gaussian_array (Rng.create (40 + i)) 16)) in
      let seq = Array.map (Eig_solver.solve s) vs in
      let par = Eig_solver.solve_batch ~jobs:2 s vs in
      Array.iteri
        (fun i a -> Alcotest.(check bool) (Printf.sprintf "rhs %d" i) true (bits_equal a par.(i)))
        seq)
    [ Eig_solver.No_preconditioner; Eig_solver.Fast_inverse ]

let test_fast_inverse_matches_unfused () =
  (* CG with the unfused operator and preconditioner, at the solver's
     default tolerance and iteration cap. *)
  let profile = uniform_profile () and layout = small_layout () in
  let pps = 16 in
  let s = Eig_solver.create ~precond:Eig_solver.Fast_inverse profile layout ~panels_per_side:pps in
  let pan = Panel.create layout ~panels_per_side:pps in
  let lambdas = Eigenvalues.table profile ~p:pps in
  let through divide x =
    Panel.gather pan (reference_operator ~lambdas ~p:pps ~divide (Panel.scatter pan x))
  in
  let old_solve v =
    let res =
      Krylov.cg ~precond:(through true) ~apply:(through false) ~tol:1e-9 ~max_iter:2000
        (Panel.expand_contacts pan v)
    in
    Vec.scale (Panel.panel_area pan) (Panel.sum_per_contact pan res.Krylov.x)
  in
  List.iteri
    (fun i v ->
      Alcotest.(check bool) (Printf.sprintf "voltages %d" i) true
        (bits_equal (old_solve v) (Eig_solver.solve s v)))
    [ Vec.init 16 (fun i -> float_of_int (i mod 3) -. 1.0); Rng.gaussian_array (Rng.create 9) 16 ]

(* ------------------------------------------------------------------ *)
(* Grouping (compound contacts, thesis §5.2) *)

module Grouping = Substrate.Grouping

let test_grouping_validation () =
  Alcotest.(check bool) "empty group rejected" true
    (try
       ignore (Grouping.of_group_ids [| 0; 2 |]);
       false
     with Invalid_argument _ -> true);
  let g = Grouping.of_group_ids [| 0; 1; 0; 1; 1 |] in
  Alcotest.(check int) "pieces" 5 (Grouping.n_pieces g);
  Alcotest.(check int) "groups" 2 (Grouping.n_groups g);
  Alcotest.(check bool) "members" true (Grouping.members g 0 = [| 0; 2 |])

let test_grouping_expand_reduce () =
  let g = Grouping.of_group_ids [| 0; 1; 0; 2 |] in
  Alcotest.(check bool) "expand" true
    (Vec.approx_equal (Grouping.expand g [| 5.0; 6.0; 7.0 |]) [| 5.0; 6.0; 5.0; 7.0 |]);
  Alcotest.(check bool) "reduce" true
    (Vec.approx_equal (Grouping.reduce g [| 1.0; 2.0; 3.0; 4.0 |]) [| 4.0; 2.0; 4.0 |]);
  (* <S v, i> = <v, S' i> — expand and reduce are adjoint. *)
  let v = [| 1.5; -2.0; 0.5 |] and i = [| 1.0; -1.0; 2.0; 0.25 |] in
  Alcotest.(check (float 1e-12)) "adjoint" (Vec.dot (Grouping.expand g v) i)
    (Vec.dot v (Grouping.reduce g i))

let test_grouping_blackbox_matches_dense () =
  (* S' G S computed through the wrapped black box equals the dense triple
     product, and stays a valid conductance matrix. *)
  let s = make_solver () in
  let bb = Eig_solver.blackbox s in
  let grouping = Grouping.of_group_ids (Array.init 16 (fun i -> i mod 4)) in
  let wrapped = Grouping.wrap_blackbox grouping bb in
  let g_elec = Blackbox.extract_dense wrapped in
  let g = Blackbox.extract_dense (Eig_solver.blackbox (make_solver ())) in
  let expected =
    Mat.init 4 4 (fun a b ->
        let acc = ref 0.0 in
        Array.iter
          (fun i -> Array.iter (fun j -> acc := !acc +. Mat.get g i j) (Grouping.members grouping b))
          (Grouping.members grouping a);
        !acc)
  in
  Alcotest.(check bool) "S' G S" true (Mat.approx_equal ~tol:1e-6 g_elec expected);
  Alcotest.(check bool) "symmetric" true (Mat.is_symmetric ~tol:1e-6 g_elec);
  for a = 0 to 3 do
    Alcotest.(check bool) "diag positive" true (Mat.get g_elec a a > 0.0)
  done

(* ------------------------------------------------------------------ *)
(* Profile *)

let test_profile_depth_and_conductivity () =
  let p = Profile.thesis_default () in
  Alcotest.(check (float 1e-12)) "depth" 40.0 (Profile.depth p);
  Alcotest.(check (float 1e-12)) "top layer" 1.0 (Profile.conductivity_at p ~z:0.2);
  Alcotest.(check (float 1e-12)) "bulk" 100.0 (Profile.conductivity_at p ~z:20.0);
  Alcotest.(check (float 1e-12)) "resistive bottom" 0.1 (Profile.conductivity_at p ~z:39.5)

let test_integrated_resistivity () =
  let p = Profile.thesis_default () in
  (* Across the top interface: 0.5 at sigma 1 plus 0.5 at sigma 100. *)
  Alcotest.(check (float 1e-12)) "straddling" (0.5 +. (0.5 /. 100.0))
    (Profile.integrated_resistivity p ~z0:0.0 ~z1:1.0);
  (* Entirely in the bulk. *)
  Alcotest.(check (float 1e-12)) "bulk" (2.0 /. 100.0) (Profile.integrated_resistivity p ~z0:5.0 ~z1:7.0)

let () =
  Alcotest.run "eigsolver"
    [
      ( "eigenvalues",
        [
          Alcotest.test_case "uniform grounded" `Quick test_lambda_uniform_grounded;
          Alcotest.test_case "uniform floating" `Quick test_lambda_uniform_floating;
          Alcotest.test_case "dc modes" `Quick test_lambda_dc;
          Alcotest.test_case "matches coefficient recursion" `Quick
            test_lambda_two_layer_matches_coefficient_recursion;
          Alcotest.test_case "positive decreasing" `Quick test_lambda_positive_decreasing;
          Alcotest.test_case "no overflow" `Quick test_lambda_no_overflow_thick_layers;
        ] );
      ( "panel",
        [
          Alcotest.test_case "assignment" `Quick test_panel_assignment;
          Alcotest.test_case "too coarse raises" `Quick test_panel_too_coarse;
          Alcotest.test_case "scatter/gather" `Quick test_panel_scatter_gather;
          Alcotest.test_case "expand/sum" `Quick test_panel_expand_sum;
        ] );
      ( "solver",
        [
          Alcotest.test_case "operator symmetric" `Quick test_operator_symmetric;
          Alcotest.test_case "operator positive" `Quick test_operator_positive;
          Alcotest.test_case "G symmetric, signs" `Quick test_g_symmetric_and_signs;
          Alcotest.test_case "G diagonally dominant" `Quick test_g_diagonally_dominant;
          Alcotest.test_case "matches dense reference" `Quick test_g_matches_dense_reference;
          Alcotest.test_case "slab DC resistance" `Quick test_single_full_contact_dc_resistance;
          Alcotest.test_case "coupling decays" `Slow test_coupling_decays_with_distance;
          Alcotest.test_case "floating backplane conserves current" `Quick
            test_floating_backplane_row_sums;
          Alcotest.test_case "grounded backplane leaks current" `Quick
            test_grounded_backplane_loses_current;
          Alcotest.test_case "fast-inverse preconditioner" `Quick test_fast_inverse_preconditioner;
          Alcotest.test_case "galerkin panel correction" `Quick test_galerkin_correction;
          Alcotest.test_case "blackbox counting" `Quick test_blackbox_counts;
          Alcotest.test_case "blackbox validation" `Quick test_blackbox_rejects_bad_length;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "restricted operator bit-identical" `Quick
            test_restricted_operator_bit_identical;
          Alcotest.test_case "solve_batch jobs 2 = sequential" `Quick test_solve_batch_bit_identical;
          Alcotest.test_case "fast-inverse solve = unfused path" `Quick
            test_fast_inverse_matches_unfused;
        ] );
      ( "grouping",
        [
          Alcotest.test_case "validation" `Quick test_grouping_validation;
          Alcotest.test_case "expand/reduce adjoint" `Quick test_grouping_expand_reduce;
          Alcotest.test_case "wrapped blackbox = S'GS" `Quick test_grouping_blackbox_matches_dense;
        ] );
      ( "profile",
        [
          Alcotest.test_case "depth and conductivity" `Quick test_profile_depth_and_conductivity;
          Alcotest.test_case "integrated resistivity" `Quick test_integrated_resistivity;
        ] );
    ]
