(* Tests for the low-rank method (thesis Chapter 4): the multilevel
   row-basis representation (phase 1) and the wavelet-structured
   Q G_w Q' representation (phase 2). *)

open La
module Blackbox = Substrate.Blackbox
module Profile = Substrate.Profile
module Quadtree = Geometry.Quadtree
open Sparsify

let rng = Rng.create 31415

(* Alternating-size contacts — the layout class where the wavelet method
   fails and the low-rank method shines (thesis Example 3 / low-rank
   Example 2). *)
let layout = Geometry.Layout.alternating ~size:128.0 ~per_side:16 ()

let g_exact =
  lazy
    (let profile = Profile.thesis_default () in
     let solver = Eigsolver.Eig_solver.create ~tol:1e-10 profile layout ~panels_per_side:64 in
     Blackbox.extract_dense (Eigsolver.Eig_solver.blackbox solver))

let tree = lazy (Quadtree.create ~max_level:3 layout)

let rowbasis =
  lazy
    (let bb = Blackbox.of_dense (Lazy.force g_exact) in
     Rowbasis.build (Lazy.force tree) layout bb)

let relative_apply_error rb g =
  (* Worst relative 2-norm error of the represented operator over a few
     random vectors. *)
  let apply_rb = Subcouple_op.apply (Rowbasis.op rb) in
  let worst = ref 0.0 in
  for _ = 1 to 5 do
    let v = Rng.gaussian_array rng 256 in
    let exact = Mat.gemv g v in
    let approx = apply_rb v in
    worst := Float.max !worst (Vec.norm2 (Vec.sub approx exact) /. Vec.norm2 exact)
  done;
  !worst

(* ------------------------------------------------------------------ *)
(* Phase 1 *)

let test_row_basis_orthonormal () =
  let rb = Lazy.force rowbasis in
  let checked = ref 0 in
  for level = 2 to 3 do
    let nsq = Quadtree.side_count level in
    for iy = 0 to nsq - 1 do
      for ix = 0 to nsq - 1 do
        match Rowbasis.find rb ~level ~ix ~iy with
        | None -> ()
        | Some d ->
          let v = d.Rowbasis.v in
          if Mat.cols v > 0 then begin
            incr checked;
            let defect = Mat.max_abs (Mat.sub (Mat.mul (Mat.transpose v) v) (Mat.identity (Mat.cols v))) in
            Alcotest.(check bool) "orthonormal" true (defect < 1e-8)
          end
      done
    done
  done;
  Alcotest.(check bool) "some bases" true (!checked > 10)

let test_row_basis_captures_interaction () =
  (* The defining property: G(I_s, s)(I - V_s V_s') is small (thesis
     eq. (4.6)). *)
  let rb = Lazy.force rowbasis in
  let g = Lazy.force g_exact in
  let t = Lazy.force tree in
  let level = 3 and ix = 2 and iy = 3 in
  match Rowbasis.find rb ~level ~ix ~iy with
  | None -> Alcotest.fail "square unexpectedly empty"
  | Some d ->
    let inter = Quadtree.region_contacts t ~level (Quadtree.interactive_squares ~level ~ix ~iy) in
    let block = Mat.select g ~row_idx:inter ~col_idx:d.Rowbasis.contacts in
    let v = d.Rowbasis.v in
    let projector = Mat.sub (Mat.identity (Mat.cols block)) (Mat.mul v (Mat.transpose v)) in
    let leak = Mat.frobenius (Mat.mul block projector) /. Mat.frobenius block in
    Alcotest.(check bool) (Printf.sprintf "leak %.2e" leak) true (leak < 0.02)

let test_apply_accuracy () =
  let err = relative_apply_error (Lazy.force rowbasis) (Lazy.force g_exact) in
  Alcotest.(check bool) (Printf.sprintf "apply rel err %.2e" err) true (err < 0.01)

let test_apply_solve_reduction () =
  let rb = Lazy.force rowbasis in
  Alcotest.(check bool)
    (Printf.sprintf "%d solves for 256 contacts" (Rowbasis.solves rb))
    true
    (Rowbasis.solves rb < 256)

let test_symmetric_refinement_improves_accuracy () =
  (* Thesis §4.3.1: the weaker assumption (4.9) with refinement (4.16) gave
     "a dramatic improvement in accuracy". *)
  let g = Lazy.force g_exact in
  let t = Lazy.force tree in
  let bb1 = Blackbox.of_dense g in
  let with_ref = Rowbasis.build ~symmetric_refinement:true t layout bb1 in
  let bb2 = Blackbox.of_dense g in
  let without_ref = Rowbasis.build ~symmetric_refinement:false t layout bb2 in
  let e_with = relative_apply_error with_ref g in
  let e_without = relative_apply_error without_ref g in
  Alcotest.(check bool)
    (Printf.sprintf "with %.2e < without %.2e" e_with e_without)
    true
    (e_with < e_without)

(* ------------------------------------------------------------------ *)
(* Phase 2 *)

let phase2 = lazy (Lowrank.build (Lazy.force rowbasis))
let repr = lazy (Lowrank.representation (Lazy.force phase2))

let test_q_orthogonal () =
  let r = Lazy.force repr in
  let defect = Repr.orthogonality_defect r in
  Alcotest.(check bool) (Printf.sprintf "defect %.2e" defect) true (defect < 1e-8)

let test_q_sparse () =
  let r = Lazy.force repr in
  Alcotest.(check bool)
    (Printf.sprintf "Q sparsity %.2f" (Repr.sparsity_q r))
    true
    (Repr.sparsity_q r > 4.0)

let test_basis_dimensions_telescope () =
  (* Per square, U and T column counts sum to the children's U counts
     (or the contact count on the finest level), so Q ends square. *)
  let p2 = Lazy.force phase2 in
  match Lowrank.find p2 ~level:2 ~ix:0 ~iy:0 with
  | None -> Alcotest.fail "square empty"
  | Some sq ->
    let child_u = ref 0 in
    List.iter
      (fun (cx, cy) ->
        match Lowrank.find p2 ~level:3 ~ix:cx ~iy:cy with
        | Some c -> child_u := !child_u + Mat.cols c.Lowrank.u
        | None -> ())
      (Quadtree.children_coords ~ix:0 ~iy:0);
    Alcotest.(check int) "telescoping" !child_u (Mat.cols sq.Lowrank.u + Mat.cols sq.Lowrank.t)

let test_representation_accuracy () =
  let err = Metrics.error_dense ~exact:(Lazy.force g_exact) ~approx:(Repr.to_dense (Lazy.force repr)) in
  Alcotest.(check bool)
    (Printf.sprintf "max rel err %.2f%%" (100.0 *. err.Metrics.max_rel_error))
    true
    (err.Metrics.max_rel_error < 0.15)

let test_representation_solve_reduction () =
  let r = Lazy.force repr in
  Alcotest.(check bool) (Printf.sprintf "%d solves" r.Repr.solves) true (r.Repr.solves < 256)

let test_lowrank_beats_wavelet_on_mixed_sizes () =
  (* The headline claim (thesis Tables 4.1/4.2): on alternating-size
     contacts the wavelet method's accuracy collapses (47% max rel error in
     the thesis) while the low-rank method stays accurate (5.7%). *)
  let g = Lazy.force g_exact in
  let bb = Blackbox.of_dense g in
  let wavelet_repr = Wavelet.extract (Wavelet.create ~p:2 ~max_level:2 layout) bb in
  let err_w = Metrics.error_dense ~exact:g ~approx:(Repr.to_dense wavelet_repr) in
  let err_lr = Metrics.error_dense ~exact:g ~approx:(Repr.to_dense (Lazy.force repr)) in
  Alcotest.(check bool)
    (Printf.sprintf "low-rank %.1f%% much better than wavelet %.1f%%"
       (100.0 *. err_lr.Metrics.max_rel_error) (100.0 *. err_w.Metrics.max_rel_error))
    true
    (err_lr.Metrics.max_rel_error < 0.5 *. err_w.Metrics.max_rel_error)

let test_thresholded_representation () =
  let g = Lazy.force g_exact in
  let thr = Repr.threshold (Lazy.force repr) ~target:6.0 in
  let err = Metrics.error_dense ~exact:g ~approx:(Repr.to_dense thr) in
  Alcotest.(check bool) "sparser" true (Repr.nnz_gw thr < Repr.nnz_gw (Lazy.force repr));
  Alcotest.(check bool)
    (Printf.sprintf "frac > 10%%: %.3f" err.Metrics.frac_above_10pct)
    true
    (err.Metrics.frac_above_10pct < 0.10)

let test_interaction_block_accuracy () =
  (* The pair formula (4.16) reproduces exact interaction blocks between
     well-separated squares. *)
  let rb = Lazy.force rowbasis in
  let g = Lazy.force g_exact in
  let t = Lazy.force tree in
  (* (3,3) is interactive to (1,1): distance 2, same parent neighborhood. *)
  let src = Option.get (Rowbasis.find rb ~level:3 ~ix:1 ~iy:1) in
  let dst = Option.get (Rowbasis.find rb ~level:3 ~ix:3 ~iy:3) in
  Alcotest.(check bool) "pair is interactive" true
    (List.mem (3, 3) (Quadtree.interactive_squares ~level:3 ~ix:1 ~iy:1));
  let block =
    Mat.select g ~row_idx:dst.Rowbasis.contacts ~col_idx:src.Rowbasis.contacts
  in
  ignore t;
  let xs =
    List.init 4 (fun trial ->
        Rng.gaussian_array (Rng.create (100 + trial)) (Array.length src.Rowbasis.contacts))
  in
  let approx =
    match
      Array.find_opt (fun ((d : Rowbasis.square_data), _) -> d.coords = (3, 3))
        (Rowbasis.interaction_block rb ~src (Mat.of_cols xs))
    with
    | Some (_, blk) -> blk
    | None -> Alcotest.fail "(3,3) missing from the interaction block of (1,1)"
  in
  let worst = ref 0.0 in
  List.iteri
    (fun trial x ->
      let exact = Mat.gemv block x in
      let err = Vec.sub (Mat.col approx trial) exact in
      worst := Float.max !worst (Vec.norm2 err /. Vec.norm2 exact))
    xs;
  Alcotest.(check bool) (Printf.sprintf "block rel err %.2e" !worst) true (!worst < 0.01)

let test_robust_to_full_jitter () =
  (* The operator-adapted basis shrugs off placement irregularity that
     destroys the wavelet method (ablation A4). *)
  let jl = Geometry.Layout.irregular ~size:128.0 ~per_side:16 ~fill:0.4 ~jitter:1.0 (Rng.create 7) () in
  let profile = Profile.thesis_default () in
  let solver = Eigsolver.Eig_solver.create ~tol:1e-9 profile jl ~panels_per_side:64 in
  let g = Blackbox.extract_dense (Eigsolver.Eig_solver.blackbox solver) in
  let repr = Lowrank.extract ~max_level:3 jl (Blackbox.of_dense g) in
  let err = Metrics.error_dense ~exact:g ~approx:(Repr.to_dense repr) in
  Alcotest.(check bool)
    (Printf.sprintf "jittered max err %.2f%%" (100.0 *. err.Metrics.max_rel_error))
    true
    (err.Metrics.max_rel_error < 0.10)

let test_more_samples_more_accuracy () =
  (* The thesis's §4.3.3 option: extra sample vectors per square cost more
     solves but cannot hurt (and usually help) the row bases. *)
  let g = Lazy.force g_exact in
  let t = Lazy.force tree in
  let run k =
    let bb = Blackbox.of_dense g in
    let rb = Rowbasis.build ~samples_per_square:k t layout bb in
    (relative_apply_error rb g, Rowbasis.solves rb)
  in
  let e1, s1 = run 1 in
  let e3, s3 = run 3 in
  Alcotest.(check bool) (Printf.sprintf "more solves (%d > %d)" s3 s1) true (s3 > s1);
  Alcotest.(check bool)
    (Printf.sprintf "accuracy not worse (%.2e vs %.2e)" e3 e1)
    true
    (e3 < 2.0 *. e1)

(* ------------------------------------------------------------------ *)
(* Pairwise (IES3-style) baseline, §4.5 *)

let test_pairwise_accuracy () =
  let g = Lazy.force g_exact in
  let pw = Pairwise.build (Lazy.force tree) g in
  let err = Metrics.error_dense ~exact:g ~approx:(Pairwise.to_dense pw) in
  Alcotest.(check bool)
    (Printf.sprintf "pairwise max err %.2f%%" (100.0 *. err.Metrics.max_rel_error))
    true
    (err.Metrics.max_rel_error < 0.15)

let test_pairwise_compresses () =
  let g = Lazy.force g_exact in
  let pw = Pairwise.build (Lazy.force tree) g in
  Alcotest.(check bool) "fewer floats than dense" true (Pairwise.storage_floats pw < 256 * 256);
  Alcotest.(check bool) "has blocks" true (Pairwise.block_count pw > 100)

let test_pairwise_apply_matches_dense () =
  let g = Lazy.force g_exact in
  let pw = Pairwise.build (Lazy.force tree) g in
  let v = Rng.gaussian_array rng 256 in
  Alcotest.(check bool) "apply = densified" true
    (Vec.approx_equal ~tol:1e-8
       (Subcouple_op.apply (Pairwise.op pw) v)
       (Mat.gemv (Pairwise.to_dense pw) v))

let test_pipeline_extract () =
  (* The one-call driver produces the same kind of representation. *)
  let g = Lazy.force g_exact in
  let bb = Blackbox.of_dense g in
  let r = Lowrank.extract ~max_level:3 layout bb in
  Alcotest.(check int) "size" 256 r.Repr.n;
  let err = Metrics.error_dense ~exact:g ~approx:(Repr.to_dense r) in
  Alcotest.(check bool)
    (Printf.sprintf "pipeline max rel err %.2f%%" (100.0 *. err.Metrics.max_rel_error))
    true
    (err.Metrics.max_rel_error < 0.15)

let () =
  Alcotest.run "lowrank"
    [
      ( "phase1",
        [
          Alcotest.test_case "row bases orthonormal" `Slow test_row_basis_orthonormal;
          Alcotest.test_case "row basis captures interaction" `Slow test_row_basis_captures_interaction;
          Alcotest.test_case "apply accuracy" `Slow test_apply_accuracy;
          Alcotest.test_case "solve reduction" `Slow test_apply_solve_reduction;
          Alcotest.test_case "symmetric refinement helps" `Slow test_symmetric_refinement_improves_accuracy;
          Alcotest.test_case "extra samples" `Slow test_more_samples_more_accuracy;
        ] );
      ( "phase2",
        [
          Alcotest.test_case "Q orthogonal" `Slow test_q_orthogonal;
          Alcotest.test_case "Q sparse" `Slow test_q_sparse;
          Alcotest.test_case "dimensions telescope" `Slow test_basis_dimensions_telescope;
          Alcotest.test_case "accuracy" `Slow test_representation_accuracy;
          Alcotest.test_case "solve reduction" `Slow test_representation_solve_reduction;
          Alcotest.test_case "beats wavelet on mixed sizes" `Slow test_lowrank_beats_wavelet_on_mixed_sizes;
          Alcotest.test_case "thresholded" `Slow test_thresholded_representation;
          Alcotest.test_case "interaction block" `Slow test_interaction_block_accuracy;
          Alcotest.test_case "robust to jitter" `Slow test_robust_to_full_jitter;
          Alcotest.test_case "pipeline extract" `Slow test_pipeline_extract;
        ] );
      ( "pairwise",
        [
          Alcotest.test_case "accuracy" `Slow test_pairwise_accuracy;
          Alcotest.test_case "compresses" `Slow test_pairwise_compresses;
          Alcotest.test_case "apply matches dense" `Slow test_pairwise_apply_matches_dense;
        ] );
    ]
