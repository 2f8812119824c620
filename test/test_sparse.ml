(* Tests for COO/CSR sparse matrices and spy rendering. *)

open La
open Sparsemat

let rng = Rng.create 99

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let random_sparse_dense rng m n density =
  Mat.init m n (fun _ _ -> if Rng.float rng < density then Rng.gaussian rng else 0.0)

let test_coo_roundtrip () =
  let coo = Coo.create 3 4 in
  Coo.add coo 0 1 2.0;
  Coo.add coo 2 3 (-1.0);
  Coo.add coo 0 1 3.0;
  (* duplicate: summed *)
  let m = Csr.of_coo coo in
  Alcotest.(check int) "nnz after dedup" 2 (Csr.nnz m);
  Alcotest.(check (float 1e-12)) "summed" 5.0 (Mat.get (Csr.to_dense m) 0 1)

let test_coo_cancellation () =
  let coo = Coo.create 2 2 in
  Coo.add coo 0 0 1.5;
  Coo.add coo 0 0 (-1.5);
  Alcotest.(check int) "exact cancellation dropped" 0 (Csr.nnz (Csr.of_coo coo))

let test_coo_bounds () =
  let coo = Coo.create 2 2 in
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Coo.add: index (2, 0) out of bounds for 2x2") (fun () -> Coo.add coo 2 0 1.0)

let test_coo_block () =
  let coo = Coo.create 4 4 in
  Coo.add_block coo ~i0:1 ~j0:2 (Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |]);
  let d = Csr.to_dense (Csr.of_coo coo) in
  Alcotest.(check (float 1e-12)) "block entry" 4.0 (Mat.get d 2 3)

let test_coo_block_scattered () =
  let coo = Coo.create 5 5 in
  Coo.add_block_scattered coo ~row_idx:[| 4; 0 |] ~col_idx:[| 1; 3 |]
    (Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |]);
  let d = Csr.to_dense (Csr.of_coo coo) in
  Alcotest.(check (float 1e-12)) "scattered (4,1)" 1.0 (Mat.get d 4 1);
  Alcotest.(check (float 1e-12)) "scattered (0,3)" 4.0 (Mat.get d 0 3)

let test_csr_dense_roundtrip () =
  let m = random_sparse_dense rng 10 7 0.3 in
  let s = Csr.of_dense m in
  Alcotest.(check bool) "roundtrip" true (Mat.approx_equal m (Csr.to_dense s))

let prop_csr_gemv_matches_dense =
  let gen = QCheck2.Gen.(pair (int_range 1 12) (int_range 1 12)) in
  qtest "CSR gemv = dense gemv" gen (fun (m, n) ->
      let d = random_sparse_dense rng m n 0.4 in
      let s = Csr.of_dense d in
      let x = Rng.gaussian_array rng n in
      Vec.approx_equal ~tol:1e-10 (Csr.gemv s x) (Mat.gemv d x))

let prop_csr_gemv_t_matches_dense =
  let gen = QCheck2.Gen.(pair (int_range 1 12) (int_range 1 12)) in
  qtest "CSR gemv_t = dense gemv_t" gen (fun (m, n) ->
      let d = random_sparse_dense rng m n 0.4 in
      let s = Csr.of_dense d in
      let x = Rng.gaussian_array rng m in
      Vec.approx_equal ~tol:1e-10 (Csr.gemv_t s x) (Mat.gemv_t d x))

let test_csr_transpose () =
  let d = random_sparse_dense rng 6 9 0.3 in
  let s = Csr.transpose (Csr.of_dense d) in
  Alcotest.(check bool) "transpose" true (Mat.approx_equal (Mat.transpose d) (Csr.to_dense s))

let test_csr_drop_below () =
  let d = Mat.of_arrays [| [| 0.5; -2.0 |]; [| 1.0; 0.1 |] |] in
  let s = Csr.drop_below (Csr.of_dense d) 0.5 in
  Alcotest.(check int) "kept" 2 (Csr.nnz s)

let test_csr_sparsity_factor () =
  let coo = Coo.create 10 10 in
  Coo.add coo 0 0 1.0;
  Coo.add coo 5 5 1.0;
  Alcotest.(check (float 1e-9)) "factor" 50.0 (Csr.sparsity_factor (Csr.of_coo coo))

let test_threshold_for_sparsity () =
  let d = Mat.init 20 20 (fun i j -> 1.0 /. float_of_int (1 + i + j)) in
  let s = Csr.of_dense d in
  let t = Csr.threshold_for_sparsity s ~target:6.0 in
  let s' = Csr.drop_below s t in
  let achieved = float_of_int (Csr.nnz s) /. float_of_int (Csr.nnz s') in
  Alcotest.(check bool)
    (Printf.sprintf "achieved %.2f" achieved)
    true
    (achieved > 4.0 && achieved < 9.0)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec loop i = i + nl <= hl && (String.sub haystack i nl = needle || loop (i + 1)) in
  loop 0

let test_spy_render () =
  let d = Mat.identity 16 in
  let out = Spy.render ~width:16 (Csr.of_dense d) in
  Alcotest.(check bool) "mentions nnz" true (contains ~needle:"nz = 16" out);
  (* The identity's diagonal should produce glyphs on the rendered diagonal. *)
  Alcotest.(check bool) "nonempty body" true (contains ~needle:"#" out || contains ~needle:"*" out || contains ~needle:"." out || contains ~needle:"+" out || contains ~needle:":" out)

let test_matrix_market_roundtrip () =
  let d = random_sparse_dense rng 7 9 0.3 in
  let s = Csr.of_dense d in
  let path = Filename.temp_file "csr" ".mtx" in
  let oc = open_out path in
  Csr.to_matrix_market ~comment:"roundtrip test" s oc;
  close_out oc;
  let ic = open_in path in
  let s' = Csr.of_matrix_market ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "roundtrip" true (Mat.approx_equal ~tol:1e-12 (Csr.to_dense s) (Csr.to_dense s'))

let test_matrix_market_header () =
  let s = Csr.of_dense (Mat.identity 3) in
  let path = Filename.temp_file "csr" ".mtx" in
  let oc = open_out path in
  Csr.to_matrix_market s oc;
  close_out oc;
  let ic = open_in path in
  let first = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "banner" "%%MatrixMarket matrix coordinate real general" first

(* ------------------------------------------------------------------ *)
(* Fused / blocked product kernels: bit-identity against gemv/gemv_t *)

let float_bits_equal x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let vec_bits_equal a b =
  Array.length a = Array.length b
  &&
  let rec loop i = i >= Array.length a || (float_bits_equal a.(i) b.(i) && loop (i + 1)) in
  loop 0

let batch_bits_equal xs ys =
  Array.length xs = Array.length ys && Array.for_all2 vec_bits_equal xs ys

(* Sparse matrix of a random shape/density plus a block of right-hand
   sides (with exact zeros salted in, so the gemv_t skip is exercised). *)
let sparse_batch_gen =
  QCheck2.Gen.(
    let* m = int_range 1 24 in
    let* n = int_range 1 24 in
    let* density = float_range 0.05 0.6 in
    let* seed = int_range 0 10_000 in
    let* width = int_range 0 9 in
    let rng = Rng.create seed in
    let d = random_sparse_dense rng m n density in
    let a = Csr.of_dense d in
    let block rows =
      Array.init width (fun _ ->
          Array.init rows (fun _ -> if Rng.float rng < 0.2 then 0.0 else Rng.gaussian rng))
    in
    return (a, block n, block m))

let prop_apply_batch_matches_gemv =
  qtest "apply_batch bit-identical to per-column gemv" sparse_batch_gen (fun (a, xs, _) ->
      batch_bits_equal (Array.map (Csr.gemv a) xs) (Csr.apply_batch a xs))

let prop_apply_batch_t_matches_gemv_t =
  qtest "apply_batch_t bit-identical to per-column gemv_t" sparse_batch_gen (fun (a, _, xs) ->
      batch_bits_equal (Array.map (Csr.gemv_t a) xs) (Csr.apply_batch_t a xs))

let test_apply_batch_empty () =
  let a = Csr.of_dense (Mat.identity 4) in
  Alcotest.(check int) "empty block" 0 (Array.length (Csr.apply_batch a [||]));
  Alcotest.(check int) "empty block (transposed)" 0 (Array.length (Csr.apply_batch_t a [||]))

let test_apply_batch_mismatch () =
  let a = Csr.of_dense (random_sparse_dense rng 3 5 0.5) in
  Alcotest.check_raises "wrong column length"
    (Invalid_argument "Csr.apply_batch: dimension mismatch") (fun () ->
      ignore (Csr.apply_batch a [| Array.make 5 1.0; Array.make 4 1.0 |]))

let () =
  Alcotest.run "sparse"
    [
      ( "coo",
        [
          Alcotest.test_case "roundtrip + dedup" `Quick test_coo_roundtrip;
          Alcotest.test_case "cancellation" `Quick test_coo_cancellation;
          Alcotest.test_case "bounds" `Quick test_coo_bounds;
          Alcotest.test_case "add_block" `Quick test_coo_block;
          Alcotest.test_case "add_block_scattered" `Quick test_coo_block_scattered;
        ] );
      ( "csr",
        [
          Alcotest.test_case "dense roundtrip" `Quick test_csr_dense_roundtrip;
          prop_csr_gemv_matches_dense;
          prop_csr_gemv_t_matches_dense;
          Alcotest.test_case "transpose" `Quick test_csr_transpose;
          Alcotest.test_case "drop_below" `Quick test_csr_drop_below;
          Alcotest.test_case "sparsity factor" `Quick test_csr_sparsity_factor;
          Alcotest.test_case "threshold search" `Quick test_threshold_for_sparsity;
          Alcotest.test_case "matrix market roundtrip" `Quick test_matrix_market_roundtrip;
          Alcotest.test_case "matrix market header" `Quick test_matrix_market_header;
        ] );
      ( "kernels",
        [
          prop_apply_batch_matches_gemv;
          prop_apply_batch_t_matches_gemv_t;
          Alcotest.test_case "empty batch" `Quick test_apply_batch_empty;
          Alcotest.test_case "ragged batch rejected" `Quick test_apply_batch_mismatch;
        ] );
      ("spy", [ Alcotest.test_case "render" `Quick test_spy_render ]);
    ]
