(* Tests for the domain pool (lib/parallel) and the batched black-box solve
   path built on it: pool primitives across jobs counts, exception
   propagation, and the bit-for-bit determinism guarantee — parallel
   extraction must produce exactly the matrix sequential extraction does. *)

open La
module Blackbox = Substrate.Blackbox
module Profile = Substrate.Profile
module Pool = Parallel.Pool
open Sparsify

let rng = Rng.create 271828

(* ------------------------------------------------------------------ *)
(* Pool primitives *)

let test_default_jobs () =
  Alcotest.(check bool) "at least one" true (Pool.default_jobs () >= 1)

let test_parallel_for () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let n = 103 in
          let out = Array.make n 0 in
          Pool.parallel_for pool n (fun i -> out.(i) <- i * i);
          Array.iteri
            (fun i v -> Alcotest.(check int) (Printf.sprintf "jobs=%d i=%d" jobs i) (i * i) v)
            out))
    [ 1; 2; 4 ]

let test_map_chunks () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let input = Array.init 57 (fun i -> i) in
          let out = Pool.map_chunks pool (fun x -> 3 * x + 1) input in
          Alcotest.(check (array int))
            (Printf.sprintf "jobs=%d" jobs)
            (Array.map (fun x -> (3 * x) + 1) input)
            out))
    [ 1; 2; 4 ]

let test_empty_input () =
  Pool.with_pool ~jobs:4 (fun pool ->
      Pool.parallel_for pool 0 (fun _ -> Alcotest.fail "body called for n = 0");
      let out = Pool.map_chunks pool (fun x -> x + 1) [||] in
      Alcotest.(check int) "empty map" 0 (Array.length out))

exception Boom

let test_exception_propagation () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          (match Pool.parallel_for pool 20 (fun i -> if i = 13 then raise Boom) with
          | () -> Alcotest.fail "expected Boom from parallel_for"
          | exception Boom -> ());
          (* The pool must survive a failed batch and run the next one. *)
          let out = Pool.map_chunks pool (fun x -> x * 2) (Array.init 8 Fun.id) in
          Alcotest.(check (array int)) "pool reusable after failure" [| 0; 2; 4; 6; 8; 10; 12; 14 |] out))
    [ 1; 2; 4 ]

let test_pool_reuse () =
  Pool.with_pool ~jobs:3 (fun pool ->
      for round = 1 to 5 do
        let out = Pool.map_chunks pool (fun x -> x + round) (Array.init 31 Fun.id) in
        Alcotest.(check (array int))
          (Printf.sprintf "round %d" round)
          (Array.init 31 (fun i -> i + round))
          out
      done)

(* ------------------------------------------------------------------ *)
(* Bit-for-bit determinism of batched extraction *)

let bitwise_equal_mat a b =
  Mat.rows a = Mat.rows b
  && Mat.cols a = Mat.cols b
  &&
  let ok = ref true in
  for i = 0 to Mat.rows a - 1 do
    for j = 0 to Mat.cols a - 1 do
      if
        not
          (Int64.equal
             (Int64.bits_of_float (Mat.get a i j))
             (Int64.bits_of_float (Mat.get b i j)))
      then ok := false
    done
  done;
  !ok

(* A random SPD-ish dense matrix wrapped as a black box. *)
let dense_box n =
  let g = Mat.create n n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Mat.set g i j (Rng.gaussian rng)
    done;
    Mat.set g i i (Mat.get g i i +. 10.0)
  done;
  (g, Blackbox.of_dense g)

let test_extract_dense_deterministic_dense () =
  let g, bb = dense_box 37 in
  let seq = Blackbox.extract_dense bb in
  Alcotest.(check bool) "sequential recovers G" true (bitwise_equal_mat g seq);
  List.iter
    (fun jobs ->
      let par = Blackbox.extract_dense ~jobs bb in
      Alcotest.(check bool) (Printf.sprintf "jobs=%d bitwise" jobs) true (bitwise_equal_mat seq par))
    [ 2; 4 ]

let eig_box () =
  let layout = Geometry.Layout.regular_grid ~size:128.0 ~per_side:4 ~fill:0.5 () in
  let solver = Eigsolver.Eig_solver.create (Profile.thesis_default ()) layout ~panels_per_side:32 in
  (layout, Eigsolver.Eig_solver.blackbox solver)

let test_extract_dense_deterministic_eig () =
  (* The real pipeline: per-domain CG solves through the eigenfunction
     solver must still give a bit-identical matrix. *)
  let _, bb = eig_box () in
  let seq = Blackbox.extract_dense bb in
  let par = Blackbox.extract_dense ~jobs:4 bb in
  Alcotest.(check bool) "eigsolver jobs=4 bitwise" true (bitwise_equal_mat seq par)

let test_extract_columns_deterministic () =
  let _, bb = dense_box 29 in
  let indices = [| 0; 7; 7; 28; 3 |] in
  let seq = Blackbox.extract_columns bb indices in
  let par = Blackbox.extract_columns ~jobs:4 bb indices in
  Array.iteri
    (fun k col ->
      Array.iteri
        (fun i x ->
          Alcotest.(check bool)
            (Printf.sprintf "col %d row %d" k i)
            true
            (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float par.(k).(i))))
        col)
    seq

let test_sparsify_deterministic () =
  (* Wavelet and low-rank extraction with jobs > 1 batch their solves but
     must reproduce the sequential representation exactly. *)
  let layout = Geometry.Layout.alternating ~size:128.0 ~per_side:8 () in
  let g, _ = dense_box (Geometry.Layout.n_contacts layout) in
  let wavelet jobs = Wavelet.extract ~jobs (Wavelet.create ~p:2 layout) (Blackbox.of_dense g) in
  Alcotest.(check bool) "wavelet jobs=4" true
    (bitwise_equal_mat (Repr.to_dense (wavelet 1)) (Repr.to_dense (wavelet 4)));
  let lowrank jobs = Lowrank.extract ~jobs ~seed:5 layout (Blackbox.of_dense g) in
  Alcotest.(check bool) "lowrank jobs=4" true
    (bitwise_equal_mat (Repr.to_dense (lowrank 1)) (Repr.to_dense (lowrank 4)))

(* Golden digests of the low-rank pipeline, recorded from the sequential
   implementation of phase 2: the bits of the phase-1 operator on fixed
   probes, and the raw CSR arrays of Q and G_w. A change to phase 2's merge
   order that shifts every jobs count alike still breaks them, which the
   jobs 1 = jobs 4 comparison above cannot see. alternating 16x16 has a
   finest level of 3, so same-level T-T blocks overwrite each other and
   level-2 squares reach level-3 targets. *)
let golden_rowbasis_probes = "c9f7a8f62d36b7459a0160bb6c468eb5"
let golden_q = "73b3b709b12b21cc4b46c40026a6796e"
let golden_gw = "098855dbd4b9c3526fb7baea18064905"

let digest_of fill =
  let buf = Buffer.create 4096 in
  fill buf;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let add_floats buf a = Array.iter (fun x -> Buffer.add_int64_le buf (Int64.bits_of_float x)) a
let add_ints buf a = Array.iter (fun i -> Buffer.add_int64_le buf (Int64.of_int i)) a

let add_csr buf m =
  let row_ptr, col_idx, values = Sparsemat.Csr.unpack m in
  add_ints buf row_ptr;
  add_ints buf col_idx;
  add_floats buf values

let test_lowrank_golden_digests () =
  let layout = Geometry.Layout.alternating ~size:128.0 ~per_side:16 () in
  let n = Geometry.Layout.n_contacts layout in
  let box_rng = Rng.create 16 in
  let g = Mat.init n n (fun _ _ -> Rng.gaussian box_rng) in
  for i = 0 to n - 1 do
    Mat.set g i i (Mat.get g i i +. 10.0)
  done;
  let max_level = max 2 (Geometry.Quadtree.suggest_max_level ~target:8 layout) in
  Alcotest.(check int) "finest level" 3 max_level;
  let tree = Geometry.Quadtree.create ~max_level layout in
  let probes = Array.init 3 (fun k -> Rng.gaussian_array (Rng.create (100 + k)) n) in
  List.iter
    (fun jobs ->
      let rb = Rowbasis.build ~seed:5 ~jobs tree layout (Blackbox.of_dense g) in
      let op = Rowbasis.op rb in
      let repr = Lowrank.representation (Lowrank.build rb) in
      let p = Repr.to_artifact repr in
      let check what want fill =
        Alcotest.(check string) (Printf.sprintf "%s, jobs=%d" what jobs) want (digest_of fill)
      in
      check "row-basis operator on probes" golden_rowbasis_probes (fun buf ->
          Array.iter (fun v -> add_floats buf (Subcouple_op.apply op v)) probes);
      check "Q" golden_q (fun buf -> add_csr buf p.Subcouple_op.Artifact.q);
      check "G_w" golden_gw (fun buf -> add_csr buf p.Subcouple_op.Artifact.gw))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Solve counting under concurrency *)

let test_solve_count_exact () =
  let _, bb = dense_box 16 in
  Alcotest.(check int) "fresh" 0 (Blackbox.solve_count bb);
  let vs = Array.init 100 (fun _ -> Rng.gaussian_array rng 16) in
  ignore (Blackbox.apply_batch ~jobs:4 bb vs);
  Alcotest.(check int) "one batch of 100" 100 (Blackbox.solve_count bb);
  (* Hammer the same box from several domains at once: the Atomic counter
     must not lose increments. *)
  let domains =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 25 do
              ignore (Blackbox.apply bb (Array.make 16 1.0))
            done))
  in
  Array.iter Domain.join domains;
  Alcotest.(check int) "100 + 4*25 concurrent" 200 (Blackbox.solve_count bb);
  Blackbox.reset_count bb;
  Alcotest.(check int) "reset" 0 (Blackbox.solve_count bb)

let test_batch_jobs_equal_results () =
  (* apply_batch must give identical responses whatever the jobs count. *)
  let _, bb = dense_box 21 in
  let vs = Array.init 13 (fun _ -> Rng.gaussian_array rng 21) in
  let seq = Blackbox.apply_batch bb vs in
  List.iter
    (fun jobs ->
      let par = Blackbox.apply_batch ~jobs bb vs in
      Array.iteri
        (fun k col ->
          Array.iteri
            (fun i x ->
              Alcotest.(check bool)
                (Printf.sprintf "jobs=%d rhs=%d i=%d" jobs k i)
                true
                (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float par.(k).(i))))
            col)
        seq)
    [ 2; 4 ]

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "default jobs" `Quick test_default_jobs;
          Alcotest.test_case "parallel_for" `Quick test_parallel_for;
          Alcotest.test_case "map_chunks" `Quick test_map_chunks;
          Alcotest.test_case "empty input" `Quick test_empty_input;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
          Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "extract_dense on dense box" `Quick test_extract_dense_deterministic_dense;
          Alcotest.test_case "extract_dense on eigsolver" `Slow test_extract_dense_deterministic_eig;
          Alcotest.test_case "extract_columns" `Quick test_extract_columns_deterministic;
          Alcotest.test_case "wavelet and lowrank" `Slow test_sparsify_deterministic;
          Alcotest.test_case "lowrank golden digests" `Quick test_lowrank_golden_digests;
          Alcotest.test_case "batch equals sequential" `Quick test_batch_jobs_equal_results;
        ] );
      ( "counting",
        [ Alcotest.test_case "solve_count exact under concurrency" `Quick test_solve_count_exact ] );
    ]
