(* Tests for the operator abstraction (Subcouple_op) and its persisted
   artifacts: every apply path agrees, batching is bit-identical for every
   jobs value, artifacts round-trip bit-exactly, and torn/corrupt/foreign
   files are rejected with the right typed error. *)

open La
module Blackbox = Substrate.Blackbox
module Layout = Geometry.Layout
module Csr = Sparsemat.Csr
module Op = Subcouple_op
module Artifact = Subcouple_op.Artifact
open Sparsify

let rng = Rng.create 2718

(* A small synthetic representation: random orthogonal Q (from QR) and a
   random symmetric G_w, so Q G_w Q' is exactly representable. *)
let synthetic n =
  let q = (Qr.decomp (Mat.random rng n n)).Qr.q in
  let m = Mat.random rng n n in
  let gw = Mat.add m (Mat.transpose m) in
  Repr.make ~q:(Csr.of_dense q) ~gw:(Csr.of_dense gw) ~solves:5

let vec_bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let batch_bits_equal a b = Array.length a = Array.length b && Array.for_all2 vec_bits_equal a b

(* ------------------------------------------------------------------ *)
(* The operator interface *)

let test_of_dense_matches_gemv () =
  let g = Mat.random rng 9 9 in
  let op = Op.of_dense g in
  Alcotest.(check int) "n" 9 (Op.n op);
  let v = Rng.gaussian_array rng 9 in
  Alcotest.(check bool) "apply = gemv" true (vec_bits_equal (Op.apply op v) (Mat.gemv g v));
  Alcotest.(check int) "storage" 81 (Op.storage_floats op);
  Alcotest.(check int) "no solves" 0 (Op.solves_spent op)

let test_of_dense_rejects_rectangular () =
  Alcotest.(check bool) "rejects 2x3" true
    (try
       ignore (Op.of_dense (Mat.create 2 3));
       false
     with Invalid_argument _ -> true)

let test_all_paths_agree () =
  (* Dense reference, black-box operator, and the Q G_w Q' representation of
     the same matrix agree through one interface. *)
  let r = synthetic 14 in
  let g = Repr.to_dense r in
  let dense_op = Op.of_dense g in
  let bb_op = Blackbox.op (Blackbox.of_dense g) in
  let repr_op = Repr.op r in
  let v = Rng.gaussian_array rng 14 in
  Alcotest.(check bool) "blackbox = dense" true
    (Vec.approx_equal ~tol:1e-12 (Op.apply bb_op v) (Op.apply dense_op v));
  Alcotest.(check bool) "repr = dense" true
    (Vec.approx_equal ~tol:1e-9 (Op.apply repr_op v) (Op.apply dense_op v))

let test_columns_match_dense () =
  let r = synthetic 10 in
  let g = Repr.to_dense r in
  let cols = Op.columns (Repr.op r) [| 0; 3; 9 |] in
  List.iteri
    (fun k j ->
      Alcotest.(check bool)
        (Printf.sprintf "col %d" j)
        true
        (Vec.approx_equal ~tol:1e-10 cols.(k) (Mat.col g j)))
    [ 0; 3; 9 ]

let test_blackbox_op_counts_solves () =
  let g = Mat.identity 6 in
  let bb = Blackbox.of_dense g in
  let op = Blackbox.op bb in
  let before = Op.solves_spent op in
  ignore (Op.apply op (Rng.gaussian_array rng 6));
  ignore (Op.apply op (Rng.gaussian_array rng 6));
  Alcotest.(check int) "live counter" (before + 2) (Op.solves_spent op);
  Alcotest.(check string) "kind" "blackbox" (Op.describe op).Op.kind

let test_fused_batch_matches_apply () =
  (* [Repr.op]'s batches now go through the fused three-sweep CSR kernel;
     every response must stay bit-identical to a per-column [apply] loop,
     across batch widths and jobs. *)
  let r = synthetic 17 in
  let op = Repr.op r in
  List.iter
    (fun width ->
      let vs = Array.init width (fun i -> Rng.gaussian_array (Rng.create (900 + i)) 17) in
      let want = Array.map (Op.apply op) vs in
      List.iter
        (fun jobs ->
          Alcotest.(check bool)
            (Printf.sprintf "width %d, jobs %d" width jobs)
            true
            (batch_bits_equal want (Repr.apply_batch r ~jobs vs)))
        [ 1; 2; 3; 4 ];
      Alcotest.(check bool)
        (Printf.sprintf "op batch, width %d" width)
        true
        (batch_bits_equal want (Op.apply_batch ~jobs:1 op vs)))
    [ 0; 1; 2; 5; 17 ]

let test_jobs_bitwise_identical () =
  let r = synthetic 16 in
  let op = Repr.op r in
  let vs = Array.init 9 (fun i -> Rng.gaussian_array (Rng.create (50 + i)) 16) in
  let seq = Op.apply_batch ~jobs:1 op vs in
  Alcotest.(check bool) "jobs 4 = jobs 1" true (batch_bits_equal seq (Op.apply_batch ~jobs:4 op vs));
  Alcotest.(check bool) "jobs 2 = jobs 1" true (batch_bits_equal seq (Op.apply_batch ~jobs:2 op vs));
  let c1 = Op.columns ~jobs:1 op [| 1; 5; 11 |] in
  let c4 = Op.columns ~jobs:4 op [| 1; 5; 11 |] in
  Alcotest.(check bool) "columns jobs 4 = jobs 1" true (batch_bits_equal c1 c4)

let test_apply_validates_length () =
  let op = Repr.op (synthetic 8) in
  let bad () =
    try
      ignore (Op.apply op (Array.make 7 0.0));
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "wrong length rejected" true (bad ());
  Alcotest.(check bool) "batch with one bad vector rejected" true
    (try
       ignore (Op.apply_batch op [| Array.make 8 0.0; Array.make 9 0.0 |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "column index out of range rejected" true
    (try
       ignore (Op.columns op [| 8 |]);
       false
     with Invalid_argument _ -> true)

let test_map_array_deterministic () =
  let input = Array.init 100 (fun i -> i) in
  let expect = Array.map (fun x -> x * x) input in
  Alcotest.(check (array int)) "jobs 4" expect (Parallel.Pool.map_array ~jobs:4 (fun x -> x * x) input);
  Alcotest.(check (array int)) "jobs 1" expect (Parallel.Pool.map_array ~jobs:1 (fun x -> x * x) input)

(* ------------------------------------------------------------------ *)
(* Artifact round trips *)

let with_temp f =
  let path = Filename.temp_file "test_op" ".sca" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let csr_bits_equal a b =
  let rp_a, ci_a, va = Csr.unpack a in
  let rp_b, ci_b, vb = Csr.unpack b in
  rp_a = rp_b && ci_a = ci_b && vec_bits_equal va vb

let test_roundtrip_bit_identical () =
  let r = synthetic 12 in
  with_temp (fun path ->
      Repr.save r ~kind:"test" ~source:"round trip" ~path;
      let a = Artifact.load ~path in
      Alcotest.(check int) "n" 12 a.Artifact.n;
      Alcotest.(check int) "solves" 5 a.Artifact.solves;
      Alcotest.(check string) "kind" "test" a.Artifact.kind;
      Alcotest.(check string) "source" "round trip" a.Artifact.source;
      Alcotest.(check bool) "Q bit-identical" true (csr_bits_equal r.Repr.q a.Artifact.q);
      Alcotest.(check bool) "G_w bit-identical" true (csr_bits_equal r.Repr.gw a.Artifact.gw);
      (* The loaded operator applies bit-identically for every jobs value. *)
      let loaded = Repr.op (Repr.of_artifact a) in
      let vs = Array.init 6 (fun i -> Rng.gaussian_array (Rng.create (90 + i)) 12) in
      let want = Op.apply_batch ~jobs:1 (Repr.op r) vs in
      List.iter
        (fun jobs ->
          Alcotest.(check bool)
            (Printf.sprintf "jobs %d" jobs)
            true
            (batch_bits_equal want (Op.apply_batch ~jobs loaded vs)))
        [ 1; 2; 4 ])

let test_save_is_atomic_rewrite () =
  (* Saving over an existing artifact leaves a loadable file. *)
  let a = synthetic 6 and b = synthetic 7 in
  with_temp (fun path ->
      Repr.save a ~path;
      Repr.save b ~path;
      Alcotest.(check int) "second write wins" 7 (Artifact.load ~path).Artifact.n)

(* A fixed representation built from literal CSR arrays (signed zero, a
   subnormal and a huge value included), so its bytes depend on the
   artifact format alone. *)
let golden_repr () =
  let q =
    Csr.pack ~rows:3 ~cols:3 ~row_ptr:[| 0; 2; 3; 5 |] ~col_idx:[| 0; 2; 1; 0; 2 |]
      ~values:[| 0.6; -0.8; 1.0; 0.8; 0.6 |]
  in
  let gw =
    Csr.pack ~rows:3 ~cols:3 ~row_ptr:[| 0; 2; 2; 4 |] ~col_idx:[| 0; 2; 0; 2 |]
      ~values:[| 2.5; -0.0; 4.9e-324; 1e300 |]
  in
  Repr.make ~q ~gw ~solves:7

let test_format_pinned () =
  (* A round trip alone would still pass if the writer and the reader
     changed together; the MD5 of the bytes pins the format itself. *)
  with_temp (fun path ->
      Repr.save (golden_repr ()) ~kind:"golden" ~source:"fixed synthetic" ~path;
      Alcotest.(check string) ".sca bytes" "ef6cdaa9177c6c8f65781c51d38def6d"
        (Digest.to_hex (Digest.file path)))

(* ------------------------------------------------------------------ *)
(* Corruption: every failure mode maps to its typed error *)

let check_rejects name path pred =
  match Artifact.load ~path with
  | _ -> Alcotest.fail (name ^ ": corrupt artifact loaded successfully")
  | exception Artifact.Error { error; _ } ->
    Alcotest.(check bool) (name ^ ": " ^ Artifact.error_message error) true (pred error)

let with_corrupted corrupt pred name () =
  with_temp (fun path ->
      Repr.save (synthetic 9) ~path;
      write_file path (corrupt (read_file path));
      check_rejects name path pred)

let test_truncated_header =
  with_corrupted
    (fun s -> String.sub s 0 20)
    (function Artifact.Truncated _ -> true | _ -> false)
    "truncated header"

let test_truncated_payload =
  with_corrupted
    (fun s -> String.sub s 0 (String.length s - 5))
    (function Artifact.Truncated _ -> true | _ -> false)
    "truncated payload"

let test_flipped_byte =
  with_corrupted
    (fun s ->
      let b = Bytes.of_string s in
      Bytes.set b 40 (Char.chr (Char.code (Bytes.get b 40) lxor 0x01));
      Bytes.to_string b)
    (function Artifact.Checksum_mismatch -> true | _ -> false)
    "flipped payload byte"

let test_truncated_magic =
  with_corrupted
    (fun s -> String.sub s 0 3)
    (function Artifact.Truncated _ -> true | _ -> false)
    "truncated magic"

let test_wrong_version =
  with_corrupted
    (fun s -> String.sub s 0 6 ^ "Z9" ^ String.sub s 8 (String.length s - 8))
    (function Artifact.Unsupported_version v -> String.equal v "Z9" | _ -> false)
    "wrong format version"

let test_not_an_artifact =
  with_corrupted
    (fun _ -> "this is not an operator artifact at all")
    (function Artifact.Not_an_artifact _ -> true | _ -> false)
    "foreign file"

let test_empty_file =
  with_corrupted
    (fun _ -> "")
    (function Artifact.Not_an_artifact _ -> true | _ -> false)
    "empty file"

let test_trailing_garbage =
  with_corrupted
    (fun s -> s ^ "xyz")
    (function Artifact.Malformed _ -> true | _ -> false)
    "trailing garbage"

let test_missing_file () =
  check_rejects "missing file" "/nonexistent/g.sca" (function Artifact.Io _ -> true | _ -> false)

(* Re-seal a payload under [raw]'s magic with a correct length and MD5, so
   only the payload's own length checks stand between a hostile count and
   the allocator: MD5 detects damage, not a hostile writer. *)
let reseal raw payload =
  let b = Buffer.create (32 + String.length payload) in
  Buffer.add_string b (String.sub raw 0 8);
  Buffer.add_int64_le b (Int64.of_int (String.length payload));
  Buffer.add_string b (Digest.string payload);
  Buffer.add_string b payload;
  Buffer.contents b

(* The hostile values for the length field at payload offset [off]: 2^62,
   a negative count, one more than the bytes left and, for arrays of
   8-byte elements, one more element than the bytes left hold. *)
let hostile_counts payload ~off ~width =
  let left = String.length payload - off - 8 in
  List.sort_uniq Int64.compare
    [ Int64.shift_left 1L 62; -3L; Int64.of_int (left + 1); Int64.of_int ((left / width) + 1) ]

let test_hostile_inner_counts () =
  let r = golden_repr () in
  with_temp (fun path ->
      Repr.save r ~kind:"golden" ~source:"fixed synthetic" ~path;
      let raw = read_file path in
      let payload = String.sub raw 32 (String.length raw - 32) in
      (* n and solves, then the kind string's length; Q's row_ptr length
         follows the source string and Q's rows and cols. *)
      let kind_len = 16 in
      let row_ptr_len = kind_len + 8 + String.length "golden" + 8 + String.length "fixed synthetic" + 16 in
      Alcotest.(check int64) "kind length field" 6L (String.get_int64_le payload kind_len);
      Alcotest.(check int64) "Q row_ptr length field" 4L (String.get_int64_le payload row_ptr_len);
      List.iter
        (fun (field, off, width) ->
          List.iter
            (fun v ->
              let b = Bytes.of_string payload in
              Bytes.set_int64_le b off v;
              write_file path (reseal raw (Bytes.to_string b));
              check_rejects
                (Printf.sprintf "%s length %Ld" field v)
                path
                (function Artifact.Malformed _ -> true | _ -> false))
            (hostile_counts payload ~off ~width))
        [ ("kind", kind_len, 1); ("Q row_ptr", row_ptr_len, 8) ])

(* ------------------------------------------------------------------ *)
(* Thresholding through the operator interface *)

(* A real extraction on a small layout, so thresholding has a spread of
   magnitudes to work with. *)
let extracted =
  lazy
    (let layout = Layout.regular_grid ~size:128.0 ~per_side:8 ~fill:0.5 () in
     let n = Layout.n_contacts layout in
     let g = Mat.create n n in
     let rng = Rng.create 31 in
     (* Synthetic SPD stand-in for G: diagonally dominant with decaying
        off-diagonal coupling, cheap and deterministic. *)
     for i = 0 to n - 1 do
       for j = 0 to n - 1 do
         if i <> j then Mat.set g i j (-1.0 /. (1.0 +. float_of_int (abs (i - j)) ** 1.5))
       done
     done;
     for i = 0 to n - 1 do
       Mat.set g i i (float_of_int n +. Rng.float rng)
     done;
     (Lowrank.extract layout (Blackbox.of_dense g), g))

let probe_error op g =
  let n = Op.n op in
  let worst = ref 0.0 in
  for i = 0 to 4 do
    let v = Rng.gaussian_array (Rng.create (700 + i)) n in
    let exact = Mat.gemv g v in
    worst := Float.max !worst (Vec.norm2 (Vec.sub (Op.apply op v) exact) /. Vec.norm2 exact)
  done;
  !worst

let test_threshold_monotone_through_op () =
  let repr, g = Lazy.force extracted in
  let targets = [ 1.0; 2.0; 4.0; 8.0 ] in
  let points =
    List.map
      (fun target ->
        let thr = Repr.threshold repr ~target in
        (target, Repr.nnz_gw thr, probe_error (Repr.op thr) g))
      targets
  in
  List.iter
    (fun (t, nnz, err) ->
      Alcotest.(check bool) (Printf.sprintf "err finite at %.0f" t) true (Float.is_finite err);
      Alcotest.(check bool) (Printf.sprintf "nnz positive at %.0f" t) true (nnz > 0))
    points;
  let rec pairs = function
    | (_, nnz_a, _) :: ((_, nnz_b, _) :: _ as rest) ->
      Alcotest.(check bool) "nnz nonincreasing in target" true (nnz_b <= nnz_a);
      pairs rest
    | _ -> ()
  in
  pairs points;
  let _, _, err_first = List.hd points in
  let _, _, err_last = List.nth points (List.length points - 1) in
  Alcotest.(check bool) "error grows from loosest to tightest target" true (err_last >= err_first)

let test_thresholded_op_symmetric () =
  let repr, _ = Lazy.force extracted in
  let thr = Repr.threshold repr ~target:4.0 in
  let d = Repr.to_dense thr in
  let n = Mat.rows d in
  let defect = Repr.orthogonality_defect thr in
  let worst = ref 0.0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      worst := Float.max !worst (Float.abs (Mat.get d i j -. Mat.get d j i))
    done
  done;
  (* G_w stays symmetric under thresholding; any asymmetry of Q G_w Q' is
     bounded by the orthogonality defect of Q times the operator scale. *)
  let tol = 1e-10 +. (100.0 *. (defect +. 1e-14) *. Mat.max_abs d) in
  Alcotest.(check bool)
    (Printf.sprintf "asymmetry %.2e <= %.2e" !worst tol)
    true (!worst <= tol)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "op"
    [
      ( "operator",
        [
          Alcotest.test_case "of_dense = gemv" `Quick test_of_dense_matches_gemv;
          Alcotest.test_case "of_dense validates" `Quick test_of_dense_rejects_rectangular;
          Alcotest.test_case "all paths agree" `Quick test_all_paths_agree;
          Alcotest.test_case "columns" `Quick test_columns_match_dense;
          Alcotest.test_case "blackbox solves_spent live" `Quick test_blackbox_op_counts_solves;
          Alcotest.test_case "fused batch = per-column apply" `Quick test_fused_batch_matches_apply;
          Alcotest.test_case "jobs bitwise identical" `Quick test_jobs_bitwise_identical;
          Alcotest.test_case "validation" `Quick test_apply_validates_length;
          Alcotest.test_case "map_array deterministic" `Quick test_map_array_deterministic;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "round trip bit-identical" `Quick test_roundtrip_bit_identical;
          Alcotest.test_case "save overwrites atomically" `Quick test_save_is_atomic_rewrite;
          Alcotest.test_case "truncated magic" `Quick test_truncated_magic;
          Alcotest.test_case "truncated header" `Quick test_truncated_header;
          Alcotest.test_case "truncated payload" `Quick test_truncated_payload;
          Alcotest.test_case "flipped byte" `Quick test_flipped_byte;
          Alcotest.test_case "wrong version" `Quick test_wrong_version;
          Alcotest.test_case "not an artifact" `Quick test_not_an_artifact;
          Alcotest.test_case "empty file" `Quick test_empty_file;
          Alcotest.test_case "trailing garbage" `Quick test_trailing_garbage;
          Alcotest.test_case "missing file" `Quick test_missing_file;
          Alcotest.test_case "bytes pinned to the format" `Quick test_format_pinned;
          Alcotest.test_case "hostile counts under a valid MD5" `Quick test_hostile_inner_counts;
        ] );
      ( "threshold",
        [
          Alcotest.test_case "monotone through operator" `Quick test_threshold_monotone_through_op;
          Alcotest.test_case "thresholded operator symmetric" `Quick test_thresholded_op_symmetric;
        ] );
    ]
