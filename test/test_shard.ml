(* Tests for sharded crash-safe extraction: the shard plan, the manifest
   container (roundtrip + every corruption mode, mirroring the operator
   artifact tests), the run driver's resume/quarantine/recovery paths, and
   the block-diagonal composition with its health report. The load-bearing
   guarantee throughout: a resumed or recovered run is bit-identical to an
   uninterrupted one, and never repeats a persisted solve. *)

open La
module Blackbox = Substrate.Blackbox
module Chaos = Substrate.Chaos
module Resilient = Substrate.Resilient
module Shard = Substrate.Shard
module Artifact = Subcouple_op.Artifact
module Manifest = Artifact.Manifest
open Sparsify

let rng = Rng.create 271828

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.equal (String.sub s i k) sub || go (i + 1)) in
  go 0

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

(* A random diagonally-dominant dense matrix; of_dense boxes over it solve
   instantly, so the tests exercise the shard machinery, not the solvers. *)
let dense_g n =
  let g = Mat.create n n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Mat.set g i j (Rng.gaussian rng)
    done;
    Mat.set g i i (Mat.get g i i +. 10.0)
  done;
  g

let with_temp_dir f =
  let dir = Filename.temp_file "test_shard" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let with_temp f =
  let path = Filename.temp_file "test_shard" ".scm" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* The shared fixture: one layout, one reference matrix, shards at level 1. *)
let layout = Geometry.Layout.alternating ~size:128.0 ~per_side:8 ()
let n = Geometry.Layout.n_contacts layout
let g = dense_g n
let box () = Blackbox.of_dense g
let shard_level = 1
let the_plan = Shard.plan ~shard_level layout

let to_dense op =
  let k = Subcouple_op.n op in
  let d = Mat.init k k (fun _ _ -> 0.0) in
  for j = 0 to k - 1 do
    let e = Array.make k 0.0 in
    e.(j) <- 1.0;
    Mat.set_col d j (Subcouple_op.apply op e)
  done;
  d

(* ------------------------------------------------------------------ *)
(* The plan *)

let test_plan_partitions () =
  let p = the_plan in
  Alcotest.(check int) "plan dimension" n p.Shard.n;
  Alcotest.(check bool) "more than one shard" true (Array.length p.Shard.shards > 1);
  let seen = Array.make n 0 in
  Array.iteri
    (fun i s ->
      Alcotest.(check int) "ids are positional" i s.Shard.shard_id;
      Alcotest.(check bool) "shard is nonempty" true (Array.length s.Shard.contacts > 0);
      let prev = ref (-1) in
      Array.iter
        (fun c ->
          Alcotest.(check bool) "strictly ascending" true (c > !prev);
          prev := c;
          seen.(c) <- seen.(c) + 1)
        s.Shard.contacts)
    p.Shard.shards;
  Array.iteri
    (fun c k -> Alcotest.(check int) (Printf.sprintf "contact %d claimed once" c) 1 k)
    seen;
  (* Pure function of (layout, level). *)
  let q = Shard.plan ~shard_level layout in
  Alcotest.(check bool) "plan is deterministic" true (p = q)

let test_restricted_box_is_principal_submatrix () =
  let s = the_plan.Shard.shards.(0) in
  let contacts = s.Shard.contacts in
  let k = Array.length contacts in
  let restricted = Shard.restricted_box ~contacts (box ()) in
  let sub = Blackbox.extract_dense restricted in
  let expected = Mat.select g ~row_idx:contacts ~col_idx:contacts in
  Alcotest.(check int) "dimension" k (Mat.rows sub);
  Alcotest.(check bool) "G(C_s, C_s) exactly" true (bitwise_equal_mat expected sub)

(* ------------------------------------------------------------------ *)
(* Manifest container: roundtrip *)

let sample_manifest () =
  {
    Manifest.n = 7;
    total_shards = 3;
    geometry_digest = Digest.string "geometry";
    source = "test manifest";
    entries =
      [|
        {
          Manifest.shard_id = 0;
          level = 1;
          ix = 0;
          iy = 1;
          contacts = [| 0; 2; 4 |];
          file = "shard-0000.sca";
          file_digest = Digest.string "shard zero";
          solves = 12;
          status = Manifest.Complete;
        };
        {
          Manifest.shard_id = 2;
          level = 1;
          ix = 1;
          iy = 1;
          contacts = [| 3; 6 |];
          file = "";
          file_digest = "";
          solves = 0;
          status = Manifest.Quarantined "solve 14: nan response";
        };
      |];
  }

let test_manifest_roundtrip () =
  with_temp (fun path ->
      let m = sample_manifest () in
      Manifest.save ~path m;
      let l = Manifest.load ~path in
      Alcotest.(check bool) "roundtrip is exact" true (m = l);
      Alcotest.(check int) "one complete" 1 (List.length (Manifest.complete l));
      Alcotest.(check int) "one quarantined" 1 (List.length (Manifest.quarantined l)))

let test_load_any_dispatch () =
  with_temp (fun path ->
      Manifest.save ~path (sample_manifest ());
      (match Artifact.load_any ~path with
      | `Manifest m -> Alcotest.(check int) "manifest dimension" 7 m.Manifest.n
      | `Operator _ -> Alcotest.fail "manifest dispatched as operator");
      Repr.save (Lowrank.extract layout (box ())) ~path;
      (match Artifact.load_any ~path with
      | `Operator p -> Alcotest.(check int) "operator dimension" n p.Artifact.n
      | `Manifest _ -> Alcotest.fail "operator dispatched as manifest");
      (* The manifest loader names the cross-family mistake precisely. *)
      match Manifest.load ~path with
      | _ -> Alcotest.fail "operator artifact loaded as manifest"
      | exception Artifact.Error { error = Artifact.Not_an_artifact _; _ } -> ())

(* ------------------------------------------------------------------ *)
(* Manifest container: every corruption mode maps to its typed error,
   mirroring the operator-artifact corruption tests in test_op.ml. *)

let check_rejects name path pred =
  match Manifest.load ~path with
  | _ -> Alcotest.fail (name ^ ": corrupt manifest loaded successfully")
  | exception Artifact.Error { error; _ } ->
    Alcotest.(check bool) (name ^ ": " ^ Artifact.error_message error) true (pred error)

let with_corrupted corrupt pred name () =
  with_temp (fun path ->
      Manifest.save ~path (sample_manifest ());
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

let test_wrong_version =
  with_corrupted
    (fun s -> String.sub s 0 6 ^ "Z9" ^ String.sub s 8 (String.length s - 8))
    (function Artifact.Unsupported_version v -> String.equal v "Z9" | _ -> false)
    "wrong format version"

let test_not_a_manifest =
  with_corrupted
    (fun _ -> "this is not a shard manifest at all")
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
  check_rejects "missing file" "/nonexistent/manifest.scm"
    (function Artifact.Io _ -> true | _ -> false)

let test_format_pinned () =
  (* A round trip alone would still pass if the writer and the reader
     changed together; the MD5 of the bytes pins the format itself. *)
  with_temp (fun path ->
      Manifest.save ~path (sample_manifest ());
      Alcotest.(check string) ".scm bytes" "dac73f8a7fffd7a518a8e91dfc933d4b"
        (Digest.to_hex (Digest.file path)))

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
  with_temp (fun path ->
      let m = sample_manifest () in
      Manifest.save ~path m;
      let raw = read_file path in
      let payload = String.sub raw 32 (String.length raw - 32) in
      (* n and total_shards, then the geometry digest's length; the entry
         count follows the source string, and the first entry's contacts
         length follows its id, level, ix and iy. *)
      let digest_len = 16 in
      let entry_count = digest_len + 8 + 16 + 8 + String.length m.Manifest.source in
      let contacts_len = entry_count + 8 + 32 in
      Alcotest.(check int64) "digest length field" 16L (String.get_int64_le payload digest_len);
      Alcotest.(check int64) "entry count field" 2L (String.get_int64_le payload entry_count);
      Alcotest.(check int64) "contacts length field" 3L (String.get_int64_le payload contacts_len);
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
        [
          ("geometry digest", digest_len, 1);
          ("entry count", entry_count, 1);
          ("contacts", contacts_len, 8);
        ])

let test_overlapping_contacts_rejected () =
  (* Semantic validation beyond the container: two shards claiming the same
     contact are refused even though the frame checksum is intact. *)
  with_temp (fun path ->
      let m = sample_manifest () in
      let e = m.Manifest.entries.(1) in
      let m =
        { m with Manifest.entries = [| m.Manifest.entries.(0); { e with contacts = [| 2; 6 |] } |] }
      in
      match Manifest.save ~path m with
      | _ -> Alcotest.fail "overlapping shards saved successfully"
      | exception Artifact.Error { error = Artifact.Malformed _; _ } -> ())

(* ------------------------------------------------------------------ *)
(* End-to-end sharded extraction and composition *)

let extract_into dir =
  Sharded.extract ~method_:`Lowrank ~shard_level ~dir layout (box ())

let test_sharded_extract_completes () =
  with_temp_dir (fun dir ->
      let m, prog = extract_into dir in
      let total = Array.length the_plan.Shard.shards in
      Alcotest.(check int) "all shards planned" total prog.Shard.planned;
      Alcotest.(check int) "all shards extracted" total prog.Shard.extracted;
      Alcotest.(check int) "nothing skipped" 0 prog.Shard.skipped;
      Alcotest.(check int) "nothing quarantined" 0 prog.Shard.quarantined;
      Alcotest.(check int) "fresh run has no cached solves" 0 prog.Shard.cached_solves;
      Alcotest.(check int) "live solves account for everything" prog.Shard.total_solves
        prog.Shard.live_solves;
      Alcotest.(check bool) "manifest persisted" true (Sys.file_exists (Shard.manifest_path dir));
      Array.iter
        (fun (e : Manifest.entry) ->
          Alcotest.(check bool) "entry complete" true (Manifest.is_complete e);
          Alcotest.(check bool) "shard artifact persisted" true
            (Sys.file_exists (Filename.concat dir e.Manifest.file));
          Alcotest.(check bool) "checkpoint cleaned up" true
            (not (Sys.file_exists (Filename.concat dir (Shard.checkpoint_basename e.Manifest.shard_id)))))
        m.Manifest.entries;
      let op, health = Subcouple_op.of_manifest ~dir m in
      (match health with
      | Subcouple_op.Full -> ()
      | Subcouple_op.Degraded _ -> Alcotest.fail "complete manifest reported degraded");
      (* The composition is exactly the block-diagonal of standalone
         per-shard extractions: same method, same sub-layout, same
         restricted box — the shard machinery must not change the math. *)
      let expected = Mat.init n n (fun _ _ -> 0.0) in
      Array.iter
        (fun s ->
          let contacts = s.Shard.contacts in
          let sub_layout =
            Geometry.Layout.restrict layout ~ids:contacts ~name:"reference shard"
          in
          let block =
            Repr.to_dense
              (Lowrank.extract sub_layout (Shard.restricted_box ~contacts (box ())))
          in
          Array.iteri
            (fun bi i ->
              Array.iteri (fun bj j -> Mat.set expected i j (Mat.get block bi bj)) contacts)
            contacts)
        the_plan.Shard.shards;
      Alcotest.(check bool) "composition = block-diagonal of per-shard extractions" true
        (bitwise_equal_mat expected (to_dense op)))

exception Boom

let test_resume_skips_complete_shards () =
  with_temp_dir (fun ref_dir ->
      let ref_m, ref_prog = extract_into ref_dir in
      let ref_op, _ = Subcouple_op.of_manifest ~dir:ref_dir ref_m in
      let ref_dense = to_dense ref_op in
      with_temp_dir (fun dir ->
          (* Crash between shards: the driver's extract closure dies before
             shard [crash_at] runs. Everything already finished must be on
             disk and skipped by the resume. *)
          let total = Array.length the_plan.Shard.shards in
          let crash_at = total - 1 in
          (match
             Shard.run ~dir
               ~extract:(fun ~shard ~first_index ~checkpoint ->
                 if shard.Shard.shard_id = crash_at then raise Boom;
                 Sharded.extract_one ~method_:`Lowrank ~jobs:1
                   ~policy:Resilient.default_policy ~fallbacks:[] ~source:"test" ~layout
                   ~box:(box ()) ~shard ~first_index ~checkpoint)
               the_plan
           with
          | _ -> Alcotest.fail "expected the crash run to die"
          | exception Boom -> ());
          let m, prog = extract_into dir in
          Alcotest.(check int) "crashed shards extracted on resume" (total - crash_at)
            prog.Shard.extracted;
          Alcotest.(check int) "finished shards skipped" crash_at prog.Shard.skipped;
          Alcotest.(check int) "no shard lost" total (Array.length m.Manifest.entries);
          Alcotest.(check int) "skipped solves served from cache"
            (prog.Shard.total_solves - prog.Shard.live_solves)
            prog.Shard.cached_solves;
          Alcotest.(check int) "same total solve budget as uninterrupted"
            ref_prog.Shard.total_solves prog.Shard.total_solves;
          let op, _ = Subcouple_op.of_manifest ~dir m in
          Alcotest.(check bool) "resume is bit-identical to uninterrupted" true
            (bitwise_equal_mat ref_dense (to_dense op))))

let test_noop_resume_on_eigsolver () =
  (* On the real eigenfunction solver: resuming a complete run is pure
     bookkeeping — every shard skipped, the solver never called, and the
     composed operator bit-identical. *)
  let eig () =
    Eigsolver.Eig_solver.blackbox
      (Eigsolver.Eig_solver.create (Substrate.Profile.thesis_default ~size:128.0 ()) layout
         ~panels_per_side:64)
  in
  with_temp_dir (fun dir ->
      let m, fresh = Sharded.extract ~method_:`Lowrank ~shard_level ~dir layout (eig ()) in
      Alcotest.(check bool) "fresh run solved" true (fresh.Shard.live_solves > 0);
      let fresh_dense = to_dense (fst (Subcouple_op.of_manifest ~dir m)) in
      let box = eig () in
      let m2, resumed = Sharded.extract ~method_:`Lowrank ~shard_level ~dir layout box in
      Alcotest.(check int) "every shard skipped" fresh.Shard.planned resumed.Shard.skipped;
      Alcotest.(check int) "no shard extracted" 0 resumed.Shard.extracted;
      Alcotest.(check int) "no live solve" 0 resumed.Shard.live_solves;
      Alcotest.(check int) "solver never called" 0 (Blackbox.solve_count box);
      Alcotest.(check int) "same solve total" fresh.Shard.total_solves resumed.Shard.total_solves;
      Alcotest.(check bool) "composes bit-identically" true
        (bitwise_equal_mat fresh_dense (to_dense (fst (Subcouple_op.of_manifest ~dir m2)))))

let test_resume_replays_checkpoint_mid_shard () =
  with_temp_dir (fun ref_dir ->
      let ref_m, ref_prog = extract_into ref_dir in
      let ref_op, _ = Subcouple_op.of_manifest ~dir:ref_dir ref_m in
      let ref_dense = to_dense ref_op in
      with_temp_dir (fun dir ->
          (* Crash inside shard 0, after some of its stages have persisted:
             a fuse on the inner box dies one solve short of finishing the
             shard, past every checkpointed batch but the last. *)
          let shard0_solves =
            (List.hd (Manifest.complete ref_m)).Manifest.solves
          in
          Alcotest.(check bool) "shard 0 is big enough to interrupt" true (shard0_solves > 2);
          let fuse = ref (shard0_solves - 1) in
          let exploding =
            let inner = box () in
            Blackbox.make_batch ~count_total:false ~n
              ~batch:(fun ~jobs:_ vs ->
                Array.map
                  (fun v ->
                    decr fuse;
                    if !fuse < 0 then raise Boom;
                    Blackbox.apply inner v)
                  vs)
              (fun v ->
                decr fuse;
                if !fuse < 0 then raise Boom;
                Blackbox.apply inner v)
          in
          (match
             Shard.run ~dir
               ~extract:(fun ~shard ~first_index ~checkpoint ->
                 Sharded.extract_one ~method_:`Lowrank ~jobs:1
                   ~policy:Resilient.default_policy ~fallbacks:[] ~source:"test" ~layout
                   ~box:exploding ~shard ~first_index ~checkpoint)
               the_plan
           with
          | _ -> Alcotest.fail "expected the fused run to die"
          | exception Boom -> ());
          Alcotest.(check bool) "interrupted shard left its checkpoint" true
            (Sys.file_exists (Filename.concat dir (Shard.checkpoint_basename 0)));
          let m, prog = extract_into dir in
          Alcotest.(check bool) "checkpointed stages were replayed, not re-solved" true
            (prog.Shard.cached_solves > 0);
          Alcotest.(check int) "cached + live = total"
            prog.Shard.total_solves
            (prog.Shard.cached_solves + prog.Shard.live_solves);
          Alcotest.(check int) "same total solve budget as uninterrupted"
            ref_prog.Shard.total_solves prog.Shard.total_solves;
          Alcotest.(check bool) "checkpoint dropped once the artifact superseded it" true
            (not (Sys.file_exists (Filename.concat dir (Shard.checkpoint_basename 0))));
          let op, _ = Subcouple_op.of_manifest ~dir m in
          Alcotest.(check bool) "mid-shard resume is bit-identical" true
            (bitwise_equal_mat ref_dense (to_dense op))))

let test_quarantine_and_degraded_compose () =
  with_temp_dir (fun ref_dir ->
      let ref_m, _ = extract_into ref_dir in
      let ref_op, _ = Subcouple_op.of_manifest ~dir:ref_dir ref_m in
      with_temp_dir (fun dir ->
          (* A persistent hard fault pinned (by run-global index) to the
             last shard's first solve; fail-fast, no ladder: the shard is
             quarantined, the run completes. *)
          let total = Array.length the_plan.Shard.shards in
          let last = total - 1 in
          let faulted_first =
            List.fold_left
              (fun acc (e : Manifest.entry) -> if e.shard_id < last then acc + e.solves else acc)
              0
              (Manifest.complete ref_m)
          in
          let chaos =
            Chaos.create ~offset:faulted_first ~every:1_000_000 ~fault:Chaos.Nan_response (box ())
          in
          let m, prog =
            Sharded.extract ~policy:Resilient.fail_fast ~method_:`Lowrank ~shard_level ~dir
              layout (Chaos.box chaos)
          in
          Alcotest.(check int) "one shard quarantined" 1 prog.Shard.quarantined;
          Alcotest.(check int) "the rest completed" (total - 1) prog.Shard.extracted;
          let q =
            match Manifest.quarantined m with
            | [ e ] -> e
            | _ -> Alcotest.fail "expected exactly one quarantined entry"
          in
          Alcotest.(check int) "the faulted shard" last q.Manifest.shard_id;
          let reason =
            match q.Manifest.status with
            | Manifest.Quarantined r -> r
            | Manifest.Complete -> Alcotest.fail "quarantined entry marked complete"
          in
          Alcotest.(check bool) "reason names the solve index" true
            (contains reason (Printf.sprintf "solve %d" faulted_first));
          let op, health = Subcouple_op.of_manifest ~dir m in
          let masked =
            match health with
            | Subcouple_op.Degraded { quarantined = [ (id, _) ]; pending = 0; masked_contacts } ->
              Alcotest.(check int) "health names the shard" last id;
              masked_contacts
            | _ -> Alcotest.fail "expected a degraded report naming one shard"
          in
          Alcotest.(check bool) "masked contacts are the shard's" true
            (masked = the_plan.Shard.shards.(last).Shard.contacts);
          (* Unmasked rows bit-identical to the full composition; masked
             rows answer zero. *)
          let is_masked = Array.make n false in
          Array.iter (fun c -> is_masked.(c) <- true) masked;
          let v = Rng.gaussian_array rng n in
          let full = Subcouple_op.apply ref_op v in
          let deg = Subcouple_op.apply op v in
          Array.iteri
            (fun i fi ->
              if is_masked.(i) then
                Alcotest.(check (float 0.0)) (Printf.sprintf "masked row %d is zero" i) 0.0 deg.(i)
              else
                Alcotest.(check bool) (Printf.sprintf "row %d bit-identical" i) true
                  (Int64.equal (Int64.bits_of_float fi) (Int64.bits_of_float deg.(i))))
            full;
          (* A clean resume retries the quarantined shard and converges to
             the uninterrupted result. *)
          let m2, prog2 = extract_into dir in
          Alcotest.(check int) "quarantined shard retried" 1 prog2.Shard.extracted;
          Alcotest.(check int) "nothing quarantined after retry" 0 prog2.Shard.quarantined;
          let op2, health2 = Subcouple_op.of_manifest ~dir m2 in
          (match health2 with
          | Subcouple_op.Full -> ()
          | Subcouple_op.Degraded _ -> Alcotest.fail "retried manifest still degraded");
          Alcotest.(check bool) "retried composition is bit-identical" true
            (bitwise_equal_mat (to_dense ref_op) (to_dense op2))))

let test_torn_shard_artifact_reextracted () =
  with_temp_dir (fun dir ->
      let m1, _ = extract_into dir in
      let op1, _ = Subcouple_op.of_manifest ~dir m1 in
      let d1 = to_dense op1 in
      let victim = Filename.concat dir (Shard.shard_basename 0) in
      let bytes = read_file victim in
      write_file victim (String.sub bytes 0 (String.length bytes / 2));
      (* The digest pin catches the torn file; only that shard re-runs. *)
      let m2, prog = extract_into dir in
      Alcotest.(check int) "torn shard re-extracted" 1 prog.Shard.extracted;
      Alcotest.(check int) "others skipped" (prog.Shard.planned - 1) prog.Shard.skipped;
      let op2, _ = Subcouple_op.of_manifest ~dir m2 in
      Alcotest.(check bool) "re-extraction is bit-identical" true
        (bitwise_equal_mat d1 (to_dense op2)))

let test_torn_manifest_recovered_by_scan () =
  with_temp_dir (fun dir ->
      let m1, _ = extract_into dir in
      let op1, _ = Subcouple_op.of_manifest ~dir m1 in
      let d1 = to_dense op1 in
      let path = Shard.manifest_path dir in
      let bytes = read_file path in
      write_file path (String.sub bytes 0 (String.length bytes / 2));
      let m2, prog = extract_into dir in
      Alcotest.(check int) "every shard recovered from its artifact" prog.Shard.planned
        prog.Shard.recovered;
      Alcotest.(check int) "recovered shards skipped, not re-run" prog.Shard.planned
        prog.Shard.skipped;
      Alcotest.(check int) "no solver work at all" 0 prog.Shard.live_solves;
      let op2, _ = Subcouple_op.of_manifest ~dir m2 in
      Alcotest.(check bool) "recovered composition is bit-identical" true
        (bitwise_equal_mat d1 (to_dense op2)))

let test_mismatched_plan_refused () =
  with_temp_dir (fun dir ->
      let _ = extract_into dir in
      (* Different shard level: a different plan shape. *)
      (match Sharded.extract ~method_:`Lowrank ~shard_level:2 ~dir layout (box ()) with
      | _ -> Alcotest.fail "level-2 resume over a level-1 manifest succeeded"
      | exception Shard.Mismatch _ -> ());
      (* Same contact count, different geometry: the digest catches it. *)
      let other = Geometry.Layout.alternating ~size:64.0 ~per_side:8 () in
      match Sharded.extract ~method_:`Lowrank ~shard_level ~dir other (Blackbox.of_dense g) with
      | _ -> Alcotest.fail "resume over a different layout succeeded"
      | exception Shard.Mismatch _ -> ())

(* ------------------------------------------------------------------ *)
(* Kill schedule *)

let test_kill_schedule_deterministic () =
  let a = Chaos.kill_schedule ~seed:42 ~points:5 ~max_index:100 in
  let b = Chaos.kill_schedule ~seed:42 ~points:5 ~max_index:100 in
  Alcotest.(check bool) "pure function of the seed" true (a = b);
  Alcotest.(check int) "requested points" 5 (Array.length a);
  Array.iteri
    (fun i x ->
      Alcotest.(check bool) "in range" true (x >= 0 && x < 100);
      if i > 0 then Alcotest.(check bool) "sorted, distinct" true (x > a.(i - 1)))
    a;
  let c = Chaos.kill_schedule ~seed:43 ~points:5 ~max_index:100 in
  Alcotest.(check bool) "different seed differs" false (a = c)

let () =
  Alcotest.run "shard"
    [
      ( "plan",
        [
          Alcotest.test_case "partitions the contacts" `Quick test_plan_partitions;
          Alcotest.test_case "restricted box is the principal submatrix" `Quick
            test_restricted_box_is_principal_submatrix;
        ] );
      ( "manifest",
        [
          Alcotest.test_case "roundtrip" `Quick test_manifest_roundtrip;
          Alcotest.test_case "load_any dispatches on family" `Quick test_load_any_dispatch;
          Alcotest.test_case "truncated header" `Quick test_truncated_header;
          Alcotest.test_case "truncated payload" `Quick test_truncated_payload;
          Alcotest.test_case "flipped payload byte" `Quick test_flipped_byte;
          Alcotest.test_case "wrong format version" `Quick test_wrong_version;
          Alcotest.test_case "foreign file" `Quick test_not_a_manifest;
          Alcotest.test_case "empty file" `Quick test_empty_file;
          Alcotest.test_case "trailing garbage" `Quick test_trailing_garbage;
          Alcotest.test_case "missing file" `Quick test_missing_file;
          Alcotest.test_case "bytes pinned to the format" `Quick test_format_pinned;
          Alcotest.test_case "hostile counts under a valid MD5" `Quick test_hostile_inner_counts;
          Alcotest.test_case "overlapping shards rejected" `Quick
            test_overlapping_contacts_rejected;
        ] );
      ( "extract and resume",
        [
          Alcotest.test_case "fresh run completes and composes" `Quick
            test_sharded_extract_completes;
          Alcotest.test_case "resume skips complete shards" `Quick
            test_resume_skips_complete_shards;
          Alcotest.test_case "no-op resume on eigsolver repeats no solve" `Quick
            test_noop_resume_on_eigsolver;
          Alcotest.test_case "resume replays a mid-shard checkpoint" `Quick
            test_resume_replays_checkpoint_mid_shard;
          Alcotest.test_case "quarantine, degraded compose, retry" `Quick
            test_quarantine_and_degraded_compose;
          Alcotest.test_case "torn shard artifact re-extracted" `Quick
            test_torn_shard_artifact_reextracted;
          Alcotest.test_case "torn manifest recovered by scan" `Quick
            test_torn_manifest_recovered_by_scan;
          Alcotest.test_case "mismatched plan refused" `Quick test_mismatched_plan_refused;
        ] );
      ( "kill schedule",
        [
          Alcotest.test_case "deterministic, sorted, in range" `Quick
            test_kill_schedule_deterministic;
        ] );
    ]
