(* Tests for the solver-diagnostic bugfixes and the lib/trace subsystem.

   Regression side: the non-finite reporter must never crash on a clean
   vector, Krylov.cg must report the *true* residual after breakdown or
   max-iteration exit, and Checkpoint.create must refuse to clobber a short
   non-checkpoint file.

   Tracing side: span nesting, per-domain merge determinism, the
   disabled-mode no-op and its cost budget, Chrome trace_event JSON
   validity, and the load-bearing guarantee that tracing never changes
   extraction results. *)

open La
module Blackbox = Substrate.Blackbox
module Checkpoint = Substrate.Checkpoint
open Sparsify

let rng = Rng.create 271828

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

let dense_g n =
  let g = Mat.create n n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Mat.set g i j (Rng.gaussian rng)
    done;
    Mat.set g i i (Mat.get g i i +. 10.0)
  done;
  g

let contains_substring ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

(* Run [f] with tracing enabled and a clean slate, then always disable and
   clear again so no state leaks into the next test. *)
let with_tracing f =
  Trace.reset ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Bugfix: Blackbox.non_finite_reason on an all-finite vector *)

let test_non_finite_reason_all_finite () =
  (* The not-found scan used to index v.(-1): the diagnostic itself raised
     Invalid_argument and masked the real failure. *)
  let reason = Blackbox.non_finite_reason [| 1.0; -2.5; 0.0 |] in
  Alcotest.(check bool)
    "names the clean re-scan" true
    (contains_substring ~sub:"all 3 components finite" reason)

let test_non_finite_reason_names_component () =
  let reason = Blackbox.non_finite_reason [| 1.0; 2.0; Float.nan; 4.0 |] in
  Alcotest.(check bool)
    "names the bad component" true
    (contains_substring ~sub:"component 2" reason)

(* ------------------------------------------------------------------ *)
(* Bugfix: Krylov.cg residual semantics *)

let true_residual ~apply b (r : Krylov.result) = Vec.norm2 (Vec.sub b (apply r.Krylov.x))

let mismatch_expected ~recurrence ~true_norm =
  true_norm > 10.0 *. recurrence || recurrence > 10.0 *. true_norm

(* Near-singular SPD operator: a Hilbert matrix. With an unreachable
   tolerance the iteration exits at max_iter, where the recurrence value
   can no longer be trusted. *)
let test_cg_max_iter_reports_true_residual () =
  let n = 12 in
  let h = Mat.create n n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Mat.set h i j (1.0 /. float_of_int (i + j + 1))
    done
  done;
  let apply v = Mat.gemv h v in
  let b = Array.make n 1.0 in
  let r = Krylov.cg ~tol:1e-30 ~max_iter:25 ~apply b in
  Alcotest.(check bool) "did not converge" false r.Krylov.converged;
  let tr = true_residual ~apply b r in
  Alcotest.(check bool)
    "residual_norm is the recomputed true residual" true
    (Int64.equal (Int64.bits_of_float r.Krylov.residual_norm) (Int64.bits_of_float tr));
  Alcotest.(check bool)
    "mismatch flag follows the 10x rule" true
    (Bool.equal r.Krylov.residual_mismatch
       (mismatch_expected ~recurrence:r.Krylov.recurrence_residual ~true_norm:tr))

let test_cg_breakdown_reports_true_residual () =
  (* Indefinite diagonal: p' A p = 0 on the very first direction. *)
  let apply v = [| v.(0); -.v.(1) |] in
  let b = [| 1.0; 1.0 |] in
  let r = Krylov.cg ~tol:1e-12 ~apply b in
  Alcotest.(check bool) "breakdown flagged" true r.Krylov.breakdown;
  let tr = true_residual ~apply b r in
  Alcotest.(check bool)
    "residual_norm is the recomputed true residual" true
    (Int64.equal (Int64.bits_of_float r.Krylov.residual_norm) (Int64.bits_of_float tr));
  (* ||b - A x|| = ||b|| here, far above tol * ||b||: the relaxed
     breakdown acceptance must judge the true residual and reject. *)
  Alcotest.(check bool) "not accepted at relaxed threshold" false r.Krylov.converged

let test_cg_converged_keeps_recurrence_residual () =
  (* Symmetric diagonally dominant, hence SPD — CG converges cleanly. *)
  let n = 8 in
  let g = Mat.create n n in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      let x = if i = j then 10.0 else Rng.gaussian rng in
      Mat.set g i j x;
      Mat.set g j i x
    done
  done;
  let apply v = Mat.gemv g v in
  let b = Array.init 8 (fun i -> float_of_int (i + 1)) in
  let r = Krylov.cg ~tol:1e-10 ~apply b in
  Alcotest.(check bool) "converged" true r.Krylov.converged;
  Alcotest.(check bool)
    "recurrence residual is reported unchanged" true
    (Int64.equal
       (Int64.bits_of_float r.Krylov.residual_norm)
       (Int64.bits_of_float r.Krylov.recurrence_residual));
  Alcotest.(check bool) "no mismatch on the happy path" false r.Krylov.residual_mismatch

(* ------------------------------------------------------------------ *)
(* Bugfix: Checkpoint.create must not clobber short non-checkpoint files *)

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_checkpoint_refuses_short_file () =
  let path = Filename.temp_file "subckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path "hello";
      (* 5 bytes, shorter than the 9-byte magic: used to be treated as a
         fresh checkpoint and truncated away. *)
      (match Checkpoint.create path with
      | ck ->
        Checkpoint.close ck;
        Alcotest.fail "expected Corrupt for a 5-byte non-checkpoint file"
      | exception Checkpoint.Corrupt _ -> ());
      Alcotest.(check string) "file left untouched" "hello" (read_file path))

let test_checkpoint_accepts_empty_file () =
  let path = Filename.temp_file "subckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path "";
      let ck = Checkpoint.create path in
      Checkpoint.close ck;
      Alcotest.(check int) "no stages" 0 (Checkpoint.stages_on_disk ck);
      Alcotest.(check bool)
        "magic written" true
        (String.length (read_file path) >= 9))

let test_checkpoint_still_rejects_bad_magic () =
  let path = Filename.temp_file "subckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path "NOTACKPTFILE-0123456789";
      (match Checkpoint.create path with
      | ck ->
        Checkpoint.close ck;
        Alcotest.fail "expected Corrupt for a bad-magic file"
      | exception Checkpoint.Corrupt _ -> ());
      Alcotest.(check string) "file left untouched" "NOTACKPTFILE-0123456789" (read_file path))

(* ------------------------------------------------------------------ *)
(* Tracing: span nesting *)

let test_span_nesting () =
  with_tracing (fun () ->
      Trace.with_span "outer" (fun () ->
          Trace.with_span "inner" (fun () -> ignore (Sys.opaque_identity 42)));
      let evs = Trace.events () in
      let find name = List.find (fun (e : Trace.event) -> String.equal e.Trace.name name) evs in
      let outer = find "outer" and inner = find "inner" in
      Alcotest.(check int) "outer depth" 0 outer.Trace.depth;
      Alcotest.(check int) "inner depth" 1 inner.Trace.depth;
      Alcotest.(check bool)
        "inner starts at/after outer" true
        (Int64.compare inner.Trace.t0_ns outer.Trace.t0_ns >= 0);
      Alcotest.(check bool)
        "inner ends at/before outer" true
        (Int64.compare
           (Int64.add inner.Trace.t0_ns inner.Trace.dur_ns)
           (Int64.add outer.Trace.t0_ns outer.Trace.dur_ns)
        <= 0))

let test_span_survives_exception () =
  with_tracing (fun () ->
      (try Trace.with_span "raising" (fun () -> failwith "boom") with Failure _ -> ());
      let evs = Trace.events () in
      Alcotest.(check int) "span recorded on the exceptional exit" 1 (List.length evs);
      (* Depth restored: a following span sits at depth 0 again. *)
      Trace.with_span "after" Fun.id;
      let after =
        List.find (fun (e : Trace.event) -> String.equal e.Trace.name "after") (Trace.events ())
      in
      Alcotest.(check int) "depth restored after exception" 0 after.Trace.depth)

(* ------------------------------------------------------------------ *)
(* Tracing: per-domain recording and merge determinism *)

let test_multi_domain_merge () =
  with_tracing (fun () ->
      let spans_per_domain = 20 in
      let dist = Trace.dist "test.value" in
      let body i () =
        for k = 0 to spans_per_domain - 1 do
          Trace.with_span "test.work" (fun () -> Trace.observe dist (float_of_int (i + k)))
        done
      in
      let domains = Array.init 4 (fun i -> Domain.spawn (body i)) in
      Array.iter Domain.join domains;
      let s = Trace.summary () in
      let span_row = List.find (fun a -> String.equal a.Trace.agg_name "test.work") s.Trace.spans in
      let dist_row = List.find (fun a -> String.equal a.Trace.agg_name "test.value") s.Trace.dists in
      Alcotest.(check int) "every span merged" (4 * spans_per_domain) span_row.Trace.count;
      Alcotest.(check int) "every sample merged" (4 * spans_per_domain) dist_row.Trace.count;
      (* The sample sum is schedule-independent: sum over i,k of (i+k). *)
      let expected = ref 0.0 in
      for i = 0 to 3 do
        for k = 0 to spans_per_domain - 1 do
          expected := !expected +. float_of_int (i + k)
        done
      done;
      Alcotest.(check (float 1e-9)) "deterministic sample total" !expected dist_row.Trace.total;
      (* Events carry at least two distinct recording domains (the spawned
         domains all traced into their own buffers). *)
      let domains_seen =
        List.sort_uniq Int.compare
          (List.map (fun (e : Trace.event) -> e.Trace.domain) (Trace.events ()))
      in
      Alcotest.(check bool) "several recording domains" true (List.length domains_seen >= 2))

let test_summary_sorted_and_repeatable () =
  with_tracing (fun () ->
      Trace.with_span "b.span" Fun.id;
      Trace.with_span "a.span" Fun.id;
      Trace.with_span "a.span" Fun.id;
      let s1 = Trace.summary () in
      let s2 = Trace.summary () in
      let names s = List.map (fun a -> a.Trace.agg_name) s.Trace.spans in
      Alcotest.(check (list string)) "name-sorted" [ "a.span"; "b.span" ] (names s1);
      Alcotest.(check (list string)) "repeatable" (names s1) (names s2);
      let counts s = List.map (fun a -> a.Trace.count) s.Trace.spans in
      Alcotest.(check (list int)) "counts" [ 2; 1 ] (counts s1))

(* ------------------------------------------------------------------ *)
(* Tracing: disabled mode is a no-op *)

let test_disabled_mode_records_nothing () =
  Trace.reset ();
  Trace.set_enabled false;
  let c = Trace.counter "test.disabled_counter" in
  let d = Trace.dist "test.disabled_dist" in
  Trace.with_span "test.disabled_span" (fun () ->
      Trace.incr c;
      Trace.observe d 1.0);
  Alcotest.(check int) "no events recorded" 0 (Trace.event_count ());
  let s = Trace.summary () in
  Alcotest.(check int) "no span rows" 0 (List.length s.Trace.spans);
  Alcotest.(check int) "no dist rows" 0 (List.length s.Trace.dists);
  Alcotest.(check int)
    "counter untouched" 0
    (List.assoc "test.disabled_counter" s.Trace.counters)

let test_disabled_mode_preserves_results () =
  (* The with_span wrapper must be semantically invisible either way. *)
  let f () = 1 + 2 in
  Trace.set_enabled false;
  let off = Trace.with_span "x" f in
  with_tracing (fun () ->
      let on = Trace.with_span "x" f in
      Alcotest.(check int) "same result" off on)

(* ------------------------------------------------------------------ *)
(* Tracing: Chrome trace_event JSON validity *)

(* A tiny recursive-descent JSON parser — enough to validate structure
   without adding a JSON dependency. *)
type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let pos = ref 0 in
  let len = String.length s in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail_at msg = raise (Bad_json (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when Char.equal c c' -> advance ()
    | _ -> fail_at (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    String.iter expect word;
    value
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail_at "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some 'n' -> Buffer.add_char b '\n'
        | Some 't' -> Buffer.add_char b '\t'
        | Some 'r' -> Buffer.add_char b '\r'
        | Some 'u' ->
          (* skip the 4 hex digits; codepoint fidelity is not under test *)
          advance ();
          advance ();
          advance ();
          advance ()
        | Some c -> Buffer.add_char b c
        | None -> fail_at "unterminated escape");
        advance ();
        go ()
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail_at "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if (match peek () with Some '}' -> true | _ -> false) then begin
        advance ();
        J_obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((key, v) :: acc)
          | _ -> fail_at "expected , or }"
        in
        J_obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if (match peek () with Some ']' -> true | _ -> false) then begin
        advance ();
        J_arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail_at "expected , or ]"
        in
        J_arr (elements [])
      end
    | Some '"' -> J_str (parse_string ())
    | Some 't' -> literal "true" (J_bool true)
    | Some 'f' -> literal "false" (J_bool false)
    | Some 'n' -> literal "null" J_null
    | Some _ -> J_num (parse_number ())
    | None -> fail_at "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then fail_at "trailing garbage";
  v

let field obj key =
  match obj with
  | J_obj kvs -> List.assoc_opt key kvs
  | _ -> None

let test_chrome_json_valid () =
  with_tracing (fun () ->
      let d = Trace.dist "test.samples" in
      Trace.with_span "phase \"quoted\"\n" (fun () ->
          Trace.with_span "inner" (fun () -> Trace.observe d 2.5));
      let doc = parse_json (Trace.chrome_string ()) in
      let events =
        match field doc "traceEvents" with
        | Some (J_arr evs) -> evs
        | _ -> Alcotest.fail "missing traceEvents array"
      in
      Alcotest.(check int) "three events" 3 (List.length events);
      List.iter
        (fun ev ->
          (match field ev "name" with
          | Some (J_str s) -> Alcotest.(check bool) "non-empty name" true (String.length s > 0)
          | _ -> Alcotest.fail "event without string name");
          (match field ev "ph" with
          | Some (J_str ("X" | "C")) -> ()
          | _ -> Alcotest.fail "event ph must be X or C");
          (match field ev "ts" with
          | Some (J_num ts) -> Alcotest.(check bool) "ts >= 0" true (ts >= 0.0)
          | _ -> Alcotest.fail "event without numeric ts");
          (match (field ev "pid", field ev "tid") with
          | Some (J_num _), Some (J_num _) -> ()
          | _ -> Alcotest.fail "event without pid/tid");
          match field ev "ph" with
          | Some (J_str "X") -> (
            (match field ev "dur" with
            | Some (J_num dur) -> Alcotest.(check bool) "dur >= 0" true (dur >= 0.0)
            | _ -> Alcotest.fail "X event without dur");
            match field ev "args" with
            | Some args -> (
              match field args "depth" with
              | Some (J_num _) -> ()
              | _ -> Alcotest.fail "X event without args.depth")
            | None -> Alcotest.fail "X event without args")
          | _ -> (
            match field ev "args" with
            | Some args -> (
              match field args "value" with
              | Some (J_num v) -> Alcotest.(check (float 0.0)) "sample value" 2.5 v
              | _ -> Alcotest.fail "C event without args.value")
            | None -> Alcotest.fail "C event without args"))
        events)

(* ------------------------------------------------------------------ *)
(* Tracing never changes results *)

let test_traced_extraction_bit_identical () =
  let layout = Geometry.Layout.alternating ~size:128.0 ~per_side:8 () in
  let g = dense_g (Geometry.Layout.n_contacts layout) in
  let extract ~jobs = Repr.to_dense (Lowrank.extract ~seed:5 ~jobs layout (Blackbox.of_dense g)) in
  Trace.set_enabled false;
  let off1 = extract ~jobs:1 in
  let off4 = extract ~jobs:4 in
  let on1, on4 = with_tracing (fun () -> (extract ~jobs:1, extract ~jobs:4)) in
  Alcotest.(check bool) "untraced jobs 1 vs 4" true (bitwise_equal_mat off1 off4);
  Alcotest.(check bool) "traced vs untraced, jobs 1" true (bitwise_equal_mat off1 on1);
  Alcotest.(check bool) "traced vs untraced, jobs 4" true (bitwise_equal_mat off1 on4)

(* ------------------------------------------------------------------ *)
(* Disabled instruments cost at most 2% of an extraction *)

let elapsed_ns t0 = Int64.to_float (Int64.sub (Trace.now_ns ()) t0)

let test_disabled_overhead_gate () =
  (* Per-hit cost of a disabled instrument. A disabled [with_span] is one
     Atomic.get, a branch and the closure call; [incr] and [observe] make
     the same check without the call, so this bounds every hit. *)
  Trace.set_enabled false;
  let calls = 1_000_000 in
  let payload = Sys.opaque_identity (fun () -> ()) in
  let t0 = Trace.now_ns () in
  for _ = 1 to calls do
    Trace.with_span "test.noop" payload
  done;
  let ns_per_call = elapsed_ns t0 /. float_of_int calls in
  (* A small eigenfunction extraction on two domains: it passes the CG,
     pool and black-box instruments. The traced run counts the hits the
     untraced run passes disabled. *)
  let layout = Geometry.Layout.regular_grid ~size:128.0 ~per_side:8 () in
  let box =
    Eigsolver.Eig_solver.blackbox
      (Eigsolver.Eig_solver.create (Substrate.Profile.thesis_default ~size:128.0 ()) layout
         ~panels_per_side:32)
  in
  let extract () = Blackbox.extract_dense ~jobs:2 box in
  let traced, hits, spans =
    with_tracing (fun () ->
        let g = extract () in
        let s = Trace.summary () in
        let counter_hits = List.fold_left (fun acc (_, c) -> acc + c) 0 s.Trace.counters in
        (g, Trace.event_count () + counter_hits, List.map (fun a -> a.Trace.agg_name) s.Trace.spans))
  in
  let t0 = Trace.now_ns () in
  let untraced = extract () in
  let untraced_ns = elapsed_ns t0 in
  List.iter
    (fun name -> Alcotest.(check bool) (name ^ " instrumented") true (List.mem name spans))
    [ "krylov.cg"; "pool.chunk"; "blackbox.batch" ];
  Alcotest.(check bool) "traced vs untraced on the eigenfunction solver" true
    (bitwise_equal_mat untraced traced);
  Alcotest.(check bool) "instruments hit" true (hits > 0);
  let pct = float_of_int hits *. ns_per_call /. untraced_ns *. 100.0 in
  let reading =
    Printf.sprintf "disabled-path overhead: %d hits x %.1f ns = %.4f%% of %.3f s (budget 2%%)" hits
      ns_per_call pct (untraced_ns /. 1e9)
  in
  print_endline reading;
  if pct > 2.0 then Alcotest.fail reading

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "trace"
    [
      ( "bugfix-diagnostics",
        [
          Alcotest.test_case "non_finite_reason: all-finite" `Quick test_non_finite_reason_all_finite;
          Alcotest.test_case "non_finite_reason: names component" `Quick
            test_non_finite_reason_names_component;
          Alcotest.test_case "cg: max-iter exit reports true residual" `Quick
            test_cg_max_iter_reports_true_residual;
          Alcotest.test_case "cg: breakdown reports true residual" `Quick
            test_cg_breakdown_reports_true_residual;
          Alcotest.test_case "cg: converged keeps recurrence residual" `Quick
            test_cg_converged_keeps_recurrence_residual;
          Alcotest.test_case "checkpoint: refuses 5-byte file" `Quick
            test_checkpoint_refuses_short_file;
          Alcotest.test_case "checkpoint: accepts empty file" `Quick
            test_checkpoint_accepts_empty_file;
          Alcotest.test_case "checkpoint: rejects bad magic" `Quick
            test_checkpoint_still_rejects_bad_magic;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "span survives exception" `Quick test_span_survives_exception;
          Alcotest.test_case "multi-domain merge" `Quick test_multi_domain_merge;
          Alcotest.test_case "summary sorted and repeatable" `Quick
            test_summary_sorted_and_repeatable;
          Alcotest.test_case "disabled mode records nothing" `Quick
            test_disabled_mode_records_nothing;
          Alcotest.test_case "disabled mode preserves results" `Quick
            test_disabled_mode_preserves_results;
          Alcotest.test_case "chrome trace_event JSON valid" `Quick test_chrome_json_valid;
          Alcotest.test_case "traced extraction bit-identical" `Quick
            test_traced_extraction_bit_identical;
          Alcotest.test_case "disabled instruments cost <= 2% of an extraction" `Quick
            test_disabled_overhead_gate;
        ] );
    ]
