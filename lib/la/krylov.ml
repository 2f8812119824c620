(* Preconditioned conjugate gradient.

   Both substrate solvers are Krylov methods on a symmetric positive
   (semi-)definite operator given as a black box (thesis §2.2.2): the
   finite-difference grid Laplacian with a fast-Poisson or incomplete-Cholesky
   preconditioner, and the eigenfunction solver's contact-panel operator.
   The implementation is the standard PCG recurrence that only needs
   applications of M^{-1}, not M^{-1/2} (Golub & Van Loan §11.5).

   [cg] keeps the iterate x and residual r in unboxed [Bvec] storage and
   the search direction p as a plain float array: p is the one vector
   that crosses the black-box boundary every iteration (it is the
   argument of [apply]), so keeping it boxed makes that crossing free —
   no per-iteration conversion copy — while the mixed-operand [Bvec]
   kernels ([axpy_a], [xpby_into_array]) read it in place. Relative to
   the boxed reference the per-iteration work drops three vector passes
   and one allocation: with no preconditioner z is r (the identity
   "preconditioner" of the boxed recurrence was a per-iteration
   [Vec.copy]; [dot r z] = [dot r r] and [z.(i) + beta * p.(i)] =
   [r.(i) + beta * p.(i)] on the alias), and the residual-norm and rz
   reductions collapse into ONE dot product since
   [norm2 r = sqrt (dot r r)] exactly. Every kernel call preserves the
   boxed operation order, so results are bit-identical to [cg_boxed] —
   the original float-array implementation, kept as the reference for
   the equivalence tests in test/test_la.ml. *)

type result = {
  x : Vec.t;
  iterations : int;
  converged : bool;
  breakdown : bool;
  residual_norm : float;
  recurrence_residual : float;
  residual_mismatch : bool;
}

type stats = {
  mutable solves : int;
  mutable total_iterations : int;
  mutable breakdowns : int;
}

let make_stats () = { solves = 0; total_iterations = 0; breakdowns = 0 }

let average_iterations s =
  if s.solves = 0 then 0.0 else float_of_int s.total_iterations /. float_of_int s.solves

(* Fold one stats record into another. Parallel batched solves give each
   concurrent solve its own stats record (the fields are plain mutable ints)
   and merge them back on the caller once the batch completes. *)
let merge_stats ~into s =
  into.solves <- into.solves + s.solves;
  into.total_iterations <- into.total_iterations + s.total_iterations;
  into.breakdowns <- into.breakdowns + s.breakdowns

let cg_span = "krylov.cg"
let iterations_dist = Trace.dist "krylov.iterations"
let breakdown_counter = Trace.counter "krylov.breakdowns"
let mismatch_counter = Trace.counter "krylov.residual_mismatches"

let cg ?precond ?(tol = 1e-9) ?(max_iter = 10_000) ?x0 ?stats ~apply b =
  Trace.with_span cg_span (fun () ->
  let n = Array.length b in
  let x = match x0 with Some x -> Bvec.of_array x | None -> Bvec.create n in
  let r = Bvec.create n in
  (* [apply] receives the solver's working direction vector directly
     (exactly as the boxed reference always did): it is read-only and
     only valid for the duration of the call. Results of [apply] are
     consumed before the next call, so callbacks may reuse their own
     output buffer (see the .mli contract). *)
  Bvec.sub_arrays_into b (apply (Bvec.to_array x)) r;
  let bnorm = Vec.norm2 b in
  let threshold = if bnorm > 0.0 then tol *. bnorm else 1e-300 in
  (* With a preconditioner, z crosses the boundary and is consumed (copied
     into p, or folded into rz and p) before the next call, so the callback
     may hand back a buffer it reuses; without one, z aliases r and the rz
     reduction doubles as the residual norm. *)
  let z0 = match precond with Some f -> Some (f (Bvec.to_array r)) | None -> None in
  let p = match z0 with Some z -> Vec.copy z | None -> Bvec.to_array r in
  let rz = ref (match z0 with Some z -> Bvec.dot_a r z | None -> Bvec.dot r r) in
  let iterations = ref 0 in
  let rnorm = ref (match z0 with Some _ -> Bvec.norm2 r | None -> sqrt !rz) in
  let converged = ref (!rnorm <= threshold) in
  let breakdown = ref false in
  while (not !converged) && (not !breakdown) && !iterations < max_iter do
    incr iterations;
    let ap = apply p in
    let pap = Vec.dot p ap in
    if pap <= 0.0 then
      (* Operator not positive definite along p (or exact convergence in
         exact arithmetic). The direction cannot be used — repeating it
         would divide by ~0 and every further iteration would reuse the
         same bad p — so stop immediately and flag the breakdown. The
         stale iterate is accepted only at a 10x relaxed threshold
         (decided below against the *true* residual, recomputed on this
         exit path), and callers can now see that this happened instead
         of mistaking it for ordinary convergence. *)
      breakdown := true
    else begin
      let alpha = !rz /. pap in
      Bvec.axpy_a ~alpha p x;
      Bvec.axpy_a ~alpha:(-.alpha) ap r;
      match precond with
      | Some f ->
        rnorm := Bvec.norm2 r;
        if !rnorm <= threshold then converged := true
        else begin
          let z = f (Bvec.to_array r) in
          let rz' = Bvec.dot_a r z in
          let beta = rz' /. !rz in
          rz := rz';
          for i = 0 to n - 1 do
            p.(i) <- z.(i) +. (beta *. p.(i))
          done
        end
      | None ->
        (* One reduction serves both exits: [sqrt d] is bitwise
           [norm2 r], and [d] is the [dot r z] of the boxed recurrence
           (z = copy of r). The boxed reference sweeps r three times
           here (norm2, copy, dot); this sweeps once. *)
        let d = Bvec.dot r r in
        rnorm := sqrt d;
        if !rnorm <= threshold then converged := true
        else begin
          let beta = d /. !rz in
          rz := d;
          Bvec.xpby_into_array ~beta r p
        end
    end
  done;
  (* Exit diagnostics. On the happy path the recurrence residual just
     crossed the threshold and is trusted as-is. After a breakdown or a
     max-iteration exit the recurrence value can drift arbitrarily far
     from ||b - A x|| (the recurrence keeps subtracting alpha*Ap from a
     stale r), so recompute the true residual — one extra apply, on the
     failure path only — and report *that* as [residual_norm]. A >10x
     disagreement between the two is flagged: it means the recurrence
     itself lost accuracy and iteration counts should be distrusted. *)
  let recurrence_residual = !rnorm in
  let residual_norm, residual_mismatch =
    if !converged && not !breakdown then (recurrence_residual, false)
    else begin
      let true_norm = Vec.norm2 (Vec.sub b (apply (Bvec.to_array x))) in
      let mismatch =
        true_norm > 10.0 *. recurrence_residual || recurrence_residual > 10.0 *. true_norm
      in
      (true_norm, mismatch)
    end
  in
  (* The relaxed breakdown acceptance now judges the trustworthy number. *)
  if !breakdown then converged := residual_norm <= threshold *. 10.0;
  (match stats with
  | Some s ->
    s.solves <- s.solves + 1;
    s.total_iterations <- s.total_iterations + !iterations;
    if !breakdown then s.breakdowns <- s.breakdowns + 1
  | None -> ());
  Trace.observe iterations_dist (float_of_int !iterations);
  if !breakdown then Trace.incr breakdown_counter;
  if residual_mismatch then Trace.incr mismatch_counter;
  {
    x = Bvec.to_array x;
    iterations = !iterations;
    converged = !converged;
    breakdown = !breakdown;
    residual_norm;
    recurrence_residual;
    residual_mismatch;
  })

(* The original boxed implementation, byte for byte the same recurrence on
   plain float arrays. Kept as the reference the Bigarray [cg] must match
   bitwise (test/test_la.ml). Not trace-instrumented. *)
let cg_boxed ?precond ?(tol = 1e-9) ?(max_iter = 10_000) ?x0 ?stats ~apply b =
  let n = Array.length b in
  let precond = match precond with Some p -> p | None -> Vec.copy in
  let x = match x0 with Some x -> Vec.copy x | None -> Vec.create n in
  let r = Vec.sub b (apply x) in
  let bnorm = Vec.norm2 b in
  let threshold = if bnorm > 0.0 then tol *. bnorm else 1e-300 in
  let z = precond r in
  let p = Vec.copy z in
  let rz = ref (Vec.dot r z) in
  let iterations = ref 0 in
  let rnorm = ref (Vec.norm2 r) in
  let converged = ref (!rnorm <= threshold) in
  let breakdown = ref false in
  while (not !converged) && (not !breakdown) && !iterations < max_iter do
    incr iterations;
    let ap = apply p in
    let pap = Vec.dot p ap in
    if pap <= 0.0 then breakdown := true
    else begin
      let alpha = !rz /. pap in
      Vec.axpy ~alpha p x;
      Vec.axpy ~alpha:(-.alpha) ap r;
      rnorm := Vec.norm2 r;
      if !rnorm <= threshold then converged := true
      else begin
        let z = precond r in
        let rz' = Vec.dot r z in
        let beta = rz' /. !rz in
        rz := rz';
        for i = 0 to n - 1 do
          p.(i) <- z.(i) +. (beta *. p.(i))
        done
      end
    end
  done;
  let recurrence_residual = !rnorm in
  let residual_norm, residual_mismatch =
    if !converged && not !breakdown then (recurrence_residual, false)
    else begin
      let true_norm = Vec.norm2 (Vec.sub b (apply x)) in
      let mismatch =
        true_norm > 10.0 *. recurrence_residual || recurrence_residual > 10.0 *. true_norm
      in
      (true_norm, mismatch)
    end
  in
  if !breakdown then converged := residual_norm <= threshold *. 10.0;
  (match stats with
  | Some s ->
    s.solves <- s.solves + 1;
    s.total_iterations <- s.total_iterations + !iterations;
    if !breakdown then s.breakdowns <- s.breakdowns + 1
  | None -> ());
  {
    x;
    iterations = !iterations;
    converged = !converged;
    breakdown = !breakdown;
    residual_norm;
    recurrence_residual;
    residual_mismatch;
  }
