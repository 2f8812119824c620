(* Precomputed FFT/DCT plans.

   The substrate solvers apply thousands of DCTs of the same length (every
   PCG iteration transforms every grid plane), so the bit-reversal
   permutation, the per-stage twiddle factors, the DCT boundary twist, the
   DCT's index permutations and its orthonormal scales are computed once per
   length and cached. *)

type t = {
  n : int;
  rev : int array;  (* bit-reversal permutation *)
  (* Twiddles for each butterfly stage: stage s handles blocks of length
     2^(s+1) and needs 2^s factors exp(-i pi k / 2^s). *)
  stage_wr : float array array;
  stage_wi : float array array;
  (* DCT-II twist factors exp(-i pi k / 2n). *)
  twist_c : float array;
  twist_s : float array;
  (* [dct2_raw]'s even/odd input permutation followed by the FFT's
     bit reversal, and [idct2_raw]'s output permutation: pure data
     movement, so the 2-D kernel can gather through them directly. *)
  fwd_src : int array;
  inv_src : int array;
  fwd_scale : float array;
  inv_scale : float array;
  inv_n : float;
}

let create n =
  if not (Fft.is_power_of_two n) then invalid_arg "Plan.create: length must be a power of two";
  let bits =
    let rec go b m = if m = 1 then b else go (b + 1) (m lsr 1) in
    go 0 n
  in
  let rev = Array.make n 0 in
  for i = 0 to n - 1 do
    let r = ref 0 in
    for b = 0 to bits - 1 do
      if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (bits - 1 - b))
    done;
    rev.(i) <- !r
  done;
  let stage_wr = Array.make bits [||] and stage_wi = Array.make bits [||] in
  for s = 0 to bits - 1 do
    let half = 1 lsl s in
    stage_wr.(s) <- Array.init half (fun k -> cos (-.Float.pi *. float_of_int k /. float_of_int half));
    stage_wi.(s) <- Array.init half (fun k -> sin (-.Float.pi *. float_of_int k /. float_of_int half))
  done;
  let twist_c = Array.init n (fun k -> cos (Float.pi *. float_of_int k /. float_of_int (2 * n))) in
  let twist_s = Array.init n (fun k -> sin (Float.pi *. float_of_int k /. float_of_int (2 * n))) in
  (* [dct2_raw] puts x.(2j) at j and x.(2j + 1) at n - 1 - j; the FFT's
     swap loop then leaves position i holding position rev.(i). *)
  let half = (n + 1) / 2 in
  let even_odd m = if m < half then 2 * m else (2 * (n - 1 - m)) + 1 in
  let fwd_src = Array.init n (fun i -> even_odd rev.(i)) in
  let inv_src = Array.init n (fun m -> if m land 1 = 0 then m / 2 else n - 1 - (m / 2)) in
  let fwd_scale =
    Array.init n (fun k ->
        if k = 0 then sqrt (1.0 /. float_of_int n) else sqrt (2.0 /. float_of_int n))
  in
  let inv_scale =
    Array.init n (fun k -> if k = 0 then sqrt (float_of_int n) else sqrt (float_of_int n /. 2.0))
  in
  {
    n;
    rev;
    stage_wr;
    stage_wi;
    twist_c;
    twist_s;
    fwd_src;
    inv_src;
    fwd_scale;
    inv_scale;
    inv_n = 1.0 /. float_of_int n;
  }

(* Cache plans per length; substrate grids use at most a handful of sizes.
   The cache is consulted from every domain of a parallel batched solve, so
   lookups are serialized; a plan is immutable once built and safe to share. *)
let cache : (int, t) Hashtbl.t =
  Hashtbl.create 8
[@@lint.allow domain_safety
  "every access goes through Mutex.protect cache_mutex in [get]; plans are immutable once built"]

let cache_mutex = Mutex.create ()

let get n =
  Mutex.protect cache_mutex (fun () ->
      match Hashtbl.find_opt cache n with
      | Some p -> p
      | None ->
        let p = create n in
        Hashtbl.replace cache n p;
        p)

(* The butterfly stages of the FFT on bit-reversed input, two at a time
   (radix 2^2): stages s and s + 1 only ever combine the four elements
   i + k + {0, h, 2h, 3h} of a block of 4h (h = 2^s), so those are loaded
   once, put through both stages' four butterflies and stored once. Each
   butterfly computes exactly what the stage-by-stage loop computes, from
   the same inputs, so the results are bit-identical to it. With an odd
   number of stages the last one (a single block) runs alone. The inverse
   transform's twiddles are the conjugates: [conj] negates their imaginary
   parts exactly. *)
let fft_stages t ~sign (re : float array) (im : float array) =
  let n = t.n in
  if Array.length re < n || Array.length im < n then
    invalid_arg "Plan.fft_stages: buffers shorter than the plan";
  let conj = if sign < 0 then 1.0 else -1.0 in
  let stages = Array.length t.stage_wr in
  for pair = 0 to (stages / 2) - 1 do
    let s = 2 * pair in
    let h = 1 lsl s in
    let w1r = Array.unsafe_get t.stage_wr s and w1i = Array.unsafe_get t.stage_wi s in
    let w2r = Array.unsafe_get t.stage_wr (s + 1) and w2i = Array.unsafe_get t.stage_wi (s + 1) in
    for blk = 0 to (n lsr (s + 2)) - 1 do
      let i = blk lsl (s + 2) in
      for k = 0 to h - 1 do
        let ar = Array.unsafe_get w1r k and ai = conj *. Array.unsafe_get w1i k in
        let br = Array.unsafe_get w2r k and bi = conj *. Array.unsafe_get w2i k in
        let cr = Array.unsafe_get w2r (h + k) and ci = conj *. Array.unsafe_get w2i (h + k) in
        let e0 = i + k in
        let e1 = e0 + h in
        let e2 = e1 + h in
        let e3 = e2 + h in
        let r0 = Array.unsafe_get re e0 and i0 = Array.unsafe_get im e0 in
        let r1 = Array.unsafe_get re e1 and i1 = Array.unsafe_get im e1 in
        let r2 = Array.unsafe_get re e2 and i2 = Array.unsafe_get im e2 in
        let r3 = Array.unsafe_get re e3 and i3 = Array.unsafe_get im e3 in
        (* Stage s: (e0, e1) and (e2, e3), twiddle a. *)
        let tr = (ar *. r1) -. (ai *. i1) and ti = (ar *. i1) +. (ai *. r1) in
        let r1 = r0 -. tr and i1 = i0 -. ti and r0 = r0 +. tr and i0 = i0 +. ti in
        let tr = (ar *. r3) -. (ai *. i3) and ti = (ar *. i3) +. (ai *. r3) in
        let r3 = r2 -. tr and i3 = i2 -. ti and r2 = r2 +. tr and i2 = i2 +. ti in
        (* Stage s + 1: (e0, e2), twiddle b, and (e1, e3), twiddle c. *)
        let tr = (br *. r2) -. (bi *. i2) and ti = (br *. i2) +. (bi *. r2) in
        Array.unsafe_set re e2 (r0 -. tr);
        Array.unsafe_set im e2 (i0 -. ti);
        Array.unsafe_set re e0 (r0 +. tr);
        Array.unsafe_set im e0 (i0 +. ti);
        let tr = (cr *. r3) -. (ci *. i3) and ti = (cr *. i3) +. (ci *. r3) in
        Array.unsafe_set re e3 (r1 -. tr);
        Array.unsafe_set im e3 (i1 -. ti);
        Array.unsafe_set re e1 (r1 +. tr);
        Array.unsafe_set im e1 (i1 +. ti)
      done
    done
  done;
  if stages land 1 = 1 then begin
    let half = n / 2 in
    let wr = Array.unsafe_get t.stage_wr (stages - 1) and wi = Array.unsafe_get t.stage_wi (stages - 1) in
    for a = 0 to half - 1 do
      let b = a + half in
      let twr = Array.unsafe_get wr a and twi = conj *. Array.unsafe_get wi a in
      let reb = Array.unsafe_get re b and imb = Array.unsafe_get im b in
      let tr = (twr *. reb) -. (twi *. imb) and ti = (twr *. imb) +. (twi *. reb) in
      let rea = Array.unsafe_get re a and ima = Array.unsafe_get im a in
      Array.unsafe_set re b (rea -. tr);
      Array.unsafe_set im b (ima -. ti);
      Array.unsafe_set re a (rea +. tr);
      Array.unsafe_set im a (ima +. ti)
    done
  end
[@@lint.hotpath
  "re, im hold >= n elements (checked on entry); stage s has 2^s twiddles, and a block of 4h \
   starting at i < n holds i + k + 3h"]

(* The same stages on many columns of a row-major grid at once: each
   butterfly group loads its twiddles once, then sweeps the listed columns
   of its rows. Columns never interact, so each sees exactly the
   operations of [fft_stages] on the same values. *)
let fft_stages_columns t ~sign (re : float array) (im : float array) ~width ~cols ~ncols =
  let n = t.n in
  if width < 0 || Array.length re < n * width || Array.length im < n * width then
    invalid_arg "Plan.fft_stages_columns: buffers shorter than n * width";
  if ncols < 0 || ncols > Array.length cols then
    invalid_arg "Plan.fft_stages_columns: ncols exceeds the column list";
  for q = 0 to ncols - 1 do
    if cols.(q) < 0 || cols.(q) >= width then
      invalid_arg "Plan.fft_stages_columns: column out of range"
  done;
  let conj = if sign < 0 then 1.0 else -1.0 in
  let stages = Array.length t.stage_wr in
  for pair = 0 to (stages / 2) - 1 do
    let s = 2 * pair in
    let h = 1 lsl s in
    let w1r = Array.unsafe_get t.stage_wr s and w1i = Array.unsafe_get t.stage_wi s in
    let w2r = Array.unsafe_get t.stage_wr (s + 1) and w2i = Array.unsafe_get t.stage_wi (s + 1) in
    for blk = 0 to (n lsr (s + 2)) - 1 do
      let i = blk lsl (s + 2) in
      for k = 0 to h - 1 do
        let ar = Array.unsafe_get w1r k and ai = conj *. Array.unsafe_get w1i k in
        let br = Array.unsafe_get w2r k and bi = conj *. Array.unsafe_get w2i k in
        let cr = Array.unsafe_get w2r (h + k) and ci = conj *. Array.unsafe_get w2i (h + k) in
        let o0 = (i + k) * width in
        let o1 = o0 + (h * width) in
        let o2 = o1 + (h * width) in
        let o3 = o2 + (h * width) in
        for q = 0 to ncols - 1 do
          let x = Array.unsafe_get cols q in
          let e0 = o0 + x and e1 = o1 + x and e2 = o2 + x and e3 = o3 + x in
          let r0 = Array.unsafe_get re e0 and i0 = Array.unsafe_get im e0 in
          let r1 = Array.unsafe_get re e1 and i1 = Array.unsafe_get im e1 in
          let r2 = Array.unsafe_get re e2 and i2 = Array.unsafe_get im e2 in
          let r3 = Array.unsafe_get re e3 and i3 = Array.unsafe_get im e3 in
          let tr = (ar *. r1) -. (ai *. i1) and ti = (ar *. i1) +. (ai *. r1) in
          let r1 = r0 -. tr and i1 = i0 -. ti and r0 = r0 +. tr and i0 = i0 +. ti in
          let tr = (ar *. r3) -. (ai *. i3) and ti = (ar *. i3) +. (ai *. r3) in
          let r3 = r2 -. tr and i3 = i2 -. ti and r2 = r2 +. tr and i2 = i2 +. ti in
          let tr = (br *. r2) -. (bi *. i2) and ti = (br *. i2) +. (bi *. r2) in
          Array.unsafe_set re e2 (r0 -. tr);
          Array.unsafe_set im e2 (i0 -. ti);
          Array.unsafe_set re e0 (r0 +. tr);
          Array.unsafe_set im e0 (i0 +. ti);
          let tr = (cr *. r3) -. (ci *. i3) and ti = (cr *. i3) +. (ci *. r3) in
          Array.unsafe_set re e3 (r1 -. tr);
          Array.unsafe_set im e3 (i1 -. ti);
          Array.unsafe_set re e1 (r1 +. tr);
          Array.unsafe_set im e1 (i1 +. ti)
        done
      done
    done
  done;
  if stages land 1 = 1 then begin
    let half = n / 2 in
    let wr = Array.unsafe_get t.stage_wr (stages - 1) and wi = Array.unsafe_get t.stage_wi (stages - 1) in
    for k = 0 to half - 1 do
      let twr = Array.unsafe_get wr k and twi = conj *. Array.unsafe_get wi k in
      let ra = k * width in
      let rb = ra + (half * width) in
      for q = 0 to ncols - 1 do
        let x = Array.unsafe_get cols q in
        let a = ra + x and b = rb + x in
        let reb = Array.unsafe_get re b and imb = Array.unsafe_get im b in
        let tr = (twr *. reb) -. (twi *. imb) and ti = (twr *. imb) +. (twi *. reb) in
        let rea = Array.unsafe_get re a and ima = Array.unsafe_get im a in
        Array.unsafe_set re b (rea -. tr);
        Array.unsafe_set im b (ima -. ti);
        Array.unsafe_set re a (rea +. tr);
        Array.unsafe_set im a (ima +. ti)
      done
    done
  end
[@@lint.hotpath
  "re, im hold >= n * width elements and every listed column is in [0, width) (both checked on \
   entry); rows as in fft_stages"]

(* In-place FFT using the plan's tables; [sign] as in Fft.transform. *)
let fft t ~sign (re : float array) (im : float array) =
  (* Bit-reversal permutation. *)
  for i = 0 to t.n - 1 do
    let j = t.rev.(i) in
    if i < j then begin
      let tr = re.(i) and ti = im.(i) in
      re.(i) <- re.(j);
      im.(i) <- im.(j);
      re.(j) <- tr;
      im.(j) <- ti
    end
  done;
  fft_stages t ~sign re im

(* Unnormalized DCT-II via the plan (Makhoul's even/odd permutation). The
   scratch arrays must be caller-provided of length n; the result lands in
   [out] (which may alias the input). *)
let dct2_raw t (x : float array) (re : float array) (im : float array) (out : float array) =
  let n = t.n in
  let half = (n + 1) / 2 in
  Array.fill im 0 n 0.0;
  for j = 0 to half - 1 do
    re.(j) <- x.(2 * j)
  done;
  for j = 0 to (n / 2) - 1 do
    re.(n - 1 - j) <- x.((2 * j) + 1)
  done;
  fft t ~sign:(-1) re im;
  for k = 0 to n - 1 do
    out.(k) <- (re.(k) *. t.twist_c.(k)) +. (im.(k) *. t.twist_s.(k))
  done

(* Exact inverse of [dct2_raw]. *)
let idct2_raw t (c : float array) (re : float array) (im : float array) (out : float array) =
  let n = t.n in
  re.(0) <- c.(0);
  im.(0) <- 0.0;
  (* Rebuild the spectrum V_k = (c_k - i c_{n-k}) exp(+i pi k / 2n). *)
  for k = 1 to n - 1 do
    let wr = c.(k) and wi = -.c.(n - k) in
    re.(k) <- (wr *. t.twist_c.(k)) -. (wi *. t.twist_s.(k));
    im.(k) <- (wr *. t.twist_s.(k)) +. (wi *. t.twist_c.(k))
  done;
  fft t ~sign:1 re im;
  let inv = 1.0 /. float_of_int n in
  let half = (n + 1) / 2 in
  for j = 0 to half - 1 do
    out.(2 * j) <- re.(j) *. inv
  done;
  for j = 0 to (n / 2) - 1 do
    out.((2 * j) + 1) <- re.(n - 1 - j) *. inv
  done
