(* Orthonormal discrete cosine transforms (DCT-II and its inverse DCT-III).

   The DCT-II basis vectors cos(pi (n + 1/2) k / N) are the eigenvectors of
   the 1-D cell-centered Neumann Laplacian, which is what makes the fast
   Poisson solver (thesis §2.2.2) and the eigenfunction substrate solver
   (§2.3.1, Fig 2-6) work: both conjugate their operators by the 2-D DCT.

   The orthonormal scaling s_0 = sqrt(1/N), s_k = sqrt(2/N) makes the
   transform matrix orthogonal, so DCT-III = inverse = transpose — keeping
   operators of the form C' Lambda C exactly symmetric in floating point
   structure. Power-of-two lengths run through cached FFT plans
   (O(n log n), precomputed twiddles); other lengths fall back to the
   direct O(n^2) sum. *)

(* Unnormalized DCT-II: c_k = sum_n x_n cos(pi (2n+1) k / (2N)). *)
let dct2_raw_naive x =
  let n = Array.length x in
  Array.init n (fun k ->
      let acc = ref 0.0 in
      for j = 0 to n - 1 do
        acc :=
          !acc
          +. (x.(j) *. cos (Float.pi *. float_of_int ((2 * j) + 1) *. float_of_int k /. float_of_int (2 * n)))
      done;
      !acc)

let dct2_raw x =
  let n = Array.length x in
  if Fft.is_power_of_two n then begin
    let plan = Plan.get n in
    let re = Array.make n 0.0 and im = Array.make n 0.0 and out = Array.make n 0.0 in
    Plan.dct2_raw plan x re im out;
    out
  end
  else dct2_raw_naive x

(* Exact inverse of [dct2_raw]:
   x_n = (1/N) c_0 + (2/N) sum_{k>=1} c_k cos(pi (2n+1) k / (2N)). *)
let idct2_raw_naive c =
  let n = Array.length c in
  Array.init n (fun j ->
      let acc = ref (c.(0) /. float_of_int n) in
      for k = 1 to n - 1 do
        acc :=
          !acc
          +. (2.0 /. float_of_int n *. c.(k)
             *. cos (Float.pi *. float_of_int ((2 * j) + 1) *. float_of_int k /. float_of_int (2 * n)))
      done;
      !acc)

let idct2_raw c =
  let n = Array.length c in
  if Fft.is_power_of_two n then begin
    let plan = Plan.get n in
    let re = Array.make n 0.0 and im = Array.make n 0.0 and out = Array.make n 0.0 in
    Plan.idct2_raw plan c re im out;
    out
  end
  else idct2_raw_naive c

let ortho_scale n k = if k = 0 then sqrt (1.0 /. float_of_int n) else sqrt (2.0 /. float_of_int n)

(* Orthonormal DCT-II. *)
let dct_ii x =
  let n = Array.length x in
  let c = dct2_raw x in
  Array.mapi (fun k v -> ortho_scale n k *. v) c

(* Orthonormal DCT-III (inverse and transpose of [dct_ii]). *)
let dct_iii y =
  let n = Array.length y in
  let c = Array.mapi (fun k v -> v /. ortho_scale n k) y in
  idct2_raw c

(* ------------------------------------------------------------------ *)
(* 2-D transforms on flat row-major arrays with x fastest:
   index = ix + nx * iy. *)

let check_2d ~nx ~ny a name =
  if Array.length a <> nx * ny then
    invalid_arg (Printf.sprintf "Dct.%s: expected %d*%d elements, got %d" name nx ny (Array.length a))

(* Direct path for grids whose sides are not both powers of two: each row,
   then each column of the grid at [a.(off) ..], through the O(n^2) 1-D
   transform, in place. *)
let transform_2d_slow f1d ~nx ~ny a off =
  let rowbuf = Array.make nx 0.0 in
  for iy = 0 to ny - 1 do
    Array.blit a (off + (iy * nx)) rowbuf 0 nx;
    let t = f1d rowbuf in
    Array.blit t 0 a (off + (iy * nx)) nx
  done;
  let colbuf = Array.make ny 0.0 in
  for ix = 0 to nx - 1 do
    for iy = 0 to ny - 1 do
      colbuf.(iy) <- a.(off + (iy * nx) + ix)
    done;
    let t = f1d colbuf in
    for iy = 0 to ny - 1 do
      a.(off + (iy * nx) + ix) <- t.(iy)
    done
  done

type axes = Planned of Plan.t * Plan.t | Direct
type plan = { nx : int; ny : int; axes : axes }

let plan ~nx ~ny =
  if nx < 0 || ny < 0 then invalid_arg "Dct.plan: negative grid side";
  if Fft.is_power_of_two nx && Fft.is_power_of_two ny then
    { nx; ny; axes = Planned (Plan.get nx, Plan.get ny) }
  else { nx; ny; axes = Direct }

(* The kernel's buffers. Rows are transformed in [row_re]/[row_im]; the
   column passes hold a whole grid of spectra in [re]/[im], so one
   butterfly sweeps a contiguous row of every column at once. [grid] is
   [conjugate]'s zero-padded input. *)
type workspace = {
  wplan : plan;
  grid : float array;
  re : float array;
  im : float array;
  row_re : float array;
  row_im : float array;
  all_cols : int array;  (* 0 .. nx - 1: the column list of a full pass *)
}

let workspace plan =
  let size = plan.nx * plan.ny in
  let grid = Array.make size 0.0 in
  match plan.axes with
  | Direct ->
    { wplan = plan; grid; re = [||]; im = [||]; row_re = [||]; row_im = [||]; all_cols = [||] }
  | Planned _ ->
    {
      wplan = plan;
      grid;
      re = Array.make size 0.0;
      im = Array.make size 0.0;
      row_re = Array.make plan.nx 0.0;
      row_im = Array.make plan.nx 0.0;
      all_cols = Array.init plan.nx Fun.id;
    }

(* Every unsafe access below is bounded by the shapes: the public entry
   points check that the region [off, off + nx * ny) lies in the caller's
   array, the workspace buffers are sized from the same plan, and the
   index tables of a plan are permutations of [0, n). *)

(* Orthonormal DCT-II of the row at [a.(base) ..], in place: gather
   through the even/odd and bit-reversal permutations, butterflies, then
   twist and scale. *)
let forward_row (px : Plan.t) a base re im =
  let n = px.n in
  let src = px.fwd_src and tc = px.twist_c and ts = px.twist_s and sc = px.fwd_scale in
  for i = 0 to n - 1 do
    Array.unsafe_set re i (Array.unsafe_get a (base + Array.unsafe_get src i));
    Array.unsafe_set im i 0.0
  done;
  Plan.fft_stages px ~sign:(-1) re im;
  for k = 0 to n - 1 do
    Array.unsafe_set a (base + k)
      (((Array.unsafe_get re k *. Array.unsafe_get tc k)
       +. (Array.unsafe_get im k *. Array.unsafe_get ts k))
      *. Array.unsafe_get sc k)
  done
[@@lint.hotpath "callers pass a row inside a checked region; re, im and the tables have length n"]

(* Unnormalized DCT-III of the (already pre-scaled) row at [a.(base) ..],
   in place: spectrum rebuild written straight to bit-reversed positions,
   butterflies, then the output permutation and 1/n. *)
let inverse_row (px : Plan.t) a base re im =
  let n = px.n in
  let rev = px.rev and tc = px.twist_c and ts = px.twist_s in
  let src = px.inv_src and inv = px.inv_n in
  Array.unsafe_set re 0 (Array.unsafe_get a base);
  Array.unsafe_set im 0 0.0;
  for k = 1 to n - 1 do
    let wr = Array.unsafe_get a (base + k) and wi = -.Array.unsafe_get a (base + n - k) in
    let c = Array.unsafe_get tc k and s = Array.unsafe_get ts k in
    let j = Array.unsafe_get rev k in
    Array.unsafe_set re j ((wr *. c) -. (wi *. s));
    Array.unsafe_set im j ((wr *. s) +. (wi *. c))
  done;
  Plan.fft_stages px ~sign:1 re im;
  for m = 0 to n - 1 do
    Array.unsafe_set a (base + m) (Array.unsafe_get re (Array.unsafe_get src m) *. inv)
  done
[@@lint.hotpath
  "callers pass a row inside a checked region; re, im and the tables have length n, rev and \
   inv_src are permutations of [0, n)"]

(* Column DCT-II up to its twist: the rows of the grid at [a.(off) ..]
   gathered through the even/odd and bit-reversal permutations into
   [ws.re], [ws.im] cleared, then the butterflies of every column. *)
let forward_columns_fft ws (py : Plan.t) a off =
  let nx = ws.wplan.nx in
  for i = 0 to py.n - 1 do
    Array.blit a (off + (py.fwd_src.(i) * nx)) ws.re (i * nx) nx
  done;
  Array.fill ws.im 0 (nx * py.n) 0.0;
  Plan.fft_stages_columns py ~sign:(-1) ws.re ws.im ~width:nx ~cols:ws.all_cols ~ncols:nx

(* Column DCT-III up to its output permutation, on the listed columns of
   the grid at [a.(off) ..]: pre-scale and spectrum rebuild in one pass,
   rows written straight to their bit-reversed positions, then the
   butterflies. Output row m of column x is left at
   [ws.re.(inv_src.(m) * nx + x)], still to be multiplied by 1/n. *)
let inverse_columns_fft ws (py : Plan.t) a off ~cols ~ncols =
  let nx = ws.wplan.nx and ny = py.n in
  let re = ws.re and im = ws.im in
  let rev = py.rev and tc = py.twist_c and ts = py.twist_s and pre = py.inv_scale in
  let s0 = Array.unsafe_get pre 0 in
  for q = 0 to ncols - 1 do
    let x = Array.unsafe_get cols q in
    Array.unsafe_set re x (Array.unsafe_get a (off + x) *. s0);
    Array.unsafe_set im x 0.0
  done;
  for k = 1 to ny - 1 do
    let c = Array.unsafe_get tc k and s = Array.unsafe_get ts k in
    let sk = Array.unsafe_get pre k and snk = Array.unsafe_get pre (ny - k) in
    let rk = off + (k * nx) and rnk = off + ((ny - k) * nx) in
    let rj = Array.unsafe_get rev k * nx in
    for q = 0 to ncols - 1 do
      let x = Array.unsafe_get cols q in
      let wr = Array.unsafe_get a (rk + x) *. sk in
      let wi = -.(Array.unsafe_get a (rnk + x) *. snk) in
      Array.unsafe_set re (rj + x) ((wr *. c) -. (wi *. s));
      Array.unsafe_set im (rj + x) ((wr *. s) +. (wi *. c))
    done
  done;
  Plan.fft_stages_columns py ~sign:1 re im ~width:nx ~cols ~ncols
[@@lint.hotpath
  "callers pass a checked region and columns below nx (the workspace's 0 .. nx - 1 or a \
   support's, validated when it was built); re, im hold ny * nx"]

let check_region ws a off name =
  let size = ws.wplan.nx * ws.wplan.ny in
  if off < 0 || off + size > Array.length a then
    invalid_arg (Printf.sprintf "Dct.%s: grid at offset %d exceeds the array" name off)

let forward_2d ws a ~off =
  check_region ws a off "forward_2d";
  let { nx; ny; axes } = ws.wplan in
  match axes with
  | Direct -> transform_2d_slow dct_ii ~nx ~ny a off
  | Planned (px, py) ->
    for iy = 0 to ny - 1 do
      forward_row px a (off + (iy * nx)) ws.row_re ws.row_im
    done;
    forward_columns_fft ws py a off;
    let re = ws.re and im = ws.im in
    let tc = py.twist_c and ts = py.twist_s and sc = py.fwd_scale in
    for k = 0 to ny - 1 do
      let c = Array.unsafe_get tc k and s = Array.unsafe_get ts k and f = Array.unsafe_get sc k in
      let r = k * nx in
      for x = 0 to nx - 1 do
        Array.unsafe_set a (off + r + x)
          (((Array.unsafe_get re (r + x) *. c) +. (Array.unsafe_get im (r + x) *. s)) *. f)
      done
    done
[@@lint.hotpath "region checked on entry; re, im hold ny * nx; twist and scale tables have length ny"]

let inverse_2d ws a ~off =
  check_region ws a off "inverse_2d";
  let { nx; ny; axes } = ws.wplan in
  match axes with
  | Direct -> transform_2d_slow dct_iii ~nx ~ny a off
  | Planned (px, py) ->
    let pre = px.inv_scale in
    for iy = 0 to ny - 1 do
      let base = off + (iy * nx) in
      for k = 0 to nx - 1 do
        Array.unsafe_set a (base + k) (Array.unsafe_get a (base + k) *. Array.unsafe_get pre k)
      done;
      inverse_row px a base ws.row_re ws.row_im
    done;
    inverse_columns_fft ws py a off ~cols:ws.all_cols ~ncols:nx;
    let re = ws.re and src = py.inv_src and inv = py.inv_n in
    for m = 0 to ny - 1 do
      let r = off + (m * nx) and rs = Array.unsafe_get src m * nx in
      for x = 0 to nx - 1 do
        Array.unsafe_set a (r + x) (Array.unsafe_get re (rs + x) *. inv)
      done
    done
[@@lint.hotpath "region checked on entry; re holds ny * nx; inv_src is a permutation of [0, ny)"]

let dct_ii_2d ~nx ~ny a =
  check_2d ~nx ~ny a "dct_ii_2d";
  let out = Array.copy a in
  forward_2d (workspace (plan ~nx ~ny)) out ~off:0;
  out

let dct_iii_2d ~nx ~ny a =
  check_2d ~nx ~ny a "dct_iii_2d";
  let out = Array.copy a in
  inverse_2d (workspace (plan ~nx ~ny)) out ~off:0;
  out

(* ------------------------------------------------------------------ *)
(* Restricted conjugation: the eigenfunction solver's operator
   C' diag(w) C on the cells of a support (thesis Fig 2-6). *)

type support = {
  snx : int;
  sny : int;
  cells : int array;  (* flat grid index of each packed value *)
  rows : int array;  (* ascending rows holding a cell *)
  cols : int array;  (* ascending columns holding a cell *)
  (* Where each cell's result is read: [inverse_columns_fft]'s output
     position on the planned path, the grid cell itself on the direct one. *)
  slots : int array;
}

let support plan cells =
  let { nx; ny; axes } = plan in
  let n = Array.length cells in
  let row_held = Array.make ny false and col_held = Array.make nx false in
  let slots = Array.make n 0 in
  (* Split each cell into (ix, iy) with a shift when the grid is planned (a
     plan of length 2^b has b butterfly stages): this runs over every
     contact panel of every solver created. *)
  let shift = match axes with Planned (px, _) -> Array.length px.stage_wr | Direct -> -1 in
  for d = 0 to n - 1 do
    let c = cells.(d) in
    if c < 0 || c >= nx * ny then invalid_arg "Dct.support: cell outside the grid";
    let iy = if shift >= 0 then c lsr shift else c / nx in
    let ix = c - (iy * nx) in
    row_held.(iy) <- true;
    col_held.(ix) <- true;
    slots.(d) <- (match axes with Planned (_, py) -> (py.inv_src.(iy) * nx) + ix | Direct -> c)
  done;
  let held flags =
    Array.of_list (List.filter (Array.get flags) (List.init (Array.length flags) Fun.id))
  in
  { snx = nx; sny = ny; cells = Array.copy cells; rows = held row_held; cols = held col_held; slots }

(* The forward column twist and orthonormal scale, the weight, and the
   inverse row pre-scale in one sweep from [ws.re]/[ws.im] into [g]: the
   same roundings, in the same order, as the unfused transforms. *)
let weigh ws (px : Plan.t) (py : Plan.t) g ~weights ~divide =
  let nx = px.n in
  let re = ws.re and im = ws.im in
  let tc = py.twist_c and ts = py.twist_s and sc = py.fwd_scale and pre = px.inv_scale in
  for k = 0 to py.n - 1 do
    let c = Array.unsafe_get tc k and s = Array.unsafe_get ts k and f = Array.unsafe_get sc k in
    let r = k * nx in
    if divide then
      for x = 0 to nx - 1 do
        let v = ((Array.unsafe_get re (r + x) *. c) +. (Array.unsafe_get im (r + x) *. s)) *. f in
        Array.unsafe_set g (r + x) ((v /. Array.unsafe_get weights (r + x)) *. Array.unsafe_get pre x)
      done
    else
      for x = 0 to nx - 1 do
        let v = ((Array.unsafe_get re (r + x) *. c) +. (Array.unsafe_get im (r + x) *. s)) *. f in
        Array.unsafe_set g (r + x) ((Array.unsafe_get weights (r + x) *. v) *. Array.unsafe_get pre x)
      done
  done
[@@lint.hotpath "g, re, im and weights hold ny * nx (weights checked by [conjugate]); pre has nx"]

let conjugate ws sup ~weights ~divide x out =
  let { nx; ny; axes } = ws.wplan in
  let size = nx * ny and n = Array.length sup.cells in
  if sup.snx <> nx || sup.sny <> ny then
    invalid_arg "Dct.conjugate: support and workspace grid shapes differ";
  if Array.length weights <> size then invalid_arg "Dct.conjugate: one weight per mode expected";
  if Array.length x <> n || Array.length out <> n then
    invalid_arg "Dct.conjugate: one value per support cell expected";
  let g = ws.grid and cells = sup.cells in
  Array.fill g 0 size 0.0;
  for d = 0 to n - 1 do
    Array.unsafe_set g (Array.unsafe_get cells d) (Array.unsafe_get x d)
  done;
  match axes with
  | Direct ->
    transform_2d_slow dct_ii ~nx ~ny g 0;
    for k = 0 to size - 1 do
      g.(k) <- (if divide then g.(k) /. weights.(k) else weights.(k) *. g.(k))
    done;
    transform_2d_slow dct_iii ~nx ~ny g 0;
    for d = 0 to n - 1 do
      out.(d) <- g.(sup.slots.(d))
    done
  | Planned (px, py) ->
    (* Rows without a cell are +0.0 and would stay +0.0: skip them. *)
    let rows = sup.rows in
    for i = 0 to Array.length rows - 1 do
      forward_row px g (Array.unsafe_get rows i * nx) ws.row_re ws.row_im
    done;
    forward_columns_fft ws py g 0;
    weigh ws px py g ~weights ~divide;
    for iy = 0 to ny - 1 do
      inverse_row px g (iy * nx) ws.row_re ws.row_im
    done;
    (* Columns without a cell are never read: skip them. *)
    inverse_columns_fft ws py g 0 ~cols:sup.cols ~ncols:(Array.length sup.cols);
    let re = ws.re and slots = sup.slots and inv = py.inv_n in
    for d = 0 to n - 1 do
      Array.unsafe_set out d (Array.unsafe_get re (Array.unsafe_get slots d) *. inv)
    done
[@@lint.hotpath
  "shapes and lengths checked on entry; cells, rows, cols and slots were validated against this \
   shape when the support was built"]

(* Eigenvalue of the 1-D cell-centered Neumann Laplacian
   (stencil [1,-1] / [-1,2,-1] / [-1,1]) for DCT-II mode k of n. *)
let neumann_laplacian_eigenvalue ~n ~k =
  2.0 -. (2.0 *. cos (Float.pi *. float_of_int k /. float_of_int n))
