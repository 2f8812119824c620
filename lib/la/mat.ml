(* Dense matrices in row-major order.

   Sizes in this project are modest (moment matrices are 6 x n_s, sampled
   interactions a few hundred rows by <= 27 columns, exact conductance
   matrices up to a few thousand square for validation), so a straightforward
   row-major layout with cache-friendly inner loops is sufficient. *)

type t = { rows : int; cols : int; data : float array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Mat.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let init rows cols f =
  let data = Array.make (rows * cols) 0.0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      data.((i * cols) + j) <- f i j
    done
  done;
  { rows; cols; data }

let rows m = m.rows
let cols m = m.cols
let get m i j = m.data.((i * m.cols) + j)
let set m i j x = m.data.((i * m.cols) + j) <- x
let update m i j f = m.data.((i * m.cols) + j) <- f m.data.((i * m.cols) + j)
let copy m = { m with data = Array.copy m.data }

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let of_arrays a =
  let rows = Array.length a in
  if rows = 0 then { rows = 0; cols = 0; data = [||] }
  else begin
    let cols = Array.length a.(0) in
    Array.iter (fun r -> if Array.length r <> cols then invalid_arg "Mat.of_arrays: ragged rows") a;
    init rows cols (fun i j -> a.(i).(j))
  end

let to_arrays m = Array.init m.rows (fun i -> Array.sub m.data (i * m.cols) m.cols)

let row m i = Array.sub m.data (i * m.cols) m.cols
let col m j = Array.init m.rows (fun i -> get m i j)

let set_row m i (v : Vec.t) =
  if Array.length v <> m.cols then invalid_arg "Mat.set_row: dimension mismatch";
  Array.blit v 0 m.data (i * m.cols) m.cols

let set_col m j (v : Vec.t) =
  if Array.length v <> m.rows then invalid_arg "Mat.set_col: dimension mismatch";
  for i = 0 to m.rows - 1 do
    set m i j v.(i)
  done

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let map f m = { m with data = Array.map f m.data }
let scale alpha m = map (fun x -> alpha *. x) m

let add a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Mat.add: dimension mismatch";
  { a with data = Array.init (Array.length a.data) (fun k -> a.data.(k) +. b.data.(k)) }

let sub a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Mat.sub: dimension mismatch";
  { a with data = Array.init (Array.length a.data) (fun k -> a.data.(k) -. b.data.(k)) }

(* C = A * B with the k-loop outside j so the inner loop walks rows of B. *)
let mul a b =
  if a.cols <> b.rows then
    invalid_arg (Printf.sprintf "Mat.mul: dimension mismatch (%dx%d * %dx%d)" a.rows a.cols b.rows b.cols);
  let c = create a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = a.data.((i * a.cols) + k) in
      (* Exact-zero skip: purely a work-saving test, any nonzero must multiply. *)
      if not (Float.equal aik 0.0) then
        for j = 0 to b.cols - 1 do
          c.data.((i * b.cols) + j) <- c.data.((i * b.cols) + j) +. (aik *. b.data.((k * b.cols) + j))
        done
    done
  done;
  c

(* y = A * x *)
let gemv a (x : Vec.t) : Vec.t =
  if a.cols <> Array.length x then invalid_arg "Mat.gemv: dimension mismatch";
  let y = Array.make a.rows 0.0 in
  for i = 0 to a.rows - 1 do
    let base = i * a.cols in
    let acc = ref 0.0 in
    for j = 0 to a.cols - 1 do
      acc := !acc +. (Array.unsafe_get a.data (base + j) *. Array.unsafe_get x j)
    done;
    Array.unsafe_set y i !acc
  done;
  y
[@@lint.hotpath "length x = cols checked on entry; base + j < rows * cols by the loop bounds"]

(* y = A' * x without forming the transpose *)
let gemv_t a (x : Vec.t) : Vec.t =
  if a.rows <> Array.length x then invalid_arg "Mat.gemv_t: dimension mismatch";
  let y = Array.make a.cols 0.0 in
  for i = 0 to a.rows - 1 do
    let base = i * a.cols in
    let xi = Array.unsafe_get x i in
    (* Exact-zero skip, as in [mul]. *)
    if not (Float.equal xi 0.0) then
      for j = 0 to a.cols - 1 do
        Array.unsafe_set y j (Array.unsafe_get y j +. (Array.unsafe_get a.data (base + j) *. xi))
      done
  done;
  y
[@@lint.hotpath "length x = rows checked on entry; base + j < rows * cols by the loop bounds"]

let sub_matrix m ~row ~col ~rows ~cols =
  if row < 0 || col < 0 || row + rows > m.rows || col + cols > m.cols then
    invalid_arg "Mat.sub_matrix: out of bounds";
  init rows cols (fun i j -> get m (row + i) (col + j))

(* Select arbitrary rows/columns by index; used to slice interaction blocks
   G(d, s) out of a conductance matrix. *)
let select m ~row_idx ~col_idx =
  init (Array.length row_idx) (Array.length col_idx) (fun i j -> get m row_idx.(i) col_idx.(j))

let select_rows m row_idx =
  init (Array.length row_idx) m.cols (fun i j -> get m row_idx.(i) j)

let hcat a b =
  if a.rows <> b.rows then invalid_arg "Mat.hcat: row mismatch";
  init a.rows (a.cols + b.cols) (fun i j -> if j < a.cols then get a i j else get b i (j - a.cols))

let vcat a b =
  if a.cols <> b.cols then invalid_arg "Mat.vcat: col mismatch";
  init (a.rows + b.rows) a.cols (fun i j -> if i < a.rows then get a i j else get b (i - a.rows) j)

let hcat_list = function
  | [] -> invalid_arg "Mat.hcat_list: empty"
  | m :: rest -> List.fold_left hcat m rest

let of_cols = function
  | [] -> invalid_arg "Mat.of_cols: empty"
  | (c0 : Vec.t) :: _ as cs ->
    let rows = Array.length c0 in
    let cs = Array.of_list cs in
    init rows (Array.length cs) (fun i j -> cs.(j).(i))

let frobenius m = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 m.data)
let max_abs m = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0 m.data

let is_symmetric ?(tol = 1e-10) m =
  m.rows = m.cols
  &&
  let ok = ref true in
  for i = 0 to m.rows - 1 do
    for j = i + 1 to m.cols - 1 do
      if Float.abs (get m i j -. get m j i) > tol then ok := false
    done
  done;
  !ok

let approx_equal ?(tol = 1e-10) a b =
  a.rows = b.rows && a.cols = b.cols && max_abs (sub a b) <= tol

let random rng rows cols = init rows cols (fun _ _ -> Rng.gaussian rng)

let pp ppf m =
  Fmt.pf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    Fmt.pf ppf "|";
    for j = 0 to m.cols - 1 do
      Fmt.pf ppf " %9.4f" (get m i j)
    done;
    Fmt.pf ppf " |@,"
  done;
  Fmt.pf ppf "@]"
