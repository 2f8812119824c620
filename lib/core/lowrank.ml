module Quadtree = Geometry.Quadtree
module Mat = La.Mat
module Csr = Sparsemat.Csr
module Coo = Sparsemat.Coo
module Pool = Parallel.Pool

(* Phase 2 of the low-rank method (thesis §4.4): the fine-to-coarse sweep.

   Starting from the row bases of phase 1 (U_s = V_s slow-decaying,
   T_s = W_s fast-decaying on the finest level), each coarser square
   recombines its children's slow-decaying vectors: the SVD of the
   interaction G(I_p, p) X_p — evaluated through the phase-1 representation,
   with no further black-box solves — splits the recombination into a few
   more slow-decaying vectors U_p (large singular values) and many
   fast-decaying ones T_p (eq. (4.27)). The T vectors of all levels plus the
   level-2 U vectors form the orthogonal Q, and G_w keeps only interactions
   between basis vectors in mutually local squares (same conservative
   cross-level rule as the wavelet method) plus the coarse U interactions
   with everything. *)

type phase2_square = {
  coords : int * int;
  level : int;
  contacts : int array;
  u : Mat.t;  (* slow-decaying, n_s x u_s *)
  t : Mat.t;  (* fast-decaying, n_s x t_s *)
  mutable t_offset : int;
  mutable u_offset : int;  (* level 2 only; -1 elsewhere *)
}

type t = {
  rb : Rowbasis.t;
  tree : Quadtree.t;
  n : int;
  max_level : int;
  squares : (int * int * int, phase2_square) Hashtbl.t;
  level_order : (int * int) list array;  (* nonempty squares per level, Morton *)
}

let find t ~level ~ix ~iy = Hashtbl.find_opt t.squares (level, ix, iy)
let rowbasis t = t.rb

let nonempty tree level =
  Array.to_list (Quadtree.squares_at_level tree level)
  |> List.filter_map (fun (sq : Quadtree.square) ->
         if Array.length sq.Quadtree.contacts > 0 then Some (sq.Quadtree.ix, sq.Quadtree.iy) else None)

(* Phase 2's per-square work on the domain pool at phase 1's [jobs]: one
   queue item per task, since a coarse square costs far more than a fine
   one. Each task writes only its own result slot, so results come back in
   input order whatever the schedule; [jobs <= 1] runs on the caller. *)
let pool_map rb f tasks =
  Pool.with_pool ~jobs:(Rowbasis.jobs rb) (fun pool -> Pool.map_chunks ~chunk:1 pool f tasks)

(* ------------------------------------------------------------------ *)
(* Fine-to-coarse sweep. *)

let build ?(sigma_rel_tol = 0.01) ?(max_rank = 6) rb =
  Trace.with_span "lowrank.phase2_sweep" @@ fun () ->
  let tree = Rowbasis.tree rb in
  let max_level = Quadtree.max_level tree in
  let n = Quadtree.squares_at_level tree 0 |> fun a -> Array.length a.(0).Quadtree.contacts in
  let squares : (int * int * int, phase2_square) Hashtbl.t = Hashtbl.create 256 in
  let level_order = Array.make (max_level + 1) [] in
  let square ~level (ix, iy) contacts u t =
    { coords = (ix, iy); level; contacts; u; t; t_offset = -1; u_offset = -1 }
  in
  (* Finest level: U = V, T = W (thesis §4.4.2). *)
  let finest (ix, iy) =
    Option.map
      (fun (d : Rowbasis.square_data) ->
        let w = match d.w with Some w -> w | None -> Mat.create (Array.length d.contacts) 0 in
        (* With no contacts in the interactive region there was nothing to
           discriminate fast- from slow-decaying vectors against (the
           thesis's "very irregular contact layouts" caveat, §4.3.3):
           conservatively keep the whole space slow-decaying so coarser
           levels, which do see far contacts, make the split. *)
        let inter_empty =
          List.for_all
            (fun (jx, jy) ->
              Array.length (Quadtree.contacts_of tree ~level:max_level ~ix:jx ~iy:jy) = 0)
            (Quadtree.interactive_squares ~level:max_level ~ix ~iy)
        in
        if inter_empty then
          square ~level:max_level (ix, iy) d.contacts (Mat.hcat d.v w)
            (Mat.create (Array.length d.contacts) 0)
        else square ~level:max_level (ix, iy) d.contacts d.v w)
      (Rowbasis.find rb ~level:max_level ~ix ~iy)
  in
  (* A coarser square recombines its children's slow-decaying vectors. *)
  let coarser ~level (ix, iy) =
    Option.map
      (fun (pd : Rowbasis.square_data) ->
        let contacts = pd.contacts in
        let empty () = Mat.create (Array.length contacts) 0 in
        (* Collect the children's slow-decaying vectors in parent
           coordinates. *)
        let cols =
          List.concat_map
            (fun (cx, cy) ->
              match Hashtbl.find_opt squares (level + 1, cx, cy) with
              | None -> []
              | Some child ->
                List.init (Mat.cols child.u) (fun j ->
                    Regions.embed ~within:contacts ~sub:child.contacts (Mat.col child.u j)))
            (Quadtree.children_coords ~ix ~iy)
        in
        match cols with
        | [] -> square ~level (ix, iy) contacts (empty ()) (empty ())
        | _ ->
          let x = Mat.of_cols cols in
          let k_cols = Mat.cols x in
          (* Interaction of the recombined vectors with the interactive
             region, through the phase-1 representation. *)
          let blocks = Rowbasis.interaction_block rb ~src:pd x in
          let inter_rows = Array.fold_left (fun acc (_, blk) -> acc + Mat.rows blk) 0 blocks in
          if inter_rows = 0 then
            (* No interactive contacts to discriminate against: keep all
               recombined vectors slow-decaying (conservative). *)
            square ~level (ix, iy) contacts x (empty ())
          else begin
            (* Padding rows of zeros (when inter_rows < k_cols) leave
               singular values and right vectors unchanged but keep the
               SVD's right factor full. *)
            let b = Mat.create (max inter_rows k_cols) k_cols in
            let row0 = ref 0 in
            Array.iter
              (fun (_, blk) ->
                for r = 0 to Mat.rows blk - 1 do
                  for j = 0 to k_cols - 1 do
                    Mat.set b (!row0 + r) j (Mat.get blk r j)
                  done
                done;
                row0 := !row0 + Mat.rows blk)
              blocks;
            let f = La.Svd.decomp b in
            let k = Rowbasis.keep_rule ~sigma_rel_tol ~max_rank f.La.Svd.s in
            let vfull = f.La.Svd.v in
            let u_coeff = Mat.sub_matrix vfull ~row:0 ~col:0 ~rows:k_cols ~cols:k in
            let t_coeff = Mat.sub_matrix vfull ~row:0 ~col:k ~rows:k_cols ~cols:(k_cols - k) in
            square ~level (ix, iy) contacts (Mat.mul x u_coeff) (Mat.mul x t_coeff)
          end)
      (Rowbasis.find rb ~level ~ix ~iy)
  in
  (* A square's entry reads only the finer level's, so each level's
     squares run on the pool; they enter [squares] and [level_order]
     afterwards in the quadtree's order, keeping the table's iteration
     order. *)
  for level = max_level downto 2 do
    let entry = if level = max_level then finest else coarser ~level in
    Array.iter
      (Option.iter (fun (sq : phase2_square) ->
           let ix, iy = sq.coords in
           Hashtbl.replace squares (level, ix, iy) sq;
           level_order.(level) <- sq.coords :: level_order.(level)))
      (pool_map rb entry (Array.of_list (nonempty tree level)))
  done;
  (* Morton ordering and Q column offsets: level-2 U first, then T by level
     coarse to fine. *)
  Array.iteri
    (fun l sqs ->
      level_order.(l) <-
        List.sort
          (fun (ax, ay) (bx, by) -> Int.compare (Wavelet.morton ~ix:ax ~iy:ay) (Wavelet.morton ~ix:bx ~iy:by))
          sqs)
    level_order;
  let next = ref 0 in
  List.iter
    (fun (ix, iy) ->
      let sq = Hashtbl.find squares (2, ix, iy) in
      sq.u_offset <- !next;
      next := !next + Mat.cols sq.u)
    level_order.(2);
  for level = 2 to max_level do
    List.iter
      (fun (ix, iy) ->
        let sq = Hashtbl.find squares (level, ix, iy) in
        sq.t_offset <- !next;
        next := !next + Mat.cols sq.t)
      level_order.(level)
  done;
  if !next <> n then
    invalid_arg (Printf.sprintf "Lowrank.build: basis has %d columns for %d contacts" !next n);
  { rb; tree; n; max_level; squares; level_order }

(* ------------------------------------------------------------------ *)
(* The sparse orthogonal Q. *)

let q_matrix t =
  let coo = Coo.create t.n t.n in
  Hashtbl.iter
    (fun _ (sq : phase2_square) ->
      for j = 0 to Mat.cols sq.t - 1 do
        Coo.add_column coo ~j:(sq.t_offset + j) ~row_idx:sq.contacts (Mat.col sq.t j)
      done;
      if sq.u_offset >= 0 then
        for j = 0 to Mat.cols sq.u - 1 do
          Coo.add_column coo ~j:(sq.u_offset + j) ~row_idx:sq.contacts (Mat.col sq.u j)
        done)
    t.squares;
  Csr.of_coo coo

(* ------------------------------------------------------------------ *)
(* Local responses: approximately apply G restricted to the 3x3
   neighborhood of a square, recursing through children (interactive parts
   from the pair formula, finest-level local blocks explicit). *)

let rec local_response t ~level ~ix ~iy (x : Mat.t) : int array * Mat.t =
  let d =
    match Rowbasis.find t.rb ~level ~ix ~iy with
    | Some d -> d
    | None -> invalid_arg "Lowrank.local_response: empty square"
  in
  if level = t.max_level then (d.Rowbasis.l_region, Mat.mul (Option.get d.Rowbasis.g_local) x)
  else begin
    let region = Quadtree.region_contacts t.tree ~level (Quadtree.local_squares ~level ~ix ~iy) in
    let out = Mat.create (Array.length region) (Mat.cols x) in
    let add_block sub block =
      let pos = Regions.positions ~within:region sub in
      for r = 0 to Mat.rows block - 1 do
        for j = 0 to Mat.cols block - 1 do
          Mat.update out pos.(r) j (fun v -> v +. Mat.get block r j)
        done
      done
    in
    List.iter
      (fun (cx, cy) ->
        match Rowbasis.find t.rb ~level:(level + 1) ~ix:cx ~iy:cy with
        | None -> ()
        | Some cd ->
          let x_c = Regions.restrict_rows ~within:d.Rowbasis.contacts ~sub:cd.Rowbasis.contacts x in
          let reg_c, resp_c = local_response t ~level:(level + 1) ~ix:cx ~iy:cy x_c in
          add_block reg_c resp_c;
          Array.iter
            (fun ((dd : Rowbasis.square_data), block) -> add_block dd.contacts block)
            (Rowbasis.interaction_block t.rb ~src:cd x_c))
      (Quadtree.children_coords ~ix ~iy);
    (region, out)
  end

(* Squares at level la >= lb whose level-lb ancestor is local to (ix, iy). *)
let kept_targets t ~level ~ix ~iy ~level' =
  let shiftn = level' - level in
  List.concat_map
    (fun (jx, jy) ->
      let acc = ref [] in
      for cy = jy lsl shiftn to ((jy + 1) lsl shiftn) - 1 do
        for cx = jx lsl shiftn to ((jx + 1) lsl shiftn) - 1 do
          match find t ~level:level' ~ix:cx ~iy:cy with Some sq -> acc := sq :: !acc | None -> ()
        done
      done;
      !acc)
    (Quadtree.local_squares ~level ~ix ~iy)

(* ------------------------------------------------------------------ *)
(* Fill G_w and assemble the representation. *)

(* A dense block of G_w writes: entry (i, j) sets G_w(row0 + i, col0 + j)
   and its mirror G_w(col0 + j, row0 + i), in row-major order. *)
type writes = { row0 : int; col0 : int; block : Mat.t }

(* Replay every block in order into CSR. A later write to (i, j) replaces
   an earlier one and an exact zero writes nothing, so each entry keeps the
   last nonzero written to it; each row is bucketed in write order, then
   emitted in column order. *)
let assemble_gw n (blocks : writes list) =
  let iter_nonzero f =
    List.iter
      (fun { row0; col0; block } ->
        for i = 0 to Mat.rows block - 1 do
          for j = 0 to Mat.cols block - 1 do
            let v = Mat.get block i j in
            (* Exact-zero drop: keep structurally absent entries out of G_w. *)
            if not (Float.equal v 0.0) then f (row0 + i) (col0 + j) v
          done
        done)
      blocks
  in
  let start = Array.make (n + 1) 0 in
  iter_nonzero (fun i j _ ->
      start.(i + 1) <- start.(i + 1) + 1;
      start.(j + 1) <- start.(j + 1) + 1);
  for i = 0 to n - 1 do
    start.(i + 1) <- start.(i + 1) + start.(i)
  done;
  let fill = Array.sub start 0 n in
  let cols = Array.make start.(n) 0 and vals = Array.make start.(n) 0.0 in
  let push i j v =
    cols.(fill.(i)) <- j;
    vals.(fill.(i)) <- v;
    fill.(i) <- fill.(i) + 1
  in
  iter_nonzero (fun i j v ->
      push i j v;
      push j i v);
  (* Per row: the last write to each column, then the columns ascending. *)
  let last = Array.make n (-1) in
  let row_ptr = Array.make (n + 1) 0 in
  let col_idx = Array.make start.(n) 0 and values = Array.make start.(n) 0.0 in
  for i = 0 to n - 1 do
    let distinct = ref [] in
    for k = start.(i) to start.(i + 1) - 1 do
      let j = cols.(k) in
      if last.(j) < 0 then distinct := j :: !distinct;
      last.(j) <- k
    done;
    let row = Array.of_list !distinct in
    Array.sort Int.compare row;
    Array.iteri
      (fun k j ->
        col_idx.(row_ptr.(i) + k) <- j;
        values.(row_ptr.(i) + k) <- vals.(last.(j));
        last.(j) <- -1)
      row;
    row_ptr.(i + 1) <- row_ptr.(i) + Array.length row
  done;
  let nnz = row_ptr.(n) in
  Csr.pack ~rows:n ~cols:n ~row_ptr ~col_idx:(Array.sub col_idx 0 nnz) ~values:(Array.sub values 0 nnz)

let representation t =
  Trace.with_span "lowrank.fill_gw" @@ fun () ->
  (* T-T interactions between mutually local squares (cross-level rule as in
     the wavelet method), one pool task per square with T vectors. *)
  let tt_sources =
    List.concat_map
      (fun level ->
        List.filter_map
          (fun (ix, iy) ->
            let b = Hashtbl.find t.squares (level, ix, iy) in
            if Mat.cols b.t > 0 then Some b else None)
          t.level_order.(level))
      (List.init (t.max_level - 1) (fun k -> k + 2))
  in
  let tt_writes (b : phase2_square) =
    let ix, iy = b.coords in
    let region, resp = local_response t ~level:b.level ~ix ~iy b.t in
    List.concat_map
      (fun level' ->
        List.filter_map
          (fun (a : phase2_square) ->
            if Mat.cols a.t = 0 then None
            else begin
              let resp_a = Regions.restrict_rows ~within:region ~sub:a.contacts resp in
              Some { row0 = a.t_offset; col0 = b.t_offset; block = Mat.mul (Mat.transpose a.t) resp_a }
            end)
          (kept_targets t ~level:b.level ~ix ~iy ~level'))
      (List.init (t.max_level - b.level + 1) (fun k -> b.level + k))
  in
  let tt = pool_map t.rb tt_writes (Array.of_list tt_sources) in
  (* Level-2 U interactions with everything, through the full phase-1
     operator: one batch for every U column. *)
  let u_cols =
    Array.of_list
      (List.concat_map
         (fun (ix, iy) ->
           let s = Hashtbl.find t.squares (2, ix, iy) in
           List.init (Mat.cols s.u) (fun j -> (s, j)))
         t.level_order.(2))
  in
  let ys =
    Subcouple_op.apply_batch ~jobs:(Rowbasis.jobs t.rb) (Rowbasis.op t.rb)
      (Array.map (fun (s, j) -> Regions.scatter ~n:t.n s.contacts (Mat.col s.u j)) u_cols)
  in
  (* Every square, in the table's iteration order. *)
  let all_squares = Hashtbl.fold (fun _ sq acc -> sq :: acc) t.squares [] |> List.rev in
  let u_writes k =
    let s, j = u_cols.(k) in
    let col = s.u_offset + j in
    List.concat_map
      (fun (a : phase2_square) ->
        let y_a = Regions.gather a.contacts ys.(k) in
        let coeffs basis row0 = { row0; col0 = col; block = Mat.of_cols [ Mat.gemv_t basis y_a ] } in
        if a.u_offset >= 0 then [ coeffs a.t a.t_offset; coeffs a.u a.u_offset ]
        else [ coeffs a.t a.t_offset ])
      all_squares
  in
  let u = pool_map t.rb u_writes (Array.init (Array.length u_cols) Fun.id) in
  (* Merge sequentially in one fixed order: T-T by level, then Morton
     order, then the U columns. Same-level neighbours write each other's
     blocks, so this order, not the schedule, decides which write lands
     last. *)
  let gw = assemble_gw t.n (List.concat (Array.to_list tt @ Array.to_list u)) in
  Repr.make ~q:(q_matrix t) ~gw ~solves:(Rowbasis.solves t.rb)

(* ------------------------------------------------------------------ *)
(* Whole pipeline: phase 1 + phase 2 from a layout and a black box. *)

let extract ?max_level ?sigma_rel_tol ?max_rank ?seed ?symmetric_refinement ?samples_per_square ?jobs
    ?checkpoint layout blackbox =
  let max_level =
    match max_level with
    | Some l -> l
    | None -> max 2 (Quadtree.suggest_max_level ~target:8 layout)
  in
  let tree = Quadtree.create ~max_level layout in
  (* All black-box solves happen in phase 1, so the checkpoint lives
     there; phase 2 is deterministic post-processing. *)
  let rb =
    Rowbasis.build ?sigma_rel_tol ?max_rank ?seed ?symmetric_refinement ?samples_per_square ?jobs
      ?checkpoint tree layout blackbox
  in
  let t = build ?sigma_rel_tol ?max_rank rb in
  representation t
