module Quadtree = Geometry.Quadtree
module Layout = Geometry.Layout
module Blackbox = Substrate.Blackbox
module Mat = La.Mat
module Vec = La.Vec

(* Phase 1 of the low-rank method (thesis §4.3): the multilevel row-basis
   representation.

   For every square s on levels 2..L, a small orthonormal "row basis" V_s
   (at most [max_rank] columns) approximately spans the row space of the
   interaction block G(I_s, s), together with the responses G(P_s, s) V_s
   on s's local-plus-interactive region P_s. The bases are found by random
   sampling (one random sample vector per square, shared between that
   square's interactive neighbors) and an SVD (eq. (4.19)); the responses
   on finer levels are obtained with the splitting method (eq. (4.22)),
   whose raw combine-solves output is refined through the symmetric
   identity (4.24). On the finest level the local interactions are stored
   explicitly via (4.26).

   The representation alone already supports an O(n log n) application of
   G (thesis §4.3.2, with the symmetry refinement (4.16)); phase 2
   (Lowrank) turns it into the wavelet-structured Q G_w Q' form. *)

type square_data = {
  coords : int * int;
  level : int;
  contacts : int array;  (* global contact ids, ascending *)
  v : Mat.t;  (* row basis, n_s x k_s *)
  gpv : Mat.t;  (* responses G(P_s, s) V_s, |P_s| x k_s *)
  p_region : int array;  (* contacts of I_s + L_s *)
  (* finest level only: *)
  w : Mat.t option;  (* orthogonal complement of V_s *)
  g_local : Mat.t option;  (* G(L_s, s) approximation, |L_s| x n_s *)
  l_region : int array;
}

(* One interactive (source, destination) pair of the pair formula (4.16),
   holding both blocks the formula reads, each restricted once. *)
type pair = {
  dst : square_data;
  gds_vs : Mat.t;  (* G(dst, src) V_src: the source's responses at dst's contacts *)
  gsd_vd : Mat.t option;  (* G(src, dst) V_dst at src's contacts; symmetric refinement only *)
}

(* A square of the pair plan with its interactive destinations, in
   [Quadtree.interactive_squares] order. *)
type source = {
  src : square_data;
  pairs : pair array;
}

type t = {
  tree : Quadtree.t;
  layout : Layout.t;
  n : int;
  max_level : int;
  squares : (int * int * int, source) Hashtbl.t;
  plan : source array array;  (* per level, the squares in the order [apply] accumulates them *)
  solves : int;
  jobs : int;  (* the parallelism phase 1 ran at; phase 2 reuses it *)
}

let find t ~level ~ix ~iy =
  Option.map (fun s -> s.src) (Hashtbl.find_opt t.squares (level, ix, iy))

let tree t = t.tree
let solves t = t.solves
let jobs t = t.jobs

(* Keep rule for singular values (thesis §4.6): sigma >= sigma_1 / 100,
   capped at [max_rank] (= 6, matching the p = 2 moment count). Phase 2
   and the pairwise baseline apply the same rule. *)
let keep_rule ~sigma_rel_tol ~max_rank (s : float array) =
  if Array.length s = 0 then 0
  else begin
    let s1 = s.(0) in
    let k = ref 0 in
    Array.iteri (fun i sigma -> if i < max_rank && sigma >= sigma_rel_tol *. s1 && sigma > 0.0 then incr k) s;
    !k
  end

let nonempty_squares tree level =
  Array.to_list (Quadtree.squares_at_level tree level)
  |> List.filter_map (fun (sq : Quadtree.square) ->
         if Array.length sq.Quadtree.contacts > 0 then Some (sq.Quadtree.ix, sq.Quadtree.iy) else None)

(* --------------------------------------------------------------------- *)
(* Context carried through the build. *)

type ctx = {
  c_tree : Quadtree.t;
  c_n : int;
  c_bb : Blackbox.t;
  c_data : (int * int * int, square_data) Hashtbl.t;
  c_refine : bool;
  c_sigma_rel_tol : float;
  c_max_rank : int;
  c_jobs : int;  (* parallelism for batched black-box solves *)
}

let get ctx ~level ~ix ~iy = Hashtbl.find_opt ctx.c_data (level, ix, iy)

let p_region_of ctx ~level ~ix ~iy =
  Quadtree.region_contacts ctx.c_tree ~level
    (Quadtree.local_squares ~level ~ix ~iy @ Quadtree.interactive_squares ~level ~ix ~iy)

(* Restrict a stored response matrix (rows over d.p_region) to the rows of a
   contact subset. *)
let gpv_rows (d : square_data) sub = Regions.restrict_rows ~within:d.p_region ~sub d.gpv

(* --------------------------------------------------------------------- *)
(* Splitting method (thesis §4.3.3, Fig 4-7): responses G(P_s, s) X_s for
   per-square column sets X_s at [level], using the parent-level row bases
   and combine-solves on the V_p-orthogonal remainders. [region_of] gives
   each square's P-region P_s. *)

(* One square's share of the splitting method, with its index work done
   once rather than once per column. *)
type member = {
  m_coords : int * int;
  m_region : int array;  (* P_s *)
  m_parent : square_data;
  m_alpha : Mat.t;  (* V_p' emb, k_p x k *)
  m_o : Mat.t;  (* V_p-orthogonal remainder emb - V_p alpha *)
  m_parent_pos : int array;  (* positions of P_s within P_p *)
  m_locals : (square_data * Mat.t option * int array) list;
      (* per local square q of the parent: q, G(p, q) V_q when refining,
         and q's contacts' positions within P_s *)
}

let split_responses ctx ~level ~region_of ~(vectors : (int * int) -> Mat.t option) =
  Trace.with_span "rowbasis.split_responses" @@ fun () ->
  let squares = nonempty_squares ctx.c_tree level in
  let out : (int * int, Mat.t) Hashtbl.t = Hashtbl.create 64 in
  (* Prepare per-square decompositions. *)
  let prepared =
    List.filter_map
      (fun (ix, iy) ->
        match vectors (ix, iy) with
        | None -> None
        | Some x when Mat.cols x = 0 ->
          Hashtbl.replace out (ix, iy) (Mat.create (Array.length (region_of (ix, iy))) 0);
          None
        | Some x ->
          let px, py = Quadtree.parent_coords ~ix ~iy in
          let p =
            match get ctx ~level:(level - 1) ~ix:px ~iy:py with
            | Some p -> p
            | None -> invalid_arg "Rowbasis.split_responses: missing parent data"
          in
          let contacts = Quadtree.contacts_of ctx.c_tree ~level ~ix ~iy in
          (* Embed x into parent coordinates and split against the parent's
             row basis: emb = r + o with r in span(V_p). *)
          let emb =
            Mat.of_cols
              (List.init (Mat.cols x) (fun j ->
                   Regions.embed ~within:p.contacts ~sub:contacts (Mat.col x j)))
          in
          let alpha = Mat.mul (Mat.transpose p.v) emb in
          (* k_p x k *)
          let o = Mat.sub emb (Mat.mul p.v alpha) in
          let region = region_of (ix, iy) in
          (* Remainder part: the refined combine-solves output of each local
             square q of the parent (eq. (4.24)) lands at q's contacts
             within P_s (L_p refines into P_s exactly). *)
          let locals =
            List.filter_map
              (fun (qx, qy) ->
                Option.map
                  (fun (q : square_data) ->
                    let gpq_vq =
                      if ctx.c_refine && Mat.cols q.v > 0 then Some (gpv_rows q p.contacts) else None
                    in
                    (q, gpq_vq, Regions.positions ~within:region q.contacts))
                  (get ctx ~level:(level - 1) ~ix:qx ~iy:qy))
              (Quadtree.local_squares ~level:(level - 1) ~ix:px ~iy:py)
          in
          Some
            {
              m_coords = (ix, iy);
              m_region = region;
              m_parent = p;
              m_alpha = alpha;
              m_o = o;
              m_parent_pos = Regions.positions ~within:p.p_region region;
              m_locals = locals;
            })
      squares
  in
  let max_cols = List.fold_left (fun acc mb -> max acc (Mat.cols mb.m_o)) 0 prepared in
  (* Combine-solves over the 36 child groups. *)
  let groups = Combine.groups_of_children (List.map (fun mb -> mb.m_coords) prepared) in
  let member_of = Hashtbl.create 64 in
  List.iter (fun mb -> Hashtbl.replace member_of mb.m_coords mb) prepared;
  (* Initialize output matrices. *)
  List.iter
    (fun mb ->
      Hashtbl.replace out mb.m_coords (Mat.create (Array.length mb.m_region) (Mat.cols mb.m_o)))
    prepared;
  (* Every (column index, group) pair is one independent combined solve:
     collect the summed right-hand sides in loop order, solve them as one
     batch, then unpack each response in the same order. *)
  let tasks = ref [] in
  for m = 0 to max_cols - 1 do
    Array.iter
      (fun group ->
        let members =
          List.filter_map
            (fun c ->
              match Hashtbl.find_opt member_of c with
              | Some mb when Mat.cols mb.m_o > m -> Some mb
              | _ -> None)
            group
        in
        let summed =
          List.map
            (fun mb -> Regions.scatter ~n:ctx.c_n mb.m_parent.contacts (Mat.col mb.m_o m))
            members
        in
        match Combine.sum_vectors summed with
        | None -> ()
        | Some sum -> tasks := (m, members, sum) :: !tasks)
      groups
  done;
  let tasks = Array.of_list (List.rev !tasks) in
  let ys = Blackbox.apply_batch ~jobs:ctx.c_jobs ctx.c_bb (Array.map (fun (_, _, sum) -> sum) tasks) in
  Array.iteri
    (fun k (m, members, _) ->
      let y = ys.(k) in
      List.iter
        (fun mb ->
          let resp = Array.make (Array.length mb.m_region) 0.0 in
          (* Row-basis part from the parent: (G(P_p, p) V_p) alpha,
             restricted to P_s. *)
          let parent_part = Mat.gemv mb.m_parent.gpv (Mat.col mb.m_alpha m) in
          Vec.add_inplace resp (Regions.gather mb.m_parent_pos parent_part);
          let o_m = Mat.col mb.m_o m in
          List.iter
            (fun ((q : square_data), gpq_vq, pos) ->
              let raw = Regions.gather q.contacts y in
              let refined =
                match gpq_vq with
                | Some gpq_vq ->
                  (* V_q ((G(p,q) V_q))' o + (I - V_q V_q') raw *)
                  let coeff = Mat.gemv_t gpq_vq o_m in
                  let term1 = Mat.gemv q.v coeff in
                  let proj = Mat.gemv q.v (Mat.gemv_t q.v raw) in
                  Vec.add term1 (Vec.sub raw proj)
                | None -> raw
              in
              Array.iteri (fun k pos_k -> resp.(pos_k) <- resp.(pos_k) +. refined.(k)) pos)
            mb.m_locals;
          Mat.set_col (Hashtbl.find out mb.m_coords) m resp)
        members)
    tasks;
  out

(* --------------------------------------------------------------------- *)
(* The pair plan: every level's squares in the table's iteration order
   (the order [apply] accumulates in), each with its interactive
   destinations and the blocks the pair formula reads, restricted here
   once instead of on every application. *)

let plan_floats_counter = Trace.counter "rowbasis.plan_floats"

let build_plan ~refine ~max_level data =
  let by_level = Array.make (max_level + 1) [] in
  Hashtbl.iter (fun (l, _, _) d -> by_level.(l) <- d :: by_level.(l)) data;
  let source (src : square_data) =
    let ix, iy = src.coords in
    let pairs =
      List.filter_map
        (fun (jx, jy) ->
          Option.map
            (fun (dst : square_data) ->
              let gsd_vd =
                if refine && Mat.cols dst.v > 0 then Some (gpv_rows dst src.contacts) else None
              in
              { dst; gds_vs = gpv_rows src dst.contacts; gsd_vd })
            (Hashtbl.find_opt data (src.level, jx, jy)))
        (Quadtree.interactive_squares ~level:src.level ~ix ~iy)
    in
    { src; pairs = Array.of_list pairs }
  in
  (* [by_level] lists are reversed; [rev_map] restores table order. *)
  let plan = Array.map (fun rev -> Array.of_list (List.rev_map source rev)) by_level in
  let size m = Mat.rows m * Mat.cols m in
  let pair_floats acc p = acc + size p.gds_vs + match p.gsd_vd with Some m -> size m | None -> 0 in
  Trace.incr plan_floats_counter
    ~by:(Array.fold_left (Array.fold_left (fun acc s -> Array.fold_left pair_floats acc s.pairs)) 0 plan);
  plan

(* --------------------------------------------------------------------- *)
(* Build the representation. *)

let build ?(sigma_rel_tol = 0.01) ?(max_rank = 6) ?(seed = 20020524) ?(symmetric_refinement = true)
    ?(samples_per_square = 1) ?(jobs = 1) ?checkpoint tree layout blackbox =
  if samples_per_square < 1 then invalid_arg "Rowbasis.build: samples_per_square must be positive";
  (* Every solve below goes through [apply_batch] in a deterministic stage
     order (level-2 samples, level-2 responses, then per level one sample
     and one response stage, finally the complements), so each batch is one
     resumable checkpoint stage. *)
  let blackbox =
    match checkpoint with
    | Some ck -> Substrate.Checkpoint.wrap ck blackbox
    | None -> blackbox
  in
  let max_level = Quadtree.max_level tree in
  if max_level < 2 then invalid_arg "Rowbasis.build: max_level must be at least 2";
  let n = Layout.n_contacts layout in
  let rng = La.Rng.create seed in
  let ctx =
    {
      c_tree = tree;
      c_n = n;
      c_bb = blackbox;
      c_data = Hashtbl.create 256;
      c_refine = symmetric_refinement;
      c_sigma_rel_tol = sigma_rel_tol;
      c_max_rank = max_rank;
      c_jobs = max 1 jobs;
    }
  in
  (* Build the row basis of one square from the sample responses of its
     interactive squares. [sample_of coords] gives (response over the
     sampled square's P region, that P region). *)
  let basis_from_samples ~level ~ix ~iy ~contacts sample_of =
    (* Each interactive square may contribute several sample-response
       columns ([samples_per_square] > 1 is the thesis's own mitigation for
       sparse interactive regions, §4.3.3). *)
    let cols =
      List.concat_map
        (fun (jx, jy) ->
          match sample_of (jx, jy) with
          | None -> []
          | Some (resp, region) ->
            let restricted = Regions.restrict_rows ~within:region ~sub:contacts resp in
            List.init (Mat.cols restricted) (Mat.col restricted))
        (Quadtree.interactive_squares ~level ~ix ~iy)
    in
    match cols with
    | [] -> Mat.create (Array.length contacts) 0
    | _ ->
      let s = Mat.of_cols cols in
      let f = La.Svd.decomp s in
      let k = keep_rule ~sigma_rel_tol:ctx.c_sigma_rel_tol ~max_rank:ctx.c_max_rank f.La.Svd.s in
      Mat.sub_matrix f.La.Svd.u ~row:0 ~col:0 ~rows:(Array.length contacts) ~cols:k
  in
  (* ---- Level 2: direct solves, batched. The random sample vectors are
     drawn sequentially (preserving the rng stream) before the solves are
     issued as one batch. ---- *)
  let level2 = nonempty_squares tree 2 in
  let samples2 : (int * int, Mat.t) Hashtbl.t = Hashtbl.create 16 in
  let sample_rhs =
    List.concat_map
      (fun (ix, iy) ->
        let contacts = Quadtree.contacts_of tree ~level:2 ~ix ~iy in
        let k = min samples_per_square (Array.length contacts) in
        List.init k (fun _ ->
            let m_s = La.Rng.gaussian_array rng (Array.length contacts) in
            Regions.scatter ~n contacts m_s))
      level2
  in
  let sample_ys =
    Trace.with_span "rowbasis.level2_samples" (fun () ->
        Blackbox.apply_batch ~jobs:ctx.c_jobs blackbox (Array.of_list sample_rhs))
  in
  (* [sample_rhs] holds each square's vectors consecutively, in square
     order; regroup the responses the same way. *)
  let idx = ref 0 in
  List.iter
    (fun (ix, iy) ->
      let contacts = Quadtree.contacts_of tree ~level:2 ~ix ~iy in
      let k = min samples_per_square (Array.length contacts) in
      let ys = List.init k (fun j -> sample_ys.(!idx + j)) in
      idx := !idx + k;
      Hashtbl.replace samples2 (ix, iy) (Mat.of_cols ys))
    level2;
  let gpv_tasks = ref [] in
  let level2_entries =
    List.map
      (fun (ix, iy) ->
        let contacts = Quadtree.contacts_of tree ~level:2 ~ix ~iy in
        let v =
          basis_from_samples ~level:2 ~ix ~iy ~contacts (fun c ->
              match Hashtbl.find_opt samples2 c with
              | None -> None
              | Some y -> Some (y, Array.init n Fun.id))
        in
        let p_region = p_region_of ctx ~level:2 ~ix ~iy in
        let gpv = Mat.create (Array.length p_region) (Mat.cols v) in
        for j = 0 to Mat.cols v - 1 do
          gpv_tasks := (gpv, j, p_region, Regions.scatter ~n contacts (Mat.col v j)) :: !gpv_tasks
        done;
        ((ix, iy), contacts, v, gpv, p_region))
      level2
  in
  let gpv_tasks = Array.of_list (List.rev !gpv_tasks) in
  let gpv_ys =
    Trace.with_span "rowbasis.level2_responses" (fun () ->
        Blackbox.apply_batch ~jobs:ctx.c_jobs blackbox
          (Array.map (fun (_, _, _, rhs) -> rhs) gpv_tasks))
  in
  Array.iteri
    (fun k (gpv, j, p_region, _) -> Mat.set_col gpv j (Regions.gather p_region gpv_ys.(k)))
    gpv_tasks;
  List.iter
    (fun ((ix, iy), contacts, v, gpv, p_region) ->
      Hashtbl.replace ctx.c_data (2, ix, iy)
        { coords = (ix, iy); level = 2; contacts; v; gpv; p_region; w = None; g_local = None; l_region = [||] })
    level2_entries;
  (* ---- Levels 3..max: sampling and responses via the splitting method. ---- *)
  for level = 3 to max_level do
    let squares = nonempty_squares tree level in
    (* Each square's P-region, computed once for the level's three uses. *)
    let regions : (int * int, int array) Hashtbl.t = Hashtbl.create 64 in
    List.iter (fun (ix, iy) -> Hashtbl.replace regions (ix, iy) (p_region_of ctx ~level ~ix ~iy)) squares;
    let region_of = Hashtbl.find regions in
    (* Per-square random sample vectors. *)
    let sample_vectors : (int * int, Mat.t) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (ix, iy) ->
        let contacts = Quadtree.contacts_of tree ~level ~ix ~iy in
        let k = min samples_per_square (Array.length contacts) in
        Hashtbl.replace sample_vectors (ix, iy)
          (Mat.of_cols (List.init k (fun _ -> La.Rng.gaussian_array rng (Array.length contacts)))))
      squares;
    let sample_resps =
      Trace.with_span "rowbasis.level_sampling" (fun () ->
          split_responses ctx ~level ~region_of ~vectors:(Hashtbl.find_opt sample_vectors))
    in
    (* Row bases from the sampled responses. *)
    let bases : (int * int, Mat.t) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (ix, iy) ->
        let contacts = Quadtree.contacts_of tree ~level ~ix ~iy in
        let v =
          basis_from_samples ~level ~ix ~iy ~contacts (fun (jx, jy) ->
              match Hashtbl.find_opt sample_resps (jx, jy) with
              | None -> None
              | Some resp when Mat.cols resp = 0 -> None
              | Some resp -> Some (resp, region_of (jx, jy)))
        in
        Hashtbl.replace bases (ix, iy) v)
      squares;
    (* Responses to the row bases, again via splitting. *)
    let gpvs =
      Trace.with_span "rowbasis.level_responses" (fun () ->
          split_responses ctx ~level ~region_of ~vectors:(Hashtbl.find_opt bases))
    in
    List.iter
      (fun (ix, iy) ->
        let contacts = Quadtree.contacts_of tree ~level ~ix ~iy in
        let v = Hashtbl.find bases (ix, iy) in
        let gpv = Hashtbl.find gpvs (ix, iy) in
        Hashtbl.replace ctx.c_data (level, ix, iy)
          {
            coords = (ix, iy);
            level;
            contacts;
            v;
            gpv;
            p_region = region_of (ix, iy);
            w = None;
            g_local = None;
            l_region = [||];
          })
      squares
  done;
  (* ---- Finest level: explicit local interactions (eq. (4.26)). ---- *)
  let finest = nonempty_squares tree max_level in
  let complements : (int * int, Mat.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (ix, iy) ->
      let d = Hashtbl.find ctx.c_data (max_level, ix, iy) in
      let w =
        if Mat.cols d.v = 0 then Mat.identity (Array.length d.contacts) else La.Qr.complement d.v
      in
      Hashtbl.replace complements (ix, iy) w)
    finest;
  (* Responses to the complements: splitting method on deep trees, direct
     solves when the finest level is level 2 itself. *)
  let w_resps : (int * int, Mat.t) Hashtbl.t = Hashtbl.create 64 in
  if max_level = 2 then begin
    let w_tasks = ref [] in
    List.iter
      (fun (ix, iy) ->
        let d = Hashtbl.find ctx.c_data (2, ix, iy) in
        let w = Hashtbl.find complements (ix, iy) in
        let resp = Mat.create (Array.length d.p_region) (Mat.cols w) in
        for j = 0 to Mat.cols w - 1 do
          w_tasks := (resp, j, d.p_region, Regions.scatter ~n d.contacts (Mat.col w j)) :: !w_tasks
        done;
        Hashtbl.replace w_resps (ix, iy) resp)
      finest;
    let w_tasks = Array.of_list (List.rev !w_tasks) in
    let w_ys =
      Trace.with_span "rowbasis.finest_complements" (fun () ->
          Blackbox.apply_batch ~jobs:ctx.c_jobs blackbox
            (Array.map (fun (_, _, _, rhs) -> rhs) w_tasks))
    in
    Array.iteri
      (fun k (resp, j, p_region, _) -> Mat.set_col resp j (Regions.gather p_region w_ys.(k)))
      w_tasks
  end
  else begin
    let region_of (ix, iy) = (Hashtbl.find ctx.c_data (max_level, ix, iy)).p_region in
    let resps =
      Trace.with_span "rowbasis.finest_complements" (fun () ->
          split_responses ctx ~level:max_level ~region_of ~vectors:(Hashtbl.find_opt complements))
    in
    List.iter (fun c -> Hashtbl.replace w_resps c (Hashtbl.find resps c)) finest
  end;
  List.iter
    (fun (ix, iy) ->
      let d = Hashtbl.find ctx.c_data (max_level, ix, iy) in
      let w = Hashtbl.find complements (ix, iy) in
      let l_region =
        Quadtree.region_contacts tree ~level:max_level (Quadtree.local_squares ~level:max_level ~ix ~iy)
      in
      let glw = Regions.restrict_rows ~within:d.p_region ~sub:l_region (Hashtbl.find w_resps (ix, iy)) in
      let glv = Regions.restrict_rows ~within:d.p_region ~sub:l_region d.gpv in
      (* G(L_s, s) ~ (G(L_s,s) V) V' + (G(L_s,s) W) W'. *)
      let g_local = Mat.add (Mat.mul glv (Mat.transpose d.v)) (Mat.mul glw (Mat.transpose w)) in
      Hashtbl.replace ctx.c_data (max_level, ix, iy)
        { d with w = Some w; g_local = Some g_local; l_region })
    finest;
  let plan = build_plan ~refine:symmetric_refinement ~max_level ctx.c_data in
  let squares = Hashtbl.create 256 in
  Array.iter
    (Array.iter (fun s ->
         let ix, iy = s.src.coords in
         Hashtbl.replace squares (s.src.level, ix, iy) s))
    plan;
  {
    tree;
    layout;
    n;
    max_level;
    squares;
    plan;
    solves = Blackbox.solve_count blackbox;
    jobs = ctx.c_jobs;
  }

(* --------------------------------------------------------------------- *)
(* Apply the represented operator (thesis §4.3.2). *)

(* The pair formula (4.16) for one source column [x] against every
   interactive destination: G(d, s) x ~ (G(d, s) V_s) V_s' x, plus
   V_d (G(s, d) V_d)' (I - V_s V_s') x under the symmetric refinement. *)
let pair_responses (s : source) (x : Vec.t) =
  let alpha = Mat.gemv_t s.src.v x in
  let resid = Vec.sub x (Mat.gemv s.src.v alpha) in
  Array.map
    (fun p ->
      let term1 = Mat.gemv p.gds_vs alpha in
      match p.gsd_vd with
      | Some gsd_vd -> Vec.add term1 (Mat.gemv p.dst.v (Mat.gemv_t gsd_vd resid))
      | None -> term1)
    s.pairs

let apply t (v : Vec.t) : Vec.t =
  if Array.length v <> t.n then invalid_arg "Rowbasis.apply: dimension mismatch";
  let out = Array.make t.n 0.0 in
  for level = 2 to t.max_level do
    Array.iter
      (fun s ->
        let responses = pair_responses s (Regions.gather s.src.contacts v) in
        Array.iteri (fun k p -> Regions.scatter_add p.dst.contacts responses.(k) out) s.pairs)
      t.plan.(level)
  done;
  (* Finest-level local blocks. *)
  Array.iter
    (fun s ->
      match s.src.g_local with
      | None -> ()
      | Some g_local ->
        let v_s = Regions.gather s.src.contacts v in
        Regions.scatter_add s.src.l_region (Mat.gemv g_local v_s) out)
    t.plan.(t.max_level);
  out

(* Floats stored by the representation: per square the basis V_s and the
   responses G(P_s, s) V_s, plus the finest level's complement W_s and
   local block. This is the storage the thesis compares against the
   pairwise baseline (Table 4.2). The pair plan only copies rows of the
   responses and is not counted. *)
let storage_floats t =
  let size m = Mat.rows m * Mat.cols m in
  Hashtbl.fold
    (fun _ { src = d; _ } acc ->
      acc + size d.v + size d.gpv
      + (match d.w with Some w -> size w | None -> 0)
      + (match d.g_local with Some g -> size g | None -> 0))
    t.squares 0

(* Phase 1 as an operator. The plan is immutable and shared by parallel
   batch applications; each right-hand side accumulates into its own
   output vector, so batches stay bit-identical for every [jobs].
   Without the (4.16)/(4.24) symmetric refinement the approximation is not
   symmetric, and even with it symmetry is approximate — [symmetric] is
   reported false. *)
let op t =
  Subcouple_op.make ~pure:true ~storage_floats:(storage_floats t)
    ~solves_spent:(fun () -> t.solves)
    ~describe:
      {
        Subcouple_op.kind = "rowbasis";
        source =
          Printf.sprintf "multilevel row-basis representation (phase 1, levels 2..%d)" t.max_level;
        symmetric = false;
      }
    ~n:t.n (apply t)

module _ : Subcouple_op.S with type repr = t = struct
  type repr = t

  let op = op
end

(* The pair formula for phase 2: the interaction block G(I_s, s) X, one
   block per interactive destination in plan order, with alpha and the
   residual computed once per column of X. *)
let interaction_block t ~(src : square_data) (x : Mat.t) =
  let ix, iy = src.coords in
  let s = Hashtbl.find t.squares (src.level, ix, iy) in
  let blocks = Array.map (fun p -> Mat.create (Array.length p.dst.contacts) (Mat.cols x)) s.pairs in
  if Array.length s.pairs > 0 then
    for j = 0 to Mat.cols x - 1 do
      Array.iteri (fun k r -> Mat.set_col blocks.(k) j r) (pair_responses s (Mat.col x j))
    done;
  Array.mapi (fun k p -> (p.dst, blocks.(k))) s.pairs
