module Quadtree = Geometry.Quadtree
module Mat = La.Mat
module Vec = La.Vec

(* IES3-style pairwise low-rank baseline (thesis §4.5).

   The SVD-based sparsification methods that preceded the thesis (IES3,
   H-matrices) compress each interactive-pair block G(d, s) with its own
   truncated SVD. Two contrasts with the thesis's method, both of which this
   module exists to measure:

   - it requires constant-time access to individual entries of G (here: the
     dense matrix itself) — exactly what a black-box substrate solver cannot
     provide; and
   - the "important vectors" differ for every (source, destination) pair
     rather than forming one global change of basis, so the storage carries
     a per-pair cost that the thesis's multipole-like representation shares
     across destinations.

   The hierarchy of blocks is the standard one: interactive pairs on every
   level >= 2 plus explicit finest-level local blocks. *)

type block = {
  src : int array;  (* source contacts *)
  dst : int array;  (* destination contacts *)
  u : Mat.t;  (* |dst| x k *)
  sv : Mat.t;  (* k x |src|: diag(sigma) V' *)
}

type local_block = {
  l_src : int array;
  l_region : int array;  (* destination: the 3x3 neighborhood's contacts *)
  dense : Mat.t;  (* |l_region| x |l_src| *)
}

type t = { n : int; blocks : block list; local : local_block list }

(* Build from a quadtree and the dense G (entry access required — the
   baseline's defining limitation). *)
let build ?(sigma_rel_tol = 0.01) ?(max_rank = 6) tree (g : Mat.t) =
  let n = Mat.rows g in
  let max_level = Quadtree.max_level tree in
  let blocks = ref [] in
  for level = 2 to max_level do
    let nsq = Quadtree.side_count level in
    for iy = 0 to nsq - 1 do
      for ix = 0 to nsq - 1 do
        let src = Quadtree.contacts_of tree ~level ~ix ~iy in
        if Array.length src > 0 then
          List.iter
            (fun (jx, jy) ->
              let dst = Quadtree.contacts_of tree ~level ~ix:jx ~iy:jy in
              if Array.length dst > 0 then begin
                let block = Mat.select g ~row_idx:dst ~col_idx:src in
                let f = La.Svd.decomp block in
                let k = Rowbasis.keep_rule ~sigma_rel_tol ~max_rank f.La.Svd.s in
                if k > 0 then begin
                  let u = Mat.sub_matrix f.La.Svd.u ~row:0 ~col:0 ~rows:(Array.length dst) ~cols:k in
                  let v = Mat.sub_matrix f.La.Svd.v ~row:0 ~col:0 ~rows:(Array.length src) ~cols:k in
                  let sv = Mat.init k (Array.length src) (fun r c -> f.La.Svd.s.(r) *. Mat.get v c r) in
                  blocks := { src; dst; u; sv } :: !blocks
                end
              end)
            (Quadtree.interactive_squares ~level ~ix ~iy)
      done
    done
  done;
  (* Finest-level local blocks, dense. *)
  let local = ref [] in
  let nsq = Quadtree.side_count max_level in
  for iy = 0 to nsq - 1 do
    for ix = 0 to nsq - 1 do
      let l_src = Quadtree.contacts_of tree ~level:max_level ~ix ~iy in
      if Array.length l_src > 0 then begin
        let l_region =
          Quadtree.region_contacts tree ~level:max_level
            (Quadtree.local_squares ~level:max_level ~ix ~iy)
        in
        local := { l_src; l_region; dense = Mat.select g ~row_idx:l_region ~col_idx:l_src } :: !local
      end
    done
  done;
  { n; blocks = !blocks; local = !local }

let apply t (x : Vec.t) : Vec.t =
  if Array.length x <> t.n then invalid_arg "Pairwise.apply: dimension mismatch";
  let out = Array.make t.n 0.0 in
  List.iter
    (fun b ->
      let xs = Regions.gather b.src x in
      let contrib = Mat.gemv b.u (Mat.gemv b.sv xs) in
      Regions.scatter_add b.dst contrib out)
    t.blocks;
  List.iter
    (fun lb -> Regions.scatter_add lb.l_region (Mat.gemv lb.dense (Regions.gather lb.l_src x)) out)
    t.local;
  out

(* Stored floats: the thesis's storage comparison currency. A factored pair
   costs k (|dst| + |src|); a dense local block |region| * |src|. *)
let storage_floats t =
  let pair_cost =
    List.fold_left
      (fun acc b -> acc + (Mat.cols b.u * (Array.length b.dst + Array.length b.src)))
      0 t.blocks
  in
  List.fold_left (fun acc lb -> acc + (Mat.rows lb.dense * Mat.cols lb.dense)) pair_cost t.local

let block_count t = List.length t.blocks

(* The baseline as an operator. Truncated per-block SVDs do not preserve
   the symmetry of G, so [symmetric] is false; [solves_spent] is 0 — the
   baseline is built from entry access, never from black-box solves. *)
let op t =
  Subcouple_op.make ~pure:true ~storage_floats:(storage_floats t)
    ~describe:
      {
        Subcouple_op.kind = "pairwise";
        source =
          Printf.sprintf "IES3 pairwise truncated-SVD baseline (%d low-rank blocks)"
            (List.length t.blocks);
        symmetric = false;
      }
    ~n:t.n (apply t)

module _ : Subcouple_op.S with type repr = t = struct
  type repr = t

  let op = op
end

(* Densify (for error measurement). *)
let to_dense t =
  let g = Mat.create t.n t.n in
  let e = Array.make t.n 0.0 in
  for j = 0 to t.n - 1 do
    e.(j) <- 1.0;
    Mat.set_col g j (apply t e);
    e.(j) <- 0.0
  done;
  g
