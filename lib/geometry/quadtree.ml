(* Multilevel subdivision of the substrate surface into squares
   (thesis §3.2): level l partitions the surface into 2^l x 2^l squares.
   Contacts are assigned to finest-level squares and must not cross square
   boundaries. The interactive / local square relations of §4.2 (Fig 4-4)
   are computed here. *)

type square = {
  level : int;
  ix : int;
  iy : int;
  contacts : int array;  (* contact ids inside this square, ascending *)
}

type t = {
  size : float;
  max_level : int;
  levels : square array array;  (* levels.(l).(iy * 2^l + ix) *)
  contact_count : int;
}

let side_count level = 1 lsl level
let index ~level ~ix ~iy = (iy * side_count level) + ix

let square_bounds t ~level ~ix ~iy =
  let side = t.size /. float_of_int (side_count level) in
  (float_of_int ix *. side, float_of_int iy *. side, float_of_int (ix + 1) *. side, float_of_int (iy + 1) *. side)

let square_center t ~level ~ix ~iy =
  let x0, y0, x1, y1 = square_bounds t ~level ~ix ~iy in
  (0.5 *. (x0 +. x1), 0.5 *. (y0 +. y1))

exception Contact_crosses_boundary of int

let create ?(check = true) ~max_level (layout : Layout.t) =
  if max_level < 0 then invalid_arg "Quadtree.create: negative max_level";
  let n = side_count max_level in
  let size = layout.Layout.size in
  let side = size /. float_of_int n in
  (* Assign each contact to the finest square containing its centroid. *)
  let buckets = Array.make (n * n) [] in
  Array.iteri
    (fun id c ->
      let cx, cy = Contact.centroid c in
      let ix = min (n - 1) (max 0 (int_of_float (cx /. side))) in
      let iy = min (n - 1) (max 0 (int_of_float (cy /. side))) in
      if check then begin
        let x0 = float_of_int ix *. side and y0 = float_of_int iy *. side in
        if not (Contact.inside c ~x0 ~y0 ~x1:(x0 +. side) ~y1:(y0 +. side)) then
          raise (Contact_crosses_boundary id)
      end;
      buckets.((iy * n) + ix) <- id :: buckets.((iy * n) + ix))
    layout.Layout.contacts;
  let finest =
    Array.init (n * n) (fun k ->
        {
          level = max_level;
          ix = k mod n;
          iy = k / n;
          contacts = Array.of_list (List.sort Int.compare buckets.(k));
        })
  in
  (* Coarser levels aggregate their four children's contacts. *)
  let levels = Array.make (max_level + 1) [||] in
  levels.(max_level) <- finest;
  for l = max_level - 1 downto 0 do
    let nl = side_count l in
    levels.(l) <-
      Array.init (nl * nl) (fun k ->
          let ix = k mod nl and iy = k / nl in
          let child cx cy = levels.(l + 1).(index ~level:(l + 1) ~ix:cx ~iy:cy).contacts in
          let all =
            Array.concat
              [
                child (2 * ix) (2 * iy);
                child ((2 * ix) + 1) (2 * iy);
                child (2 * ix) ((2 * iy) + 1);
                child ((2 * ix) + 1) ((2 * iy) + 1);
              ]
          in
          Array.sort Int.compare all;
          { level = l; ix; iy; contacts = all })
  done;
  { size; max_level; levels; contact_count = Array.length layout.Layout.contacts }

let square t ~level ~ix ~iy = t.levels.(level).(index ~level ~ix ~iy)
let squares_at_level t level = t.levels.(level)
let contacts_of t ~level ~ix ~iy = (square t ~level ~ix ~iy).contacts

let parent_coords ~ix ~iy = (ix / 2, iy / 2)

let children_coords ~ix ~iy =
  [ (2 * ix, 2 * iy); ((2 * ix) + 1, 2 * iy); (2 * ix, (2 * iy) + 1); ((2 * ix) + 1, (2 * iy) + 1) ]

(* Local squares L_s: the square itself and its (up to 8) same-level
   neighbors. *)
let local_squares ~level ~ix ~iy =
  let n = side_count level in
  let acc = ref [] in
  for dy = 1 downto -1 do
    for dx = 1 downto -1 do
      let jx = ix + dx and jy = iy + dy in
      if jx >= 0 && jx < n && jy >= 0 && jy < n then acc := (jx, jy) :: !acc
    done
  done;
  !acc

(* Interactive squares I_s: same-level squares separated from s by at least
   one square whose parents are neighbors of s's parent (thesis Fig 4-4). *)
let interactive_squares ~level ~ix ~iy =
  if level < 2 then []
  else begin
    let n = side_count level in
    let px, py = parent_coords ~ix ~iy in
    let acc = ref [] in
    List.iter
      (fun (qx, qy) ->
        List.iter
          (fun (cx, cy) ->
            if max (abs (cx - ix)) (abs (cy - iy)) >= 2 then acc := (cx, cy) :: !acc)
          (children_coords ~ix:qx ~iy:qy))
      (local_squares ~level:(level - 1) ~ix:px ~iy:py);
    ignore n;
    List.rev !acc
  end

(* Union of contact ids over a list of same-level squares, ascending. *)
let region_contacts t ~level coords =
  let all = List.concat_map (fun (ix, iy) -> Array.to_list (contacts_of t ~level ~ix ~iy)) coords in
  let arr = Array.of_list all in
  Array.sort Int.compare arr;
  arr

(* Pick a subdivision depth: the deepest level (up to [limit]) at which all
   contacts still fit inside single squares, backed off to the shallowest
   such level where no square holds more than [target] contacts. *)
let suggest_max_level ?(limit = 9) ?(target = 8) (layout : Layout.t) =
  let fits level =
    try
      ignore (create ~check:true ~max_level:level layout);
      true
    with Contact_crosses_boundary _ -> false
  in
  let rec deepest l = if l <= 0 then 0 else if fits l then l else deepest (l - 1) in
  let l_fit = deepest limit in
  let max_count level =
    let t = create ~check:false ~max_level:level layout in
    Array.fold_left (fun acc s -> max acc (Array.length s.contacts)) 0 t.levels.(level)
  in
  let rec smallest l = if l >= l_fit then l_fit else if max_count l <= target then l else smallest (l + 1) in
  smallest 2

let max_level t = t.max_level
