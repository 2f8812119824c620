(* Combine-solves (thesis §3.5): several basis vectors, supported in
   same-level squares spaced at least three squares apart, are summed into a
   single voltage vector; one black-box application then yields the current
   response of every constituent in its own neighborhood, because the
   neighborhoods of distinct constituents do not overlap (Fig 3-5).

   This is the mechanism that takes the number of solves from n to
   O(log n). *)


(* Partition same-level square coordinates into the 9 groups
   (ix mod 3, iy mod 3). Squares within a group are >= 3 apart in both
   coordinates, so their 3x3 neighborhoods are disjoint. *)
let groups_of_squares coords =
  let groups = Array.make 9 [] in
  List.iter (fun (ix, iy) -> groups.((3 * (iy mod 3)) + (ix mod 3)) <- (ix, iy) :: groups.((3 * (iy mod 3)) + (ix mod 3))) coords;
  Array.map List.rev groups

(* Partition child-square coordinates into the 36 groups
   (parent ix mod 3, parent iy mod 3, child position within parent): within
   a group, every constituent has a distinct parent and those parents are
   >= 3 apart, so per-parent neighborhood responses stay separable even when
   the summed vectors live in the parents (the splitting method of §4.3.3
   applies G to remainders supported in whole parent squares). *)
let groups_of_children coords =
  let groups = Array.make 36 [] in
  List.iter
    (fun (ix, iy) ->
      let px = ix / 2 and py = iy / 2 in
      let child = (2 * (iy land 1)) + (ix land 1) in
      let key = (9 * child) + (3 * (py mod 3)) + (px mod 3) in
      groups.(key) <- (ix, iy) :: groups.(key))
    coords;
  Array.map List.rev groups

(* Sanity predicate used in tests: all pairs in a group are separated by at
   least [gap] squares in x or y. *)
let well_separated ~gap coords =
  let rec check = function
    | [] -> true
    | (x, y) :: rest ->
      List.for_all (fun (x', y') -> abs (x - x') >= gap || abs (y - y') >= gap) rest && check rest
  in
  check coords

(* Sum the (global, zero-extended) vectors of one combined solve; [None]
   for empty input. Extraction loops collect the summed right-hand sides
   of many groups and then solve them as one (possibly parallel) batch. *)
let sum_vectors (vectors : La.Vec.t list) : La.Vec.t option =
  match vectors with
  | [] -> None
  | v :: rest ->
    let sum = La.Vec.copy v in
    List.iter (fun w -> La.Vec.add_inplace sum w) rest;
    Some sum
