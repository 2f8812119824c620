(* The one operator abstraction every "apply G" path routes through.

   An operator is a record of closures plus metadata; representations stay
   whatever they are (black box, CSR factors, row bases, dense matrix) and
   expose a constructor returning this type. The extraction pipelines spend
   solves to build a representation; everything downstream — metrics,
   benchmarks, serving — only ever sees the operator. *)

module Artifact = Artifact
module Codec = Codec
module Io_retry = Io_retry

type meta = {
  kind : string;
  source : string;
  symmetric : bool;
}

type t = {
  op_n : int;
  op_apply : La.Vec.t -> La.Vec.t;
  op_batch : jobs:int -> La.Vec.t array -> La.Vec.t array;
  op_storage : int;
  op_solves : unit -> int;
  op_meta : meta;
}

module type S = sig
  type repr

  val op : repr -> t
end

let make ?batch ?(pure = false) ?(storage_floats = 0) ?(solves_spent = fun () -> 0) ~describe ~n
    apply =
  if n < 0 then invalid_arg "Subcouple_op.make: negative dimension";
  if storage_floats < 0 then invalid_arg "Subcouple_op.make: negative storage";
  let batch =
    match batch with
    | Some b -> b
    | None ->
      if pure then fun ~jobs vs -> Parallel.Pool.map_array ~jobs apply vs
      else fun ~jobs:_ vs -> Array.map apply vs
  in
  { op_n = n; op_apply = apply; op_batch = batch; op_storage = storage_floats;
    op_solves = solves_spent; op_meta = describe }

let n t = t.op_n
let describe t = t.op_meta
let storage_floats t = t.op_storage
let solves_spent t = t.op_solves ()

let check_length t v =
  if Array.length v <> t.op_n then
    invalid_arg
      (Printf.sprintf "Subcouple_op: expected a vector of %d components, got %d" t.op_n
         (Array.length v))

let apply t v =
  check_length t v;
  t.op_apply v

let apply_batch_span = "op.apply_batch"
let apply_batch_size_dist = Trace.dist "op.batch_size"

let apply_batch ?(jobs = 1) t vs =
  Array.iter (check_length t) vs;
  Trace.observe apply_batch_size_dist (float_of_int (Array.length vs));
  let out = Trace.with_span apply_batch_span (fun () -> t.op_batch ~jobs vs) in
  if Array.length out <> Array.length vs then
    invalid_arg "Subcouple_op: batch implementation returned a wrong-sized result";
  out

(* One fresh unit vector per column: a shared buffer would race under a
   parallel batch, and even sequentially it aliases if an implementation
   retains its argument. *)
let unit_vector n i =
  let e = Array.make n 0.0 in
  e.(i) <- 1.0;
  e

let columns ?jobs t indices =
  Array.iter
    (fun i ->
      if i < 0 || i >= t.op_n then
        invalid_arg
          (Printf.sprintf "Subcouple_op.columns: column index %d out of range [0, %d)" i t.op_n))
    indices;
  apply_batch ?jobs t (Array.map (unit_vector t.op_n) indices)

let of_dense ?(symmetric = false) ?(source = "dense matrix") g =
  if La.Mat.rows g <> La.Mat.cols g then invalid_arg "Subcouple_op.of_dense: matrix must be square";
  make ~pure:true
    ~storage_floats:(La.Mat.rows g * La.Mat.cols g)
    ~describe:{ kind = "dense"; source; symmetric }
    ~n:(La.Mat.rows g) (La.Mat.gemv g)

module Csr = Sparsemat.Csr

(* Serve a loaded artifact payload directly: G v ~ Q (G_w (Q' v)), the same
   arithmetic (and the same fused batched sweeps) as [Repr.op], without
   needing the extraction layer. Batches split into at most [jobs]
   contiguous chunks on the Domain pool; neither fusion nor chunking
   reorders per-column arithmetic, so responses are bit-identical to the
   single-vector apply for every [jobs]. *)
let of_payload (p : Artifact.payload) =
  let apply_one v = Csr.gemv p.q (Csr.gemv p.gw (Csr.gemv_t p.q v)) in
  let fused chunk = Csr.apply_batch p.q (Csr.apply_batch p.gw (Csr.apply_batch_t p.q chunk)) in
  let batch ~jobs vs =
    let m = Array.length vs in
    if jobs <= 1 || m <= 1 then fused vs
    else begin
      let chunks = min jobs m in
      let parts =
        Array.init chunks (fun c ->
            let lo = c * m / chunks and hi = (c + 1) * m / chunks in
            Array.sub vs lo (hi - lo))
      in
      Array.concat (Array.to_list (Parallel.Pool.map_array ~jobs fused parts))
    end
  in
  make ~batch
    ~storage_floats:(Csr.nnz p.q + Csr.nnz p.gw)
    ~solves_spent:(fun () -> p.solves)
    ~describe:{ kind = p.kind; source = p.source; symmetric = true }
    ~n:p.n apply_one

(* --- composing a shard manifest back into one operator ------------------ *)

type health =
  | Full
  | Degraded of {
      quarantined : (int * string) list;
      pending : int;
      masked_contacts : int array;
    }

let pp_health ppf = function
  | Full -> Format.fprintf ppf "full: every shard complete"
  | Degraded { quarantined; pending; masked_contacts } ->
    Format.fprintf ppf "degraded (quarantined shards: %s; pending shards: %d; masked contacts: %d)"
      (if quarantined = [] then "none"
       else String.concat ", " (List.map (fun (id, _) -> string_of_int id) quarantined))
      pending (Array.length masked_contacts)

let masked_of_health = function
  | Full -> [||]
  | Degraded { masked_contacts; _ } -> Array.copy masked_contacts

(* Render at most [max_shown] indices; a degraded large manifest can mask
   thousands of contacts, and the warning must stay one readable line. *)
let format_indices ?(max_shown = 16) a =
  let n = Array.length a in
  let shown = min n max_shown in
  let b = Buffer.create 64 in
  Buffer.add_char b '[';
  for i = 0 to shown - 1 do
    if i > 0 then Buffer.add_string b ", ";
    Buffer.add_string b (string_of_int a.(i))
  done;
  if n > shown then Buffer.add_string b (Printf.sprintf ", ... %d more" (n - shown));
  Buffer.add_char b ']';
  Buffer.contents b

let degraded_warning ?(context = "answer") health =
  match health with
  | Full -> None
  | Degraded { quarantined; pending; masked_contacts } ->
    Some
      (Printf.sprintf
         "degraded %s: %d masked contact%s %s served as zeros (%d quarantined shard%s, %d pending)"
         context
         (Array.length masked_contacts)
         (if Array.length masked_contacts = 1 then "" else "s")
         (format_indices masked_contacts)
         (List.length quarantined)
         (if List.length quarantined = 1 then "" else "s")
         pending)

let of_manifest ~dir (m : Artifact.Manifest.t) =
  let slots =
    List.map
      (fun (e : Artifact.Manifest.entry) ->
        let path = Filename.concat dir e.file in
        let p = Artifact.load ~path in
        (* The artifact is internally consistent (checksummed); now pin it
           to the manifest: the exact bytes the extraction recorded, with
           the shard's dimension. A swapped-in file — even a valid one —
           is rejected. *)
        if not (String.equal (Digest.file path) e.file_digest) then
          raise
            (Artifact.Error
               {
                 path;
                 error =
                   Artifact.Malformed
                     (Printf.sprintf "shard %d artifact does not match the manifest's digest"
                        e.shard_id);
               });
        if p.Artifact.n <> Array.length e.contacts then
          raise
            (Artifact.Error
               {
                 path;
                 error =
                   Artifact.Malformed
                     (Printf.sprintf "shard %d artifact has dimension %d, manifest lists %d contacts"
                        e.shard_id p.Artifact.n (Array.length e.contacts));
               });
        (e.contacts, of_payload p))
      (Artifact.Manifest.complete m)
  in
  let n = m.Artifact.Manifest.n in
  (* Block-diagonal composition: y[C_s] = G(C_s, C_s) v[C_s] per shard.
     Each output slot is written by exactly one shard (the manifest
     validator enforces disjointness), so results are deterministic and a
     masked (quarantined/pending) shard corrupts only its own rows —
     every other row is bit-identical to the fully-complete composition. *)
  let apply_one v =
    let y = Array.make n 0.0 in
    List.iter
      (fun (ids, op_s) ->
        let sub = Array.map (fun i -> v.(i)) ids in
        let ys = op_s.op_apply sub in
        Array.iteri (fun k i -> y.(i) <- ys.(k)) ids)
      slots;
    y
  in
  let storage = List.fold_left (fun acc (_, op_s) -> acc + op_s.op_storage) 0 slots in
  let solves = List.fold_left (fun acc (_, op_s) -> acc + op_s.op_solves ()) 0 slots in
  let op =
    make ~pure:true ~storage_floats:storage
      ~solves_spent:(fun () -> solves)
      ~describe:
        { kind = "manifest"; source = m.Artifact.Manifest.source; symmetric = true }
      ~n apply_one
  in
  let covered = Array.make (max 1 n) false in
  List.iter (fun (ids, _) -> Array.iter (fun i -> covered.(i) <- true) ids) slots;
  let masked = ref [] in
  for i = n - 1 downto 0 do
    if not covered.(i) then masked := i :: !masked
  done;
  let quarantined =
    List.map
      (fun (e : Artifact.Manifest.entry) ->
        ( e.shard_id,
          match e.status with
          | Artifact.Manifest.Quarantined reason -> reason
          | Artifact.Manifest.Complete -> "" ))
      (Artifact.Manifest.quarantined m)
  in
  let pending = m.Artifact.Manifest.total_shards - Array.length m.Artifact.Manifest.entries in
  let health =
    match (quarantined, pending) with
    | [], 0 -> Full
    | _ -> Degraded { quarantined; pending; masked_contacts = Array.of_list !masked }
  in
  (op, health)
