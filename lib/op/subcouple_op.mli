(** First-class linear operators.

    Every way the repo can "apply G" — the black-box solver, the sparsified
    [Q G_w Q'] representation, the row-basis and pairwise approximations,
    the factored wavelet basis, a plain dense matrix, an artifact loaded
    from disk — is a value of one type {!t}: dimension, single and batched
    application, column extraction, storage cost, solve cost and
    provenance. Consumers (error metrics, benchmarks, the serving CLI)
    are written once against this interface and work with any of them.

    Batched application routes through the [lib/parallel] Domain pool and
    is deterministic: results are bit-identical for every [jobs] value,
    because each right-hand side writes only its pre-assigned slot. *)

(** On-disk operator artifacts (save/load of sparsified representations). *)
module Artifact = Artifact

(** The one binary format: artifacts, manifests, checkpoints, wire frames. *)
module Codec = Codec

(** EINTR-restarting raw-fd I/O (artifact saves, serve-protocol framing). *)
module Io_retry = Io_retry

(** Operator provenance, carried along so downstream consumers can report
    what they are applying without threading extra arguments. *)
type meta = {
  kind : string;  (** machine-readable family: ["blackbox"], ["repr"], ["dense"], ... *)
  source : string;  (** human-readable provenance *)
  symmetric : bool;  (** the operator is symmetric by construction *)
}

type t

(** The conformance contract: a representation module exposes
    [op : repr -> t] turning its value into an operator. Implementations
    assert it with [module _ : Subcouple_op.S with type repr = t = ...]. *)
module type S = sig
  type repr

  val op : repr -> t
end

(** [make ~describe ~n apply] wraps an application closure.

    [?batch] supplies a native multi-RHS implementation (called as
    [batch ~jobs vs]; must return one response per right-hand side, in
    input order). Without it, [?pure] decides the default: [~pure:true]
    promises the closure holds no mutable scratch state, so batches run
    through the Domain pool; [false] (the default) keeps batches
    sequential — an arbitrary closure is never parallelized behind its
    back.

    [?storage_floats] (default 0) is the representation's stored-float
    count, the thesis's storage currency. [?solves_spent] (default
    [fun () -> 0]) reports black-box solves attributable to the operator:
    a live counter for the solver itself, the build cost for an extracted
    representation. *)
val make :
  ?batch:(jobs:int -> La.Vec.t array -> La.Vec.t array) ->
  ?pure:bool ->
  ?storage_floats:int ->
  ?solves_spent:(unit -> int) ->
  describe:meta ->
  n:int ->
  (La.Vec.t -> La.Vec.t) ->
  t

val n : t -> int
val describe : t -> meta

(** Floats the representation stores (0 for closures that store nothing). *)
val storage_floats : t -> int

(** Black-box solves spent by / behind this operator so far. *)
val solves_spent : t -> int

(** Apply the operator to one vector.
    @raise Invalid_argument on a wrong-length argument. *)
val apply : t -> La.Vec.t -> La.Vec.t

(** Apply to every right-hand side, responses in input order; [jobs]
    (default 1 = sequential) is the total parallelism. Results are
    bit-identical for every [jobs].
    @raise Invalid_argument on any wrong-length argument, before any
    application runs. *)
val apply_batch : ?jobs:int -> t -> La.Vec.t array -> La.Vec.t array

(** Extract the given columns (one unit-vector application each).
    @raise Invalid_argument naming any out-of-range index, before any
    application runs. *)
val columns : ?jobs:int -> t -> int array -> La.Vec.t array

(** The dense reference operator: wraps a square matrix (gemv per
    application, parallel batches, [rows * cols] stored floats). *)
val of_dense : ?symmetric:bool -> ?source:string -> La.Mat.t -> t

(** Serve a loaded artifact payload directly: [G v ~ Q (G_w (Q' v))], the
    same arithmetic and fused batched sweeps as the extraction layer's
    [Repr.op], usable without linking the extraction layer. Responses are
    bit-identical for every [jobs] value. *)
val of_payload : Artifact.payload -> t

(** Health of an operator composed from a shard manifest. [Degraded] lists
    quarantined shards (id and reason), the number of planned shards with
    no entry yet (an extraction interrupted mid-run), and the global
    contact ids with no covering shard. A degraded operator answers with
    zeros on masked rows and ignores masked inputs; every unmasked row is
    bit-identical to the fully-complete composition. *)
type health =
  | Full
  | Degraded of {
      quarantined : (int * string) list;
      pending : int;
      masked_contacts : int array;
    }

val pp_health : Format.formatter -> health -> unit

(** The contact ids a degraded composition masks ([[||]] when [Full]).
    A fresh copy: callers may sort or mutate it. *)
val masked_of_health : health -> int array

(** Render an index set as ["[2, 5, 9]"], truncated past [max_shown]
    (default 16) as ["[0, 1, ... 984 more]"]. *)
val format_indices : ?max_shown:int -> int array -> string

(** The one-line per-request warning a consumer must surface when serving
    answers from a degraded composition: names the masked contact ids
    (truncated), the quarantined-shard count and the pending-shard count.
    [None] when the composition is [Full]. [context] names the request
    kind ("answer", "column 3", ...). *)
val degraded_warning : ?context:string -> health -> string option

(** Compose a shard manifest back into one operator: block-diagonal over
    the shard regions, [y.(C_s) = G(C_s, C_s) v.(C_s)] per complete shard.
    [dir] is the manifest's directory (shard files are stored relative to
    it). Every shard artifact is loaded eagerly, verified against the
    digest recorded in the manifest, and checked for dimension agreement.
    @raise Artifact.Error if a shard artifact is missing, torn, corrupt,
    or not the file the manifest recorded. *)
val of_manifest : dir:string -> Artifact.Manifest.t -> t * health
