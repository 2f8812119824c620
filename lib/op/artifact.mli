(** Persisted operator artifacts (".sca" files): a versioned, checksummed
    binary container for a sparsified representation [G ~ Q G_w Q'], so the
    expensive extraction (many black-box solves) and the cheap serving
    (three sparse matvecs per application) can live in different processes.

    The format is explicit — every field is written out through {!Codec},
    the repo's one binary format — so a file written today stays readable
    by future versions, and a reader can reject damage with a precise,
    typed error instead of a segfault or a silently wrong answer.

    Layout (bytes 8 onward are one {!Codec} sealed record):

    {v
    offset  0: magic  "SUBCOP"              (6 bytes)
    offset  6: format version "A1"          (2 bytes)
    offset  8: payload length               (int64)
    offset 16: MD5 digest of the payload    (16 raw bytes)
    offset 32: payload                      (payload-length bytes)
    v}

    The payload holds [n], [solves], the [kind]/[source] strings
    (length-prefixed), then the two CSR blocks [q] and [gw] (rows, cols,
    then the length-prefixed [row_ptr], [col_idx] and [values] arrays).

    Failure modes, in the order the loader checks them: a file that does
    not start with the magic is {!Not_an_artifact}; a recognized magic with
    an unknown version tag is {!Unsupported_version}; a file shorter than
    its header demands is {!Truncated}; payload bytes that do not hash to
    the stored digest are {!Checksum_mismatch}; and a payload that passes
    the checksum but is internally inconsistent (any {!Codec.Malformed},
    such as a count larger than the bytes left, or a CSR invariant
    violation) is {!Malformed}. Writes go through a temporary file that is
    fsync'd, renamed into place, and sealed with an fsync of the
    containing directory, so neither a crashed writer nor a power loss can
    leave a half-written (or renamed-but-empty) artifact under the target
    name.

    {!Manifest} stores the multi-shard index of a sharded extraction in the
    same container discipline under its own magic ("SUBCMF" / "M1"); see
    {!Manifest} and {!load_any}. *)

type error =
  | Not_an_artifact of string  (** no magic: not a substrate operator artifact *)
  | Unsupported_version of string  (** artifact magic, but an unknown format version *)
  | Truncated of string  (** file ends before the header or payload does *)
  | Checksum_mismatch  (** payload does not hash to the stored digest *)
  | Malformed of string  (** checksum passed but the payload is inconsistent *)
  | Io of string  (** underlying file read/write failure *)

exception Error of { path : string; error : error }

(** One-line human-readable rendering of an {!error}. *)
val error_message : error -> string

(** What an artifact stores: the two sparse factors plus provenance. *)
type payload = {
  n : int;  (** operator dimension (contacts) *)
  solves : int;  (** black-box solves spent building the representation *)
  kind : string;  (** machine-readable family, e.g. ["wavelet"], ["lowrank"] *)
  source : string;  (** human-readable provenance (layout, solver, thresholds) *)
  q : Sparsemat.Csr.t;  (** n x n change of basis, orthonormal columns *)
  gw : Sparsemat.Csr.t;  (** n x n transformed matrix, symmetric *)
}

(** Write the payload to [path] (atomically and durably: temp file, fsync,
    rename, directory fsync). The CSR values round-trip bit-exactly —
    {!load} returns the same floats to the last bit.
    @raise Error with {!Io} on filesystem failure. *)
val save : path:string -> payload -> unit

(** Read an artifact back, verifying magic, version, length and checksum
    before parsing, and the CSR invariants after.
    @raise Error on any of the failure modes above. *)
val load : path:string -> payload

(** Multi-shard manifests (".scm" files): the index of a sharded
    extraction. Each quadtree-region shard persists its own single-operator
    artifact; the manifest records the shard list (region coordinates,
    contact ids, artifact file name and MD5, solve count) together with the
    layout's geometry digest and a per-shard status — [Complete], or
    [Quarantined reason] for a shard that exhausted its resilience ladder.
    The container framing (magic "SUBCMF", version "M1", payload length,
    whole-payload MD5) and the typed {!error} failure modes are shared with
    single-operator artifacts. *)
module Manifest : sig
  type status =
    | Complete  (** the shard's artifact is on disk and its digest is recorded *)
    | Quarantined of string  (** extraction failed; the reason names the exhausted ladder *)

  type entry = {
    shard_id : int;  (** position in the deterministic shard plan *)
    level : int;  (** quadtree level of the shard's region *)
    ix : int;  (** region x index at [level] *)
    iy : int;  (** region y index at [level] *)
    contacts : int array;  (** global contact ids, strictly ascending *)
    file : string;  (** shard artifact file name, relative to the manifest's directory *)
    file_digest : string;  (** MD5 of the shard artifact's bytes (16 raw bytes) *)
    solves : int;  (** black-box solves the shard's extraction spent *)
    status : status;
  }

  type t = {
    n : int;  (** global operator dimension (contacts in the full layout) *)
    total_shards : int;  (** planned shards; [entries] may lag mid-extraction *)
    geometry_digest : string;  (** MD5 of the layout geometry (16 raw bytes) *)
    source : string;  (** human-readable provenance *)
    entries : entry array;
  }

  val is_complete : entry -> bool

  (** Entries with status [Complete], in entry order. *)
  val complete : t -> entry list

  (** Entries with status [Quarantined], in entry order. *)
  val quarantined : t -> entry list

  (** Write the manifest to [path], atomically and durably (same temp file
      + fsync + rename + directory fsync discipline as {!val:save}).
      @raise Error with {!Malformed} if the manifest is internally
      inconsistent (overlapping shards, out-of-range contacts, duplicate
      ids), {!Io} on filesystem failure. *)
  val save : path:string -> t -> unit

  (** Read a manifest back, verifying framing, checksum and internal
      consistency. A single-operator artifact is rejected with a
      {!Not_an_artifact} naming the confusion.
      @raise Error on any failure mode. *)
  val load : path:string -> t
end

(** Load either file family, dispatching on the magic bytes: a
    single-operator artifact or a shard manifest.
    @raise Error on anything that is neither. *)
val load_any : path:string -> [ `Operator of payload | `Manifest of Manifest.t ]
