(** The serve wire protocol: length-prefixed binary frames.

    Every message is an 8-byte little-endian payload length followed by
    the payload; the payload's first byte is the opcode, and its fields
    are in the {!Subcouple_op.Codec} format. Floats travel by their
    IEEE-754 bit pattern — responses cross the socket bit-exactly, which
    is what the serve digest-parity guarantee rests on.

    Decoding is defensive (the socket end of the trust boundary): every
    length is validated against the bytes present before allocation, and
    frames above {!max_frame_bytes} are refused. Malformed input raises
    {!Error}; it never escapes as an allocation failure or an index out
    of bounds. *)

(** The same exception as {!Subcouple_op.Codec.Malformed}. *)
exception Error of string

(** Hard per-frame size cap (1 GiB), enforced on both send and receive. *)
val max_frame_bytes : int

(** Cap on artifact-name fields (4096 bytes). *)
val max_name_bytes : int

(** Degradation report attached to answers served from a manifest with
    quarantined or pending shards: the masked contact ids (rows answered
    as zeros) and the shard counts behind them. *)
type degraded = {
  masked : int array;
  quarantined_shards : int;
  pending_shards : int;
}

(** [coalesce] opts a single matvec into the server's batching queue
    (the default everywhere); [false] forces a direct apply, which the
    bench uses to measure the coalescing gain. Answers are bit-identical
    either way. *)
type request =
  | Info of { artifact : string }
  | Apply of { artifact : string; v : float array; coalesce : bool }
  | Apply_batch of { artifact : string; vs : float array array }
  | Column of { artifact : string; index : int; coalesce : bool }
  | Threshold of { artifact : string; target : float }
  | Stats
  | Shutdown

type response =
  | Vectors of { vs : float array array; degraded : degraded option }
  | Info_r of {
      n : int;
      kind : string;
      source : string;
      solves : int;
      storage_floats : int;
      degraded : degraded option;
    }
  | Threshold_r of { nnz_before : int; nnz_after : int; storage_floats : int }
  | Stats_r of { table : string; pairs : (string * float) list }
  | Shutting_down
  | Error_r of string

(** Pure payload codecs (unit-testable without a socket). Decoders
    @raise Error on malformed bytes, trailing garbage included. *)

val encode_request : request -> string
val decode_request : string -> request
val encode_response : response -> string
val decode_response : string -> response

(** Framed socket transport, EINTR-restarting.
    Readers @raise End_of_file when the peer closes and @raise Error on a
    malformed frame; all four @raise Unix.Unix_error on socket failure. *)

val write_request : Unix.file_descr -> request -> unit
val read_request : Unix.file_descr -> request
val write_response : Unix.file_descr -> response -> unit
val read_response : Unix.file_descr -> response
