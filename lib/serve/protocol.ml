(* The serve wire protocol: length-prefixed binary frames.

   Framing: every message is an 8-byte little-endian payload length
   followed by exactly that many payload bytes. The payload's first byte
   is the opcode; the fields after it are in the Subcouple_op.Codec format
   the artifacts use too: floats travel by their IEEE-754 bit pattern (the
   serve digest-parity guarantee depends on responses crossing the socket
   bit-exactly), strings and arrays with an explicit element count, and
   every length is checked against the bytes actually present before
   anything is allocated, so a hostile or torn frame is rejected with a
   typed error instead of a huge allocation or an index out of bounds.
   Frames above [max_frame_bytes] are refused outright.

   All socket transfers restart on EINTR (Io_retry): the daemon fields
   signals as part of normal operation. *)

module Codec = Subcouple_op.Codec
module Io_retry = Subcouple_op.Io_retry

exception Error = Codec.Malformed

let fail fmt = Printf.ksprintf (fun msg -> raise (Error msg)) fmt

(* One frame never legitimately exceeds this: the largest payloads are
   vector batches, and a 1 GiB frame already holds a batch of 1024
   full-length vectors at the thesis's largest problem size. *)
let max_frame_bytes = 1 lsl 30

(* Artifact names are root-relative path fragments; keep them short enough
   that an error message echoing one stays printable. *)
let max_name_bytes = 4096

type degraded = {
  masked : int array;  (** globally masked contact ids, ascending *)
  quarantined_shards : int;
  pending_shards : int;
}

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

(* --- encoding ---------------------------------------------------------- *)

let add_degraded b = function
  | None -> Codec.add_bool b false
  | Some d ->
    Codec.add_bool b true;
    Codec.add_int_array b d.masked;
    Codec.add_int b d.quarantined_shards;
    Codec.add_int b d.pending_shards

let encode_request r =
  Codec.encode (fun b ->
      match r with
      | Info { artifact } ->
        Buffer.add_char b 'I';
        Codec.add_string b artifact
      | Apply { artifact; v; coalesce } ->
        Buffer.add_char b 'A';
        Codec.add_string b artifact;
        Codec.add_bool b coalesce;
        Codec.add_float_array b v
      | Apply_batch { artifact; vs } ->
        Buffer.add_char b 'B';
        Codec.add_string b artifact;
        Codec.add_vectors b vs
      | Column { artifact; index; coalesce } ->
        Buffer.add_char b 'C';
        Codec.add_string b artifact;
        Codec.add_bool b coalesce;
        Codec.add_int b index
      | Threshold { artifact; target } ->
        Buffer.add_char b 'T';
        Codec.add_string b artifact;
        Codec.add_float b target
      | Stats -> Buffer.add_char b 'S'
      | Shutdown -> Buffer.add_char b 'Q')

let encode_response r =
  Codec.encode (fun b ->
      match r with
      | Vectors { vs; degraded } ->
        Buffer.add_char b 'v';
        add_degraded b degraded;
        Codec.add_vectors b vs
      | Info_r { n; kind; source; solves; storage_floats; degraded } ->
        Buffer.add_char b 'i';
        Codec.add_int b n;
        Codec.add_string b kind;
        Codec.add_string b source;
        Codec.add_int b solves;
        Codec.add_int b storage_floats;
        add_degraded b degraded
      | Threshold_r { nnz_before; nnz_after; storage_floats } ->
        Buffer.add_char b 't';
        Codec.add_int b nnz_before;
        Codec.add_int b nnz_after;
        Codec.add_int b storage_floats
      | Stats_r { table; pairs } ->
        Buffer.add_char b 's';
        Codec.add_string b table;
        Codec.add_array
          (fun b (name, value) ->
            Codec.add_string b name;
            Codec.add_float b value)
          b (Array.of_list pairs)
      | Shutting_down -> Buffer.add_char b 'q'
      | Error_r msg ->
        Buffer.add_char b 'e';
        Codec.add_string b msg)

(* --- decoding ---------------------------------------------------------- *)

let read_name r =
  let s = Codec.read_string r "artifact name" in
  if String.length s > max_name_bytes then fail "artifact name longer than %d bytes" max_name_bytes;
  s

let read_degraded r =
  if Codec.read_bool r "degraded flag" then begin
    (* Sequence the reads with lets: field expressions in a record
       literal evaluate in unspecified order, and these consume bytes. *)
    let masked = Codec.read_int_array r "masked contacts" in
    let quarantined_shards = Codec.read_int r "quarantined shard count" in
    let pending_shards = Codec.read_int r "pending shard count" in
    Some { masked; quarantined_shards; pending_shards }
  end
  else None

let decode_request s =
  Codec.decode s (fun r ->
      match Codec.read_char r "opcode" with
      | 'I' -> Info { artifact = read_name r }
      | 'A' ->
        let artifact = read_name r in
        let coalesce = Codec.read_bool r "coalesce flag" in
        Apply { artifact; v = Codec.read_float_array r "vector"; coalesce }
      | 'B' ->
        let artifact = read_name r in
        Apply_batch { artifact; vs = Codec.read_vectors r "batch vector" }
      | 'C' ->
        let artifact = read_name r in
        let coalesce = Codec.read_bool r "coalesce flag" in
        Column { artifact; index = Codec.read_int r "column index"; coalesce }
      | 'T' ->
        let artifact = read_name r in
        Threshold { artifact; target = Codec.read_float r "threshold target" }
      | 'S' -> Stats
      | 'Q' -> Shutdown
      | c -> fail "unknown request opcode %C" c)

let decode_response s =
  Codec.decode s (fun r ->
      match Codec.read_char r "opcode" with
      | 'v' ->
        let degraded = read_degraded r in
        Vectors { vs = Codec.read_vectors r "response vector"; degraded }
      | 'i' ->
        let n = Codec.read_int r "dimension" in
        let kind = Codec.read_string r "kind" in
        let source = Codec.read_string r "source" in
        let solves = Codec.read_int r "solve count" in
        let storage_floats = Codec.read_int r "storage floats" in
        Info_r { n; kind; source; solves; storage_floats; degraded = read_degraded r }
      | 't' ->
        let nnz_before = Codec.read_int r "nnz before" in
        let nnz_after = Codec.read_int r "nnz after" in
        Threshold_r { nnz_before; nnz_after; storage_floats = Codec.read_int r "storage floats" }
      | 's' ->
        let table = Codec.read_string r "stats table" in
        let pairs =
          Codec.read_array r "stats pair" (fun r ->
              let name = Codec.read_string r "name" in
              (name, Codec.read_float r "value"))
        in
        Stats_r { table; pairs = Array.to_list pairs }
      | 'q' -> Shutting_down
      | 'e' -> Error_r (Codec.read_string r "error message")
      | c -> fail "unknown response opcode %C" c)

(* --- frame transport --------------------------------------------------- *)

(* A frame is the payload as one Codec string: its length, then its bytes. *)
let write_frame fd payload =
  let len = String.length payload in
  if len > max_frame_bytes then fail "frame of %d bytes exceeds the %d limit" len max_frame_bytes;
  let b = Buffer.create (8 + len) in
  Codec.add_string b payload;
  Io_retry.write_all fd (Buffer.to_bytes b) 0 (8 + len)

(* @raise End_of_file on a clean close before any header byte. A close
   mid-frame raises it too — both sides treat any EOF as "peer gone". *)
let read_frame fd =
  let header = Bytes.create 8 in
  Io_retry.really_read fd header 0 8;
  let len = Codec.decode (Bytes.to_string header) (fun r -> Codec.read_int r "frame length") in
  if len < 0 || len > max_frame_bytes then fail "frame length %d outside [0, %d]" len max_frame_bytes;
  let payload = Bytes.create len in
  Io_retry.really_read fd payload 0 len;
  Bytes.to_string payload

let write_request fd r = write_frame fd (encode_request r)
let write_response fd r = write_frame fd (encode_response r)
let read_request fd = decode_request (read_frame fd)
let read_response fd = decode_response (read_frame fd)
