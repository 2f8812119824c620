(* Versioned, checksummed on-disk container for sparsified representations.

   A file is 8 magic bytes carrying the family and format version, then the
   payload as one Codec sealed record: payload length, MD5 of the payload,
   payload. Anything that does not check out is rejected with a typed
   error. An artifact is a long-lived interchange file, so the payload is
   written field by field through Codec — integers as little-endian int64,
   floats by their IEEE-754 bit pattern — with no closures, no abstract
   blocks and bit-exact float round-trips. *)

module Csr = Sparsemat.Csr

type error =
  | Not_an_artifact of string
  | Unsupported_version of string
  | Truncated of string
  | Checksum_mismatch
  | Malformed of string
  | Io of string

exception Error of { path : string; error : error }

let error_message = function
  | Not_an_artifact what -> Printf.sprintf "not a substrate operator artifact (%s)" what
  | Unsupported_version v ->
    Printf.sprintf
      "unsupported format version %S (this build reads \"A1\" operators and \"M1\" manifests)" v
  | Truncated what -> Printf.sprintf "truncated artifact: %s" what
  | Checksum_mismatch -> "payload checksum mismatch: the file is corrupt"
  | Malformed what -> Printf.sprintf "malformed artifact payload: %s" what
  | Io msg -> Printf.sprintf "i/o failure: %s" msg

let () =
  Printexc.register_printer (function
    | Error { path; error } -> Some (Printf.sprintf "Subcouple_op.Artifact.Error(%s: %s)" path (error_message error))
    | _ -> None)

type payload = {
  n : int;
  solves : int;
  kind : string;
  source : string;
  q : Csr.t;
  gw : Csr.t;
}

(* "SUBCOP" identifies the file family; the two bytes after it are the
   format version. A future incompatible layout bumps the version, keeping
   Not_an_artifact and Unsupported_version distinguishable. *)
let magic = "SUBCOPA1"

let fail path error = raise (Error { path; error })

(* --- writing ----------------------------------------------------------- *)

let add_csr b m =
  let row_ptr, col_idx, values = Csr.unpack m in
  Codec.add_int b (Csr.rows m);
  Codec.add_int b (Csr.cols m);
  Codec.add_int_array b row_ptr;
  Codec.add_int_array b col_idx;
  Codec.add_float_array b values

let encode p =
  Codec.encode (fun b ->
      Codec.add_int b p.n;
      Codec.add_int b p.solves;
      Codec.add_string b p.kind;
      Codec.add_string b p.source;
      add_csr b p.q;
      add_csr b p.gw)

let validate_payload path p =
  let square_of_n what m =
    if Csr.rows m <> p.n || Csr.cols m <> p.n then
      fail path
        (Malformed
           (Printf.sprintf "%s is %dx%d but the operator dimension is %d" what (Csr.rows m) (Csr.cols m) p.n))
  in
  if p.n < 0 then fail path (Malformed (Printf.sprintf "negative operator dimension %d" p.n));
  if p.solves < 0 then fail path (Malformed (Printf.sprintf "negative solve count %d" p.solves));
  square_of_n "Q" p.q;
  square_of_n "G_w" p.gw

(* The container both file families (".sca" operator artifacts and ".scm"
   shard manifests) share: 8 magic bytes (family + version), then the
   payload as one Codec sealed record (length, MD5, payload). *)
let frame ~magic body =
  let b = Buffer.create (32 + String.length body) in
  Buffer.add_string b magic;
  Codec.add_sealed b body;
  Buffer.to_bytes b

(* Temp file + fsync + rename + directory fsync: a crashed (or power-lost)
   writer never leaves a torn, empty or unlinked file under the target
   name. The data is on stable storage before the rename makes it
   visible. *)
let write_atomic ~path bytes =
  let tmp = path ^ ".tmp" in
  match
    let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        (* EINTR-restarting: a bare [Unix.write] loop aborts mid-file when
           a signal lands (daemons handle signals routinely), leaving a
           torn tmp file for the rename below to publish. *)
        Io_retry.write_all fd bytes 0 (Bytes.length bytes);
        Io_retry.restart (fun () -> Unix.fsync fd));
    Sys.rename tmp path;
    Io_retry.fsync_dir path
  with
  | () -> ()
  | exception Sys_error msg -> fail path (Io msg)
  | exception Unix.Unix_error (e, fn, arg) ->
    fail path (Io (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e)))

let save ~path p =
  validate_payload path p;
  write_atomic ~path (frame ~magic (encode p))

(* --- reading ----------------------------------------------------------- *)

let read_csr r what =
  try
    let rows = Codec.read_int r "rows" in
    let cols = Codec.read_int r "cols" in
    let row_ptr = Codec.read_int_array r "row_ptr" in
    let col_idx = Codec.read_int_array r "col_idx" in
    let values = Codec.read_float_array r "values" in
    Csr.pack ~rows ~cols ~row_ptr ~col_idx ~values
  with Codec.Malformed msg | Invalid_argument msg -> raise (Codec.Malformed (what ^ ": " ^ msg))

let decode path body =
  let p =
    Codec.decode body (fun r ->
        let n = Codec.read_int r "operator dimension" in
        let solves = Codec.read_int r "solve count" in
        let kind = Codec.read_string r "kind" in
        let source = Codec.read_string r "source" in
        let q = read_csr r "Q" in
        let gw = read_csr r "G_w" in
        { n; solves; kind; source; q; gw })
  in
  validate_payload path p;
  p

(* Open [path] once and run [k] on the channel and the magic (the first 8
   bytes, or all of a shorter file). The one place file-read failures map
   to Io and Codec.Malformed maps to Malformed. *)
let with_file path k =
  try
    In_channel.with_open_bin path (fun ic ->
        k ic (really_input_string ic (min 8 (in_channel_length ic))))
  with
  | Sys_error msg -> fail path (Io msg)
  | Codec.Malformed msg -> fail path (Malformed msg)

let family magic = String.sub magic 0 6

(* Check the [found] magic against [expect] and return the verified
   payload of the sealed record behind it. *)
let read_body ~expect path ic found =
  let got = String.length found in
  if got = 0 then fail path (Not_an_artifact "empty file");
  if got < 8 && String.starts_with ~prefix:found expect then
    fail path (Truncated (Printf.sprintf "only %d of the 8 magic bytes present" got));
  if got < 8 || not (String.equal (family found) (family expect)) then
    fail path (Not_an_artifact "no magic header");
  if not (String.equal found expect) then fail path (Unsupported_version (String.sub found 6 2));
  match Codec.input_sealed ic with
  | Codec.Torn what -> fail path (Truncated what)
  | Codec.Bad_digest -> fail path Checksum_mismatch
  | Codec.Sealed body ->
    let trailing = in_channel_length ic - pos_in ic in
    if trailing > 0 then
      fail path (Malformed (Printf.sprintf "%d trailing bytes after the payload" trailing));
    body

let load_from path ic found = decode path (read_body ~expect:magic path ic found)

let load ~path = with_file path (load_from path)

(* --- shard manifests ---------------------------------------------------- *)

module Manifest = struct
  (* Captured before the manifest's own magic shadows it below. *)
  let operator_magic = magic

  type status = Complete | Quarantined of string

  type entry = {
    shard_id : int;
    level : int;
    ix : int;
    iy : int;
    contacts : int array;
    file : string;
    file_digest : string;
    solves : int;
    status : status;
  }

  type t = {
    n : int;
    total_shards : int;
    geometry_digest : string;
    source : string;
    entries : entry array;
  }

  let magic = "SUBCMFM1"

  let is_complete e = match e.status with Complete -> true | Quarantined _ -> false

  let complete m = List.filter is_complete (Array.to_list m.entries)
  let quarantined m = List.filter (fun e -> not (is_complete e)) (Array.to_list m.entries)

  let validate path m =
    if m.n < 0 then fail path (Malformed (Printf.sprintf "negative operator dimension %d" m.n));
    if m.total_shards < 0 then
      fail path (Malformed (Printf.sprintf "negative shard count %d" m.total_shards));
    if Array.length m.entries > m.total_shards then
      fail path
        (Malformed
           (Printf.sprintf "%d entries but only %d planned shards" (Array.length m.entries)
              m.total_shards));
    if String.length m.geometry_digest <> 16 then
      fail path (Malformed "geometry digest is not a 16-byte MD5");
    let claimed = Array.make (max 1 m.n) false in
    let seen_ids = Hashtbl.create 16 in
    Array.iter
      (fun e ->
        let where what = Printf.sprintf "shard %d: %s" e.shard_id what in
        if e.shard_id < 0 || e.shard_id >= m.total_shards then
          fail path
            (Malformed (Printf.sprintf "shard id %d out of range [0, %d)" e.shard_id m.total_shards));
        if Hashtbl.mem seen_ids e.shard_id then
          fail path (Malformed (Printf.sprintf "duplicate shard id %d" e.shard_id));
        Hashtbl.add seen_ids e.shard_id ();
        if e.level < 0 || e.ix < 0 || e.iy < 0 then
          fail path (Malformed (where "negative region coordinates"));
        if e.solves < 0 then fail path (Malformed (where "negative solve count"));
        (match e.status with
        | Complete ->
          if String.length e.file = 0 then
            fail path (Malformed (where "complete but names no artifact file"));
          if String.length e.file_digest <> 16 then
            fail path (Malformed (where "artifact digest is not a 16-byte MD5"))
        | Quarantined _ -> ());
        let prev = ref (-1) in
        Array.iter
          (fun c ->
            if c < 0 || c >= m.n then
              fail path (Malformed (where (Printf.sprintf "contact id %d out of range" c)));
            if c <= !prev then fail path (Malformed (where "contact ids not strictly ascending"));
            if claimed.(c) then
              fail path (Malformed (Printf.sprintf "contact %d claimed by two shards" c));
            claimed.(c) <- true;
            prev := c)
          e.contacts)
      m.entries

  let add_entry b e =
    Codec.add_int b e.shard_id;
    Codec.add_int b e.level;
    Codec.add_int b e.ix;
    Codec.add_int b e.iy;
    Codec.add_int_array b e.contacts;
    Codec.add_string b e.file;
    Codec.add_string b e.file_digest;
    Codec.add_int b e.solves;
    match e.status with
    | Complete ->
      Codec.add_int b 0;
      Codec.add_string b ""
    | Quarantined reason ->
      Codec.add_int b 1;
      Codec.add_string b reason

  let encode m =
    Codec.encode (fun b ->
        Codec.add_int b m.n;
        Codec.add_int b m.total_shards;
        Codec.add_string b m.geometry_digest;
        Codec.add_string b m.source;
        Codec.add_array add_entry b m.entries)

  let read_entry r =
    let shard_id = Codec.read_int r "id" in
    let level = Codec.read_int r "level" in
    let ix = Codec.read_int r "ix" in
    let iy = Codec.read_int r "iy" in
    let contacts = Codec.read_int_array r "contacts" in
    let file = Codec.read_string r "file" in
    let file_digest = Codec.read_string r "file digest" in
    let solves = Codec.read_int r "solves" in
    let tag = Codec.read_int r "status" in
    let reason = Codec.read_string r "quarantine reason" in
    let status =
      match tag with
      | 0 -> Complete
      | 1 -> Quarantined reason
      | t -> raise (Codec.Malformed (Printf.sprintf "unknown status tag %d" t))
    in
    { shard_id; level; ix; iy; contacts; file; file_digest; solves; status }

  let decode path body =
    let m =
      Codec.decode body (fun r ->
          let n = Codec.read_int r "operator dimension" in
          let total_shards = Codec.read_int r "shard count" in
          let geometry_digest = Codec.read_string r "geometry digest" in
          let source = Codec.read_string r "source" in
          let entries = Codec.read_array r "shard entry" read_entry in
          { n; total_shards; geometry_digest; source; entries })
    in
    validate path m;
    m

  let save ~path m =
    validate path m;
    write_atomic ~path (frame ~magic (encode m))

  let load_from path ic found =
    if String.starts_with ~prefix:(family operator_magic) found then
      fail path (Not_an_artifact "a single-operator artifact where a shard manifest was expected");
    decode path (read_body ~expect:magic path ic found)

  let load ~path = with_file path (load_from path)
end

(* Dispatch on the magic family: ".sca" single-operator artifact or ".scm"
   shard manifest. Anything else fails exactly like [load]. *)
let load_any ~path =
  with_file path (fun ic found ->
      if String.starts_with ~prefix:(family Manifest.magic) found then
        `Manifest (Manifest.load_from path ic found)
      else `Operator (load_from path ic found))
