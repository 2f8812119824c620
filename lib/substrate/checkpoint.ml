(* Checkpointed extraction: persist completed solve stages, resume after a
   crash or Solve_failed without repeating any finished solve.

   The wavelet and low-rank drivers issue every solve through
   [Blackbox.apply_batch] in a deterministic stage order (root projection,
   per-level combine solves, samples, split responses, ...). That makes
   apply_batch calls the natural checkpoint grain: [wrap] memoizes each
   *stage* (one batch) onto disk, keyed by its position in the run and a
   digest of its right-hand sides. On resume, stages replay from the file
   in order — the digest check catches a checkpoint from a different
   layout, solver or seed — and the first stage beyond the file runs live
   and is appended.

   File format: the magic "SUBCKPT2\n", then one Subcouple_op.Codec sealed
   record (length, MD5, body) per stage, whose body is the stage digest and
   the response vectors. Records are read one at a time, since a checkpoint
   holds every response of a run. The first record that overruns the file,
   fails its MD5 or does not decode ends the good prefix, and the file is
   truncated back to it: a crash mid-append costs at most the interrupted
   stage, and a damaged byte the stages from its record on. *)

module Codec = Subcouple_op.Codec

exception Corrupt of string
exception Mismatch of { stage : int; message : string }

let () =
  Printexc.register_printer (function
    | Corrupt m -> Some (Printf.sprintf "Substrate.Checkpoint.Corrupt(%s)" m)
    | Mismatch { stage; message } ->
      Some (Printf.sprintf "Substrate.Checkpoint.Mismatch(stage %d: %s)" stage message)
    | _ -> None)

let magic = "SUBCKPT2\n"

type entry = { stage_digest : string; responses : La.Vec.t array }

type t = {
  path : string;
  mutex : Mutex.t;
  completed : entry array;  (* loaded at create, replayed in order *)
  mutable cursor : int;  (* next stage index *)
  mutable hits : int;  (* stages served from the file *)
  mutable cached_solves : int;  (* right-hand sides served from the file *)
  mutable oc : out_channel option;  (* append channel, opened at create *)
}

(* The next record, or [None] at the end of the good prefix. *)
let next_entry ic =
  try
    match Codec.input_sealed ic with
    | Codec.Sealed body ->
      Some
        (Codec.decode body (fun r ->
             let stage_digest = Codec.read_string r "stage digest" in
             { stage_digest; responses = Codec.read_vectors r "responses" }))
    | Codec.Torn _ | Codec.Bad_digest -> None
  with Codec.Malformed _ -> None

(* Read entries until EOF or the first bad record. Returns the good entries
   and the byte offset just past the last one. I/O errors propagate rather
   than be mistaken for the end of the checkpoint. *)
let load_entries path =
  In_channel.with_open_bin path (fun ic ->
      let len = in_channel_length ic in
      if len = 0 then (* an empty file is a fresh checkpoint *)
        ([], 0)
      else if len < String.length magic then
        (* A non-empty file too short to even hold the magic is not a
           checkpoint. Treating it as fresh used to truncate and overwrite
           it — a mistyped --checkpoint path destroyed an arbitrary small
           file. Refuse instead, like any other bad-magic file. *)
        raise
          (Corrupt
             (Printf.sprintf
                "%s: not a checkpoint file (%d bytes, shorter than the magic; refusing to \
                 overwrite)"
                path len))
      else begin
        let header = really_input_string ic (String.length magic) in
        if header <> magic then
          raise
            (Corrupt
               (Printf.sprintf "%s: not a checkpoint file (bad magic %S)" path header));
        let rec read acc =
          let good = pos_in ic in
          match if good < len then next_entry ic else None with
          | Some e -> read (e :: acc)
          | None -> (List.rev acc, good)
        in
        read []
      end)

(* Push a flushed append to stable storage. Without the fsync a power loss
   can forget records the process already counted as persisted — a resume
   would then re-run solves it believes are on disk. *)
let sync oc =
  Subcouple_op.Io_retry.restart (fun () -> Unix.fsync (Unix.descr_of_out_channel oc))

let create path =
  let entries, good_len =
    if Sys.file_exists path then load_entries path else ([], 0)
  in
  (* Drop any torn tail so the append channel starts at a record boundary. *)
  if Sys.file_exists path && (Unix.stat path).Unix.st_size > good_len then
    Unix.truncate path good_len;
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ] 0o644 path
  in
  Subcouple_op.Io_retry.fsync_dir path;
  if good_len = 0 then begin
    output_string oc magic;
    flush oc;
    sync oc
  end;
  {
    path;
    mutex = Mutex.create ();
    completed = Array.of_list entries;
    cursor = 0;
    hits = 0;
    cached_solves = 0;
    oc = Some oc;
  }

let digest_stage ~stage rhs =
  Digest.to_hex
    (Digest.string
       (Codec.encode (fun b ->
            Codec.add_int b stage;
            Codec.add_vectors b rhs)))

let replay_span = "checkpoint.stage.replay"
let solve_span = "checkpoint.stage.solve"
let replay_counter = Trace.counter "checkpoint.replay_hits"

let append t ~stage_digest responses =
  match t.oc with
  | None -> ()  (* closed: keep solving, stop persisting *)
  | Some oc ->
    let body =
      Codec.encode (fun b ->
          Codec.add_string b stage_digest;
          Codec.add_vectors b responses)
    in
    output_string oc (Codec.encode (fun b -> Codec.add_sealed b body));
    flush oc;
    sync oc

(* Serve stage [cursor] from the file if present (digest must match),
   otherwise run [solve] and append the result. The mutex serializes
   stages; extraction drivers issue them sequentially anyway. *)
let stage t ~rhs solve =
  Mutex.protect t.mutex (fun () ->
      let stage = t.cursor in
      let stage_digest = digest_stage ~stage rhs in
      if stage < Array.length t.completed then
        Trace.with_span replay_span (fun () ->
            let e = t.completed.(stage) in
            if e.stage_digest <> stage_digest then
              raise
                (Mismatch
                   {
                     stage;
                     message =
                       Printf.sprintf
                         "%s was written by a different run (layout/solver/seed changed?)" t.path;
                   });
            t.cursor <- stage + 1;
            t.hits <- t.hits + 1;
            t.cached_solves <- t.cached_solves + Array.length e.responses;
            Trace.incr replay_counter;
            e.responses)
      else
        Trace.with_span solve_span (fun () ->
            let responses = solve () in
            append t ~stage_digest responses;
            t.cursor <- stage + 1;
            responses))

(* Wrap a box so every apply/apply_batch becomes a checkpointed stage.
   [~count_total:false]: replayed stages must not inflate the process-wide
   solve tally (the inner box never ran them). *)
let wrap t inner =
  Blackbox.make_batch ~count_total:false ~n:(Blackbox.n inner)
    ~batch:(fun ~jobs vs -> stage t ~rhs:vs (fun () -> Blackbox.apply_batch ~jobs inner vs))
    (fun v -> (stage t ~rhs:[| v |] (fun () -> [| Blackbox.apply inner v |])).(0))

let path t = t.path
let stages_on_disk t = Array.length t.completed
let hits t = t.hits
let cached_solves t = t.cached_solves

let close t =
  Mutex.protect t.mutex (fun () ->
      match t.oc with
      | None -> ()
      | Some oc ->
        close_out_noerr oc;
        t.oc <- None)
