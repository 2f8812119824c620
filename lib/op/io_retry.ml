(* EINTR-restarting file-descriptor I/O.

   OCaml's buffered channels already restart interrupted reads and writes
   inside the runtime, but the raw [Unix] syscall wrappers do not: a
   process fielding signals — a daemon with SIGTERM/SIGCHLD handlers, a
   CLI run under a profiler's SIGPROF — sees [Unix.write] and [Unix.read]
   raise [EINTR] mid-transfer. A write loop that treats that as fatal
   leaves a torn file behind the atomic-rename discipline's back; a read
   loop loses its place in a length-prefixed stream. Every raw-fd
   transfer in the repo (artifact saves, the serve protocol's socket
   framing) goes through these helpers instead. *)

let rec restart f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart f

(* [Unix.single_write], not [Unix.write]: the latter loops over 64 KiB
   chunks inside one call and raises EINTR even when earlier chunks have
   already gone out, so retrying from the same offset would send them
   twice. [single_write] makes one write(2) and, when it raises, has
   written nothing. *)
let rec write_all fd buf off len =
  if len > 0 then begin
    match Unix.single_write fd buf off len with
    | written -> write_all fd buf (off + written) (len - written)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd buf off len
  end

let rec really_read fd buf off len =
  if len > 0 then begin
    match Unix.read fd buf off len with
    | 0 -> raise End_of_file
    | got -> really_read fd buf (off + got) (len - got)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> really_read fd buf off len
  end

let fsync_dir path =
  match restart (fun () -> Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0) with
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> restart (fun () -> Unix.fsync fd))
  | exception Unix.Unix_error _ -> ()
