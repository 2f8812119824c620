(** EINTR-restarting file-descriptor I/O.

    The raw [Unix] syscall wrappers surface [EINTR] to the caller; in a
    process that handles signals (the serving daemon, checkpointed CLI
    runs) an interrupted transfer must restart, not abort — an aborted
    write loop leaves a torn temp file, an aborted read loses stream
    position. OCaml's buffered channels restart internally already; use
    these for raw file descriptors. *)

(** [restart f] runs [f], retrying as long as it raises
    [Unix.Unix_error (EINTR, _, _)]. For single syscalls with no partial
    progress ([Unix.fsync], [Unix.openfile], [Unix.select], accept). Do
    not use for [Unix.close] (the descriptor state after an interrupted
    close is unspecified). *)
val restart : (unit -> 'a) -> 'a

(** [write_all fd buf off len] writes the whole range, restarting on
    [EINTR] and continuing after short writes. Each attempt is one
    [Unix.single_write], so an interrupted attempt has written nothing and
    no byte is ever sent twice.
    @raise Unix.Unix_error on any other error. *)
val write_all : Unix.file_descr -> Bytes.t -> int -> int -> unit

(** [really_read fd buf off len] fills the whole range, restarting on
    [EINTR] and continuing after short reads.
    @raise End_of_file if the stream ends first.
    @raise Unix.Unix_error on any other error. *)
val really_read : Unix.file_descr -> Bytes.t -> int -> int -> unit

(** [fsync_dir path] fsyncs [path]'s directory, so a power loss cannot
    forget a rename to [path] or its creation. Best-effort: some
    filesystems refuse to open a directory for reading. *)
val fsync_dir : string -> unit
