(** Checkpointed extraction: persist completed solve stages to a versioned,
    checksummed file and resume after a crash or {!Blackbox.Solve_failed}
    without repeating any finished solve.

    The extraction drivers issue every solve through
    [Blackbox.apply_batch] in a deterministic stage order, so each batch is
    one checkpoint stage: {!wrap} memoizes stages onto disk keyed by their
    position and a digest of their right-hand sides. Resuming with the
    same layout/solver replays completed stages bit-identically from the
    file; a checkpoint from a different run raises {!Mismatch}. Each
    stage is one {!Subcouple_op.Codec} sealed record; the first torn or
    damaged record and everything after it is truncated away on load. *)

(** The file is not a checkpoint, or one from an older build (bad magic). *)
exception Corrupt of string

(** A replayed stage's right-hand sides differ from what was recorded. *)
exception Mismatch of { stage : int; message : string }

type t

(** [create path] opens or resumes a checkpoint file. Loads every intact
    completed stage, truncates any torn tail, and opens the file for
    appending. One [t] drives one extraction run. *)
val create : string -> t

(** Wrap a box so every [apply]/[apply_batch] becomes a checkpointed
    stage. Built with [~count_total:false], so replayed stages do not
    inflate {!Blackbox.total_solve_count} (the inner box never ran them);
    the wrapper's own [solve_count] still counts logical solves, keeping
    reported extraction solve counts identical to an uninterrupted run. *)
val wrap : t -> Blackbox.t -> Blackbox.t

val path : t -> string

(** Completed stages found in the file at {!create} time. *)
val stages_on_disk : t -> int

(** Stages served from the file so far in this run. *)
val hits : t -> int

(** Right-hand sides served from the file so far in this run (solves that
    were {e not} repeated). *)
val cached_solves : t -> int

(** Close the append channel. Further live stages still solve, but are no
    longer persisted. *)
val close : t -> unit
