(** The one binary format: operator artifacts, shard manifests, extraction
    checkpoints, serve wire frames, and the bytes the probe digests hash.

    Integers are int64 LE, floats their IEEE-754 bits (bit-exact round
    trips), booleans one byte, strings and arrays an int64 count and then
    the elements. The reader checks every length against the bytes left
    before it allocates; short reads, bad counts, ints that do not fit a
    native int and trailing bytes all raise {!Malformed}. *)

exception Malformed of string

(** {1 Writers} *)

val add_int : Buffer.t -> int -> unit
val add_float : Buffer.t -> float -> unit
val add_bool : Buffer.t -> bool -> unit
val add_string : Buffer.t -> string -> unit
val add_int_array : Buffer.t -> int array -> unit
val add_float_array : Buffer.t -> float array -> unit
val add_vectors : Buffer.t -> float array array -> unit

(** The count, then each element as the given writer writes it. *)
val add_array : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a array -> unit

(** [encode f] is the bytes [f] writes to a fresh buffer. *)
val encode : (Buffer.t -> unit) -> string

(** {1 Reader}

    The [string] argument of each [read_*] names the field in the message
    of a {!Malformed}. *)

type reader

(** [decode s f] runs [f] on a reader over [s].
    @raise Malformed if [f] does or bytes are left over. *)
val decode : string -> (reader -> 'a) -> 'a

val read_char : reader -> string -> char
val read_bool : reader -> string -> bool
val read_int : reader -> string -> int
val read_float : reader -> string -> float
val read_string : reader -> string -> string
val read_int_array : reader -> string -> int array
val read_float_array : reader -> string -> float array
val read_vectors : reader -> string -> float array array

(** The count, then each element as the given reader reads it; every
    element must hold at least one int or float. A {!Malformed} inside an
    element names its index. *)
val read_array : reader -> string -> (reader -> 'a) -> 'a array

(** {1 Sealed records: body length (int64), body MD5 (16 bytes), body} *)

val add_sealed : Buffer.t -> string -> unit

type sealed =
  | Sealed of string  (** the body; it hashes to the stored digest *)
  | Torn of string  (** the file ends inside the record *)
  | Bad_digest

(** Read the record at the channel's position, checking its length
    against the bytes left in the file before reading the body, and the
    digest before returning it.
    @raise Malformed on a negative or non-native length. *)
val input_sealed : in_channel -> sealed
