(** Precomputed FFT/DCT plans: bit-reversal permutation, per-stage twiddle
    factors, the DCT-II boundary twist and the orthonormal scales for one
    power-of-two length, computed once and cached per length behind a mutex.

    The fields are exposed read-only so the in-place 2-D kernel in {!Dct}
    can load them into its loops. A plan is shared by every domain: never
    write into its arrays. *)

type t = private {
  n : int;
  rev : int array;  (** bit-reversal permutation (an involution) *)
  stage_wr : float array array;
      (** [stage_wr.(s).(k)], [stage_wi.(s).(k)]: twiddle [exp(-i pi k / 2^s)]
          of butterfly stage [s] *)
  stage_wi : float array array;
  twist_c : float array;  (** DCT-II twist [cos(pi k / 2n)] *)
  twist_s : float array;  (** DCT-II twist [sin(pi k / 2n)] *)
  fwd_src : int array;
      (** [fwd_src.(i)]: the input index {!dct2_raw} places at position [i]
          of the FFT input once it is bit-reversed (its even/odd
          permutation composed with [rev]) *)
  inv_src : int array;  (** [inv_src.(m)]: the FFT output {!idct2_raw} reads for output [m] *)
  fwd_scale : float array;  (** orthonormal DCT-II scale of mode [k]: [sqrt(1/n)], then [sqrt(2/n)] *)
  inv_scale : float array;  (** DCT-III pre-scale of mode [k]: [sqrt n], then [sqrt(n/2)] *)
  inv_n : float;  (** [1 / n], the final scale of {!idct2_raw} *)
}

val create : int -> t
(** Build a plan for a power-of-two length (raises [Invalid_argument]
    otherwise). Prefer {!get}, which caches. *)

val get : int -> t
(** The shared plan for this length; thread-safe, builds on first use. *)

val fft : t -> sign:int -> float array -> float array -> unit
(** In-place FFT of (re, im) using the plan's tables; [sign] as in
    [Fft.transform]. *)

val fft_stages : t -> sign:int -> float array -> float array -> unit
(** The butterfly stages of {!fft} alone, on (re, im) already in
    bit-reversed order. *)

val fft_stages_columns :
  t -> sign:int -> float array -> float array -> width:int -> cols:int array -> ncols:int -> unit
(** [fft_stages_columns t ~sign re im ~width ~cols ~ncols] runs the stages
    of {!fft_stages} on the columns [cols.(0 .. ncols - 1)] of a row-major
    [n * width] grid at once: element [e] of column [x] is
    [re.(e * width + x)]. Each butterfly loads its twiddle once and sweeps
    the listed columns of two rows, so every column sees exactly the
    operations of {!fft_stages}, in the same order. *)

val dct2_raw : t -> float array -> float array -> float array -> float array -> unit
(** [dct2_raw t x re im out]: unnormalized DCT-II of [x] into [out]
    (which may alias [x]); [re]/[im] are caller-provided scratch of the
    plan's length. *)

val idct2_raw : t -> float array -> float array -> float array -> float array -> unit
(** Exact inverse of {!dct2_raw}, same calling convention. *)
